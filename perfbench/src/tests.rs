//! The benchmark's own checks: decorator fidelity, each workload's layer
//! coverage, and agreement between the metric names it prints and the ones
//! `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::sync::Arc;

use swarm_net::tcp::TcpTransport;
use swarm_net::{Runtime, Transport};
use swarm_types::{ClientId, ServerId};

use crate::cluster::{Cluster, SERVERS};
use crate::layers::{self, Metric};
use crate::trace::{TracedTransport, Tracer};
use crate::workload::{self, Workload};

/// A fresh scratch directory for one test's stores.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// A short traced phase of `w` and its per-layer metrics.
fn traced_layers(w: Workload, seconds: f64) -> Vec<Metric> {
    let dir = scratch(w.name());
    let tracer = Tracer::new();
    let run = workload::run_phase(w, 1, seconds, &dir, Some(tracer)).expect("traced phase");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.mismatches().is_empty(), "{:?}", run.mismatches());
    assert_eq!(run.failed(), 0, "{:?}", run.clients[0].errors);
    let links = layers::Links::build(&run.spans);
    layers::metrics(&run, &links, 1.0, 1.0)
}

#[test]
fn traced_connections_keep_the_pipeline_width() {
    let dir = scratch("width");
    let tracer = Tracer::new();
    let cluster = Cluster::spawn(&dir, Some(tracer.clone())).expect("cluster");
    let tcp = Arc::new(TcpTransport::new());
    tcp.set_runtime(Runtime::Epoll);
    for (id, addr) in cluster.addrs() {
        tcp.add_server(id, addr);
    }
    let server = ServerId::new(0);
    let client = ClientId::new(9);
    let bare = tcp.connect(server, client).expect("bare connection");
    let traced = TracedTransport::new(tcp.clone(), tracer)
        .connect(server, client)
        .expect("traced connection");
    assert!(bare.pipeline_width() > 1, "the mux transport pipelines");
    assert_eq!(traced.pipeline_width(), bare.pipeline_width());
    assert_eq!(traced.server(), server);
    assert_eq!(
        TracedTransport::new(tcp, Tracer::new()).servers().len(),
        SERVERS as usize
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_exercises_the_write_path_only() {
    let m = traced_layers(Workload::Ingest, 1.0);
    assert!(value(&m, "net.rpc.store.calls") > 0.0);
    assert!(value(&m, "store.write.calls") > 0.0);
    assert!(value(&m, "log.append.seal_frac") > 0.0);
    // Flushes land on stripe boundaries: nothing is padded.
    assert_eq!(value(&m, "log.fragments.padding_frac"), 0.0);
    assert_eq!(value(&m, "log.reconstructions_per_read_mib"), 0.0);
    assert_eq!(value(&m, "cleaner.pass.calls"), 0.0);
    assert_eq!(value(&m, "net.rpc.read_batch.calls"), 0.0);
}

#[test]
fn mixed_exercises_cleaner_and_fast_path() {
    let m = traced_layers(Workload::Mixed, 3.0);
    assert!(value(&m, "cleaner.pass.calls") > 0.0);
    assert!(
        value(&m, "server.fast_path_frac") > 0.0,
        "tracing must leave the reactor fast path on"
    );
    assert!(value(&m, "log.fragments.padding_frac") > 0.0);
    assert!(value(&m, "net.rpc.read.calls") > 0.0);
    assert_eq!(value(&m, "log.reconstructions_per_read_mib"), 0.0);
}

#[test]
fn scan_degraded_exercises_reads_and_reconstruction() {
    let m = traced_layers(Workload::ScanDegraded, 1.0);
    assert!(value(&m, "log.reconstructions_per_read_mib") > 0.0);
    assert!(value(&m, "net.rpc.read_batch.calls") > 0.0);
    assert!(value(&m, "store.read.calls") > 0.0);
    assert_eq!(value(&m, "cleaner.pass.calls"), 0.0);
    assert_eq!(value(&m, "net.rpc.store.calls"), 0.0);
    assert_eq!(value(&m, "log.append.seal_frac"), 0.0);
}

/// Every metric name printed is declared in `BENCHMARK.json`, and the
/// reverse, in both modes.
#[test]
fn printed_metrics_match_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    // `(name, unit)` of every entry of one list.
    let section = |key: &str| -> Vec<(String, String)> {
        let start = spec.find(&format!("\"{key}\"")).expect("section");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            entry[at..]
                .split('"')
                .nth(1)
                .expect("field value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    };
    let dir = scratch("names");
    let run = workload::run_phase(Workload::Mixed, 1, 0.2, &dir, None).expect("phase");
    let _ = std::fs::remove_dir_all(&dir);
    let (main, _) = crate::end_to_end(Workload::Mixed, &run);
    let printed: Vec<(String, String)> = main
        .into_iter()
        .map(|(m, _)| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(printed, section("end_to_end"));
    let links = layers::Links::build(&run.spans);
    let printed: Vec<(String, String)> = layers::metrics(&run, &links, 1.0, 1.0)
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(printed, section("per_layer"));
}
