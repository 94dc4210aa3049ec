//! Per-layer metrics of a traced phase: span statistics, span links and
//! self times, and before/after deltas of the layers' own counters.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::latency::Recorder;
use crate::trace::{Kind, RpcKind, Span, BUSY, CACHE_HIT, DEFERRED, ERROR, RECONSTRUCTED, SEALED};
use crate::workload::PhaseRun;

/// Percentile every per-layer `tail_us` reports.
pub const LAYER_TAIL: f64 = 0.99;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn recorder<'a>(spans: impl Iterator<Item = &'a Span>) -> Recorder {
    let mut r = Recorder::new();
    for s in spans {
        r.record_ns(s.dur());
    }
    r
}

/// Span links made after the run: a child span → its parent's index.
///
/// * client RPCs issued on the driver thread inside a benchmark operation
///   carry its id;
/// * client RPCs from the log's own threads (writer, scatter reads) link
///   to the operation of the same client whose interval contains them —
///   each client has one driver thread, so its operations never overlap;
/// * other stores link to the flush of the same client that was waiting
///   when they were harvested;
/// * server handler spans link to the client RPC of the same (server,
///   client, fragment id, kind) whose interval contains them;
/// * store spans link to the handler span of the same server and client
///   that contains them, by fragment id first.
pub struct Links {
    pub parent: Vec<Option<usize>>,
}

fn rpc_key(s: &Span) -> Option<(u32, u32, u64, RpcKind)> {
    match s.kind {
        Kind::Rpc(k) | Kind::Handle(k) => Some((s.server, s.client, s.fid, k)),
        Kind::FastRead => Some((s.server, s.client, s.fid, RpcKind::Read)),
        _ => None,
    }
}

/// The last span in `cands` (sorted by start) that contains `child`.
fn containing(spans: &[Span], cands: &[usize], child: &Span) -> Option<usize> {
    let upto = cands.partition_point(|&i| spans[i].start <= child.start);
    cands[..upto]
        .iter()
        .rev()
        .take(256)
        .copied()
        .find(|&i| spans[i].end >= child.end)
}

impl Links {
    pub fn build(spans: &[Span]) -> Links {
        let mut parent = vec![None; spans.len()];
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| spans[i].start);

        let mut ops: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut flushes: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut client_rpcs: HashMap<(u32, u32, u64, RpcKind), Vec<usize>> = HashMap::new();
        let mut handles_by_fid: HashMap<(u32, u32, u64), Vec<usize>> = HashMap::new();
        let mut batches: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        for &i in &order {
            let s = &spans[i];
            match s.kind {
                Kind::Append | Kind::Read | Kind::ReadMany | Kind::CleanerPass => {
                    ops.entry(s.client).or_default().push(i)
                }
                Kind::Flush => {
                    ops.entry(s.client).or_default().push(i);
                    flushes.entry(s.client).or_default().push(i);
                }
                Kind::Rpc(_) => client_rpcs
                    .entry(rpc_key(s).expect("rpc"))
                    .or_default()
                    .push(i),
                Kind::Handle(k) => {
                    handles_by_fid
                        .entry((s.server, s.client, s.fid))
                        .or_default()
                        .push(i);
                    if k == RpcKind::ReadBatch {
                        batches.entry((s.server, s.client)).or_default().push(i);
                    }
                }
                _ => {}
            }
        }
        let none: Vec<usize> = Vec::new();
        for &i in &order {
            let s = &spans[i];
            parent[i] = match s.kind {
                Kind::Rpc(k) => match by_id.get(&s.parent) {
                    Some(&p) if s.parent != 0 => Some(p),
                    _ => containing(spans, ops.get(&s.client).unwrap_or(&none), s).or_else(|| {
                        if k != RpcKind::Store {
                            return None;
                        }
                        flushes
                            .get(&s.client)
                            .and_then(|f| {
                                // The flush that was waiting when the store's
                                // response was harvested.
                                let upto = f.partition_point(|&j| spans[j].start <= s.end);
                                f[..upto].last().copied()
                            })
                            .filter(|&j| spans[j].end >= s.end)
                    }),
                },
                Kind::Handle(_) | Kind::FastRead => {
                    let key = rpc_key(s).expect("handler span");
                    containing(spans, client_rpcs.get(&key).unwrap_or(&none), s)
                }
                Kind::StoreWrite | Kind::StoreRead | Kind::StoreDelete => containing(
                    spans,
                    handles_by_fid
                        .get(&(s.server, s.client, s.fid))
                        .unwrap_or(&none),
                    s,
                )
                .or_else(|| {
                    containing(
                        spans,
                        batches.get(&(s.server, s.client)).unwrap_or(&none),
                        s,
                    )
                }),
                _ => None,
            };
        }
        Links { parent }
    }

    /// Per span: its duration minus the union of its children's
    /// intervals, clipped to its own.
    pub fn self_times(&self, spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = *p {
                let (ps, pe) = (spans[p].start, spans[p].end);
                let (s, e) = (spans[i].start.max(ps), spans[i].end.min(pe));
                if s < e {
                    children[p].push((s, e));
                }
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (s, e) in kids {
                    cur = match cur {
                        Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            covered += ce - cs;
                            Some((s, e))
                        }
                        None => Some((s, e)),
                    };
                }
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                span.dur().saturating_sub(covered)
            })
            .collect()
    }
}

/// Client RPC time minus the matched server handler time, per RPC kind.
fn overheads(spans: &[Span], links: &Links) -> HashMap<RpcKind, Recorder> {
    let mut out: HashMap<RpcKind, Recorder> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let (Kind::Handle(_) | Kind::FastRead, Some(p)) = (s.kind, links.parent[i]) {
            if let Kind::Rpc(k) = spans[p].kind {
                out.entry(k)
                    .or_default()
                    .record_ns(spans[p].dur().saturating_sub(s.dur()));
            }
        }
    }
    out
}

/// Every per-layer metric of a traced phase. `untraced_ops_per_s` comes
/// from the untraced phase run just before it.
pub fn metrics(
    run: &PhaseRun,
    links: &Links,
    traced_ops_per_s: f64,
    untraced_ops_per_s: f64,
) -> Vec<Metric> {
    let spans = &run.spans;
    let of = |k: Kind| spans.iter().filter(move |s| s.kind == k);
    let mut out = Vec::new();

    let mut stats = swarm_log::LogStats::default();
    let (mut appended, mut durable, mut read_bytes) = (0u64, 0u64, 0u64);
    for c in &run.clients {
        let (a, b) = (&c.stats_after, &c.stats_before);
        stats.data_fragments += a.data_fragments - b.data_fragments;
        stats.parity_fragments += a.parity_fragments - b.parity_fragments;
        stats.padding_fragments += a.padding_fragments - b.padding_fragments;
        stats.bytes_shipped += a.bytes_shipped - b.bytes_shipped;
        stats.reconstructions += a.reconstructions - b.reconstructions;
        appended += c.appended_bytes;
        durable += c.durable_bytes;
        read_bytes += c.read_bytes;
    }
    let counter = |name: &str| {
        run.counters_after
            .counter(name)
            .saturating_sub(run.counters_before.counter(name)) as f64
    };
    let mib = 1024.0 * 1024.0;

    // swarm-log append + seal + parity.
    let mut appends = recorder(of(Kind::Append));
    let mut sealed = recorder(of(Kind::Append).filter(|s| s.flags & SEALED != 0));
    out.push(m("log.append.us", "us", appends.mean_us()));
    out.push(m("log.append.seal_p50_us", "us", sealed.p50_us()));
    out.push(m(
        "log.append.seal_frac",
        "frac",
        ratio(sealed.len() as f64, appends.len() as f64),
    ));

    // swarm-log flush + writer.
    let mut flushes = recorder(of(Kind::Flush));
    let self_times = links.self_times(spans);
    let (flush_total, flush_self) = spans
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.kind == Kind::Flush)
        .fold((0u64, 0u64), |(t, st), (s, &own)| (t + s.dur(), st + own));
    out.push(m("log.flush.us", "us", flushes.mean_us()));
    out.push(m(
        "log.flush.wait_frac",
        "frac",
        ratio((flush_total - flush_self) as f64, flush_total as f64),
    ));
    let shipped = stats.data_fragments + stats.parity_fragments + stats.padding_fragments;
    out.push(m(
        "log.fragments.padding_frac",
        "frac",
        ratio(stats.padding_fragments as f64, shipped as f64),
    ));
    out.push(m(
        "log.shipped_bytes_per_user_byte",
        "ratio",
        ratio(stats.bytes_shipped as f64, appended as f64),
    ));

    // swarm-log read engine and reconstruction.
    let reads = || {
        spans
            .iter()
            .filter(|s| matches!(s.kind, Kind::Read | Kind::ReadMany))
    };
    let mut home = recorder(reads().filter(|s| s.flags & (CACHE_HIT | RECONSTRUCTED) == 0));
    let mut rebuilt = recorder(reads().filter(|s| s.flags & RECONSTRUCTED != 0));
    // Read RPCs made on behalf of user reads and scans, reconstruction
    // fetches included; the cleaner's whole-fragment reads excluded.
    let read_rpcs = spans
        .iter()
        .zip(&links.parent)
        .filter(|(s, p)| {
            matches!(s.kind, Kind::Rpc(RpcKind::Read | RpcKind::ReadBatch))
                && p.is_some_and(|p| matches!(spans[p].kind, Kind::Read | Kind::ReadMany))
        })
        .count();
    out.push(m("log.read.home_p50_us", "us", home.p50_us()));
    let (blocks, hits) = reads().fold((0u64, 0u64), |(b, h), s| {
        (b + u64::from(s.blocks), h + u64::from(s.hits))
    });
    out.push(m(
        "log.read.client_cache_hit_frac",
        "frac",
        ratio(hits as f64, blocks as f64),
    ));
    out.push(m(
        "log.read_many.blocks_per_rpc",
        "ratio",
        ratio((blocks - hits) as f64, read_rpcs as f64),
    ));
    out.push(m("log.read.reconstruct_p50_us", "us", rebuilt.p50_us()));
    out.push(m(
        "log.reconstructions_per_read_mib",
        "1/MiB",
        ratio(stats.reconstructions as f64, read_bytes as f64 / mib),
    ));
    out.push(m(
        "log.retries",
        "count",
        counter("log.store_retries")
            + counter("log.read_retries")
            + counter("log.busy_backoffs")
            + counter("log.reconnects"),
    ));

    // swarm-net.
    let over = overheads(spans, links);
    let rpcs = || spans.iter().filter(|s| matches!(s.kind, Kind::Rpc(_)));
    for k in RpcKind::ALL {
        let mut r = recorder(of(Kind::Rpc(k)));
        let name = k.name();
        out.push(m(format!("net.rpc.{name}.calls"), "count", r.len() as f64));
        out.push(m(format!("net.rpc.{name}.p50_us"), "us", r.p50_us()));
        out.push(m(
            format!("net.rpc.{name}.tail_us"),
            "us",
            r.quantile_us(LAYER_TAIL),
        ));
        out.push(m(
            format!("net.rpc.{name}.overhead_us"),
            "us",
            over.get(&k).cloned().unwrap_or_default().p50_us(),
        ));
    }
    let total_rpcs = rpcs().count() as f64;
    out.push(m(
        "net.rpc.error_frac",
        "frac",
        ratio(
            rpcs().filter(|s| s.flags & ERROR != 0).count() as f64,
            total_rpcs,
        ),
    ));
    let store_busy: u64 = of(Kind::Rpc(RpcKind::Store)).map(Span::dur).sum();
    out.push(m(
        "net.store_inflight_mean",
        "count",
        ratio(
            store_busy as f64,
            run.elapsed.as_nanos() as f64 * run.clients.len() as f64,
        ),
    ));
    out.push(m(
        "net.admission.busy_frac",
        "frac",
        ratio(
            rpcs().filter(|s| s.flags & BUSY != 0).count() as f64,
            total_rpcs,
        ),
    ));
    out.push(m(
        "net.wire_bytes_per_user_byte",
        "ratio",
        ratio(
            counter("net.client.bytes_out") + counter("net.client.bytes_in"),
            (appended + read_bytes) as f64,
        ),
    ));

    // swarm-server handler + read cache.
    for k in RpcKind::ALL {
        out.push(m(
            format!("server.handle.{}.p50_us", k.name()),
            "us",
            recorder(of(Kind::Handle(k))).p50_us(),
        ));
    }
    let (offered, answered) = run.fast_path;
    out.push(m(
        "server.fast_path_frac",
        "frac",
        ratio(answered as f64, offered as f64),
    ));
    let hits = counter("server.read_cache_hits");
    out.push(m(
        "server.read_cache_hit_frac",
        "frac",
        ratio(
            hits,
            hits + counter("server.read_cache_misses") + counter("server.read_cache_bypass"),
        ),
    ));

    // swarm-server FileStore.
    let mut writes = recorder(of(Kind::StoreWrite));
    let mut store_reads = recorder(of(Kind::StoreRead));
    let batches = run.store_after.journal_batches - run.store_before.journal_batches;
    out.push(m("store.write.calls", "count", writes.len() as f64));
    out.push(m("store.write.p50_us", "us", writes.p50_us()));
    out.push(m(
        "store.write.tail_us",
        "us",
        writes.quantile_us(LAYER_TAIL),
    ));
    out.push(m("store.read.calls", "count", store_reads.len() as f64));
    out.push(m("store.read.p50_us", "us", store_reads.p50_us()));
    out.push(m(
        "store.journal_batches_per_durable_mib",
        "1/MiB",
        ratio(batches as f64, durable as f64 / mib),
    ));
    out.push(m(
        "store.journal_batch_mean",
        "count",
        ratio(
            (writes.len() + of(Kind::StoreDelete).count()) as f64,
            batches as f64,
        ),
    ));

    // swarm-cleaner.
    let mut passes = recorder(of(Kind::CleanerPass));
    let (moved, reclaimed) = run.clients.iter().fold((0u64, 0u64), |(m, r), c| {
        (m + c.cleaned.bytes_moved, r + c.cleaned.bytes_reclaimed)
    });
    out.push(m("cleaner.pass.calls", "count", passes.len() as f64));
    out.push(m("cleaner.pass.p50_us", "us", passes.p50_us()));
    out.push(m(
        "cleaner.bytes_moved_per_reclaimed",
        "ratio",
        ratio(moved as f64, reclaimed as f64),
    ));

    out.push(m(
        "trace.overhead_frac",
        "frac",
        1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
    ));
    out
}

/// Span count, links, total and self time per span kind, as JSON.
pub fn self_time_json(spans: &[Span], links: &Links) -> String {
    let own = links.self_times(spans);
    let mut per: std::collections::BTreeMap<String, (u64, u64, u64, u64)> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let e = per.entry(s.kind.name()).or_default();
        e.0 += 1;
        e.1 += u64::from(links.parent[i].is_some());
        e.2 += s.dur();
        e.3 += own[i];
    }
    let rows: Vec<String> = per
        .iter()
        .map(|(k, (n, linked, total, own))| {
            format!(
                "\"{k}\": {{\"spans\": {n}, \"linked_to_parent\": {linked}, \"total_us\": {:.1}, \"self_us\": {:.1}}}",
                *total as f64 / 1e3,
                *own as f64 / 1e3
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Writes every span, one per line, tab-separated, with the parent each
/// was linked to.
pub fn write_spans(path: &Path, spans: &[Span], links: &Links) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "# Times are ns since the tracer epoch. Deferred RPCs (flag {DEFERRED}) are \
         stamped when the caller harvests them, so their end can trail the \
         response's arrival: their duration is an upper bound."
    )?;
    writeln!(
        f,
        "# Flags: {SEALED}=sealed {RECONSTRUCTED}=reconstructed {CACHE_HIT}=client-cache \
         {DEFERRED}=deferred {ERROR}=error {BUSY}=busy. server {} = client side.",
        u32::MAX
    )?;
    writeln!(
        f,
        "id\tkind\tstart\tend\tparent\top\tclient\tserver\tfid\tflags"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = links.parent[i].map_or(s.parent, |p| spans[p].id);
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.kind.name(),
            s.start,
            s.end,
            parent,
            s.op,
            s.client,
            s.server,
            s.fid,
            s.flags
        )?;
    }
    f.flush()
}
