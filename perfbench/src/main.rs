//! One benchmark for the Swarm stack: closed-loop clients against five
//! real TCP servers over strict-durability `FileStore`s, with a traced
//! variant that splits the time by layer.
//!
//! ```text
//! perfbench --workload ingest|mixed|scan_degraded|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced and then traced, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; a byte
//! mismatch anywhere makes the exit code non-zero.

mod cluster;
mod env;
mod gen;
mod latency;
mod layers;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use latency::{tail_label, Recorder};
use layers::Metric;
use workload::{PhaseRun, Workload};

/// Where a run keeps its stores and writes its results, relative to the
/// directory it is started from.
const RUN_DIR: &str = ".perfbench";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload ingest|mixed|scan_degraded|all \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds wants a value in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sum over clients of each one's rate of `count`.
fn rate(run: &PhaseRun, count: impl Fn(&workload::ClientRun) -> u64) -> f64 {
    run.clients.iter().map(|c| c.rate(count(c))).sum()
}

fn ops_per_s(run: &PhaseRun) -> f64 {
    rate(run, |c| c.ops)
}

fn mib_s(run: &PhaseRun, bytes: impl Fn(&workload::ClientRun) -> u64) -> f64 {
    rate(run, bytes) / (1024.0 * 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// p50, the `q` tail, and a note with the tail's label and sample counts.
fn tail_of(rec: &mut Recorder, q: f64) -> (f64, f64, String) {
    let p50 = rec.p50_us();
    let tail = rec.quantile_us(q);
    let note = format!(
        "{} over {} samples, {} beyond",
        tail_label(q),
        rec.len(),
        rec.beyond(q)
    );
    (p50, tail, note)
}

/// A metric with a note for the human-readable lines.
type Noted = (Metric, String);

/// End-to-end metrics: the ones every workload reports (what
/// `BENCHMARK.json` lists) and, as detail, the per-operation ones that
/// exist only where their operation occurs.
fn end_to_end(w: Workload, run: &PhaseRun) -> (Vec<Noted>, Vec<Noted>) {
    let metric = |name: &str, unit: &'static str, value: f64| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    let read: u64 = run.clients.iter().map(|c| c.read_bytes).sum();
    let appended: u64 = run.clients.iter().map(|c| c.appended_bytes).sum();
    // Medians over the phase's windows, each window summed over clients.
    let shape = w.shape();
    let window_s = run.seconds / shape.windows as f64;
    let (mut ops, mut mib, mut p50, mut tail) = (vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    for i in 0..shape.windows {
        let window = |c: &workload::ClientRun| c.windows.get(i).cloned().unwrap_or_default();
        ops.push(run.clients.iter().map(|c| window(c).ops).sum::<u64>() as f64 / window_s);
        mib.push(
            run.clients.iter().map(|c| window(c).bytes).sum::<u64>() as f64
                / window_s
                / (1024.0 * 1024.0),
        );
        let mut op = Recorder::new();
        for c in &run.clients {
            op.merge(&window(c).op);
        }
        samples += op.len();
        p50.push(op.p50_us());
        tail.push(op.quantile_us(shape.tail));
    }
    let per_window: Vec<String> = ops.iter().map(|o| format!("{o:.0}")).collect();
    let main = vec![
        (
            metric("ops_per_s", "1/s", median(&ops)),
            format!("median of windows: {}", per_window.join(" ")),
        ),
        (metric("user_mib_s", "MiB/s", median(&mib)), String::new()),
        (metric("op_p50_us", "us", median(&p50)), w.op_name().into()),
        (
            metric("op_tail_us", "us", median(&tail)),
            format!(
                "{} {} per {window_s:.1}s window, median of {} ({} samples, ~{} beyond per window)",
                w.op_name(),
                tail_label(shape.tail),
                shape.windows,
                samples,
                (samples as f64 / shape.windows as f64 * (1.0 - shape.tail)).floor()
            ),
        ),
        (
            metric("setup_s", "s", median(&run.setup_s)),
            format!("median of {} set-ups", run.setup_s.len()),
        ),
    ];

    let mut detail = vec![
        (
            metric("ops_per_s_whole", "1/s", ops_per_s(run)),
            "over each client's whole phase".into(),
        ),
        (
            metric("peak_rss_mib", "MiB", env::peak_rss_mib()),
            "VmHWM".into(),
        ),
    ];
    let attempted = run.attempted();
    detail.push((
        metric(
            "failed_op_frac",
            "frac",
            run.failed() as f64 / attempted.max(1) as f64,
        ),
        format!("{} of {attempted}", run.failed()),
    ));
    if appended > 0 {
        detail.push((
            metric("durable_mib_s", "MiB/s", mib_s(run, |c| c.durable_bytes)),
            String::new(),
        ));
        let grown = run.store_after.bytes as f64 - run.store_before.bytes as f64;
        detail.push((
            metric(
                "stored_bytes_per_user_byte",
                "ratio",
                grown / appended as f64,
            ),
            String::new(),
        ));
    }
    if read > 0 {
        detail.push((
            metric("read_mib_s", "MiB/s", mib_s(run, |c| c.read_bytes)),
            String::new(),
        ));
    }
    for (name, pick) in [
        (
            "append",
            (|c| &c.append) as fn(&workload::ClientRun) -> &Recorder,
        ),
        ("flush", |c| &c.flush),
        ("read", |c| &c.read),
        ("scan", |c| &c.scan),
    ] {
        let mut rec = run.merged(pick);
        if rec.is_empty() {
            continue;
        }
        let q = if name == w.op_name() {
            w.shape().tail
        } else {
            rec.supported_tail()
        };
        let (p50, tail, note) = tail_of(&mut rec, q);
        detail.push((metric(&format!("{name}_p50_us"), "us", p50), String::new()));
        detail.push((metric(&format!("{name}_tail_us"), "us", tail), note));
    }
    (main, detail)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                env::json_str(&m.name),
                json_num(m.value),
                env::json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite number as JSON; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Commits the filesystem journal under `dir` (fsync of the directory), so
/// metadata work left over from earlier runs, such as freeing the blocks of
/// deleted stores, is not charged to this run's set-up.
fn settle(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Everything one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

fn run_workload(w: Workload, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let stores = run_dir.join("stores").join(std::process::id().to_string());
    std::fs::create_dir_all(&stores).map_err(|e| format!("create {}: {e}", stores.display()))?;
    settle(&stores);
    let fingerprint = env::Fingerprint::collect(&stores);
    // A traced run splits its time between an untraced and a traced
    // phase, so it costs about as much as an untraced run.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = |name: &str, tracer| {
        workload::run_phase(w, args.seed, seconds, &stores.join(name), tracer)
            .map_err(|e| format!("{} set-up failed: {e}", w.name()))
    };
    let untraced = phase("untraced", None)?;
    let (main, detail) = end_to_end(w, &untraced);
    let mut mismatches = untraced.mismatches();
    let mut attempted = untraced.attempted();
    let mut failed = untraced.failed();
    let mut self_time = "{}".to_string();
    let metrics = if args.trace {
        let tracer = trace::Tracer::new();
        let traced = phase("traced", Some(tracer))?;
        mismatches.extend(traced.mismatches());
        attempted += traced.attempted();
        failed += traced.failed();
        let links = layers::Links::build(&traced.spans);
        let spans_path = run_dir
            .join("spans")
            .join(format!("{}-seed{}.tsv", w.name(), args.seed));
        layers::write_spans(&spans_path, &traced.spans, &links)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        self_time = layers::self_time_json(&traced.spans, &links);
        layers::metrics(&traced, &links, ops_per_s(&traced), ops_per_s(&untraced))
            .into_iter()
            .map(|m| (m, String::new()))
            .collect()
    } else {
        main
    };
    let _ = std::fs::remove_dir_all(&stores);
    settle(run_dir);

    println!(
        "== {} seed={} seconds={} trace={} elapsed={:.3}s keys_read_back={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.elapsed.as_secs_f64(),
        untraced.clients.iter().map(|c| c.verified).sum::<u64>()
    );
    println!("fingerprint {}", fingerprint.to_json());
    let line = |(m, note): &Noted| {
        println!("  {:<40} {:>14.4} {:<6} {note}", m.name, m.value, m.unit);
    };
    metrics.iter().for_each(line);
    if !args.trace {
        println!("  -- per operation (reported where the operation occurs):");
        detail.iter().for_each(line);
    }
    for c in untraced.clients.iter() {
        for e in &c.errors {
            eprintln!("error: {e}");
        }
    }
    for miss in mismatches.iter().take(10) {
        eprintln!("MISMATCH {miss}");
    }

    let metrics: Vec<Metric> = metrics.into_iter().map(|(m, _)| m).collect();
    let detail_metrics: Vec<Metric> = detail.into_iter().map(|(m, _)| m).collect();
    let results = run_dir.join("results");
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \
         \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \
         \"detail\": {}, \"setup_samples_s\": [{}], \"self_time\": {self_time}}}\n",
        env::json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.to_json(),
        mismatches.is_empty(),
        metrics_json(&metrics),
        metrics_json(&detail_metrics),
        untraced
            .setup_s
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        mismatches,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    let mut all: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for &w in &args.workloads {
        match run_workload(w, &args, &run_dir) {
            Ok(out) => {
                attempted += out.attempted;
                failed += out.failed;
                correct &= out.mismatches.is_empty();
                let prefix = if args.workloads.len() > 1 {
                    format!("{}.", w.name())
                } else {
                    String::new()
                };
                all.extend(out.metrics.into_iter().map(|m| Metric {
                    name: format!("{prefix}{}", m.name),
                    ..m
                }));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir(run_dir.join("stores"));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&all)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
