//! The three workloads and the closed-loop client driver that runs them.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_cleaner::{CleanPolicy, CleanStats, Cleaner};
use swarm_log::ReplayEntry;
use swarm_log::{Log, LogStats};
use swarm_services::{Service, ServiceStack};
use swarm_types::{BlockAddr, Result, ServiceId, SwarmError};

use crate::cluster::{Cluster, StoreTotals, KILLED_SERVER};
use crate::gen::{create_record, fill_value, parse_create, Rng64, Zipfian};
use crate::latency::Recorder;
use crate::trace::{Kind, OpInfo, Span, Tracer, CACHE_HIT, RECONSTRUCTED, SEALED};

/// Service id the benchmark's blocks belong to.
pub const SVC: ServiceId = ServiceId::new(7);
/// User block size.
pub const BLOCK: usize = 4096;
/// Client logs, one closed-loop driver thread each.
pub const CLIENTS: u32 = 2;
/// Longest scan, in consecutive keys.
pub const MAX_SCAN: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Mixed,
    ScanDegraded,
}

/// The fixed shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Keys preloaded per client before the timed phase.
    pub preload_keys: u64,
    /// Flush after this many operations (ingest: one full stripe).
    pub flush_every: u64,
    /// Run an inline cleaner pass after this many operations (0: never).
    pub clean_every: u64,
    /// Cleaner passes per client and run. A pass rescans the whole log,
    /// so its cost grows with the log: an open-ended number of passes in
    /// a timed run would make the measured work depend on the speed.
    pub clean_passes: u64,
    /// Stripes one cleaner pass may reclaim.
    pub clean_stripes: usize,
    /// Times the cluster is set up per run; `setup_s` is their median.
    pub setups: usize,
    /// Equal slices the timed phase is cut into; the end-to-end figures
    /// are medians over them, so a burst of outside load that lasts a few
    /// seconds does not move them.
    pub windows: usize,
    /// The percentile `op_tail_us` reports.
    pub tail: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Mixed, Workload::ScanDegraded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::ScanDegraded => "scan_degraded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Ingest => Shape {
                preload_keys: 0,
                flush_every: 0,
                clean_every: 0,
                clean_passes: 0,
                clean_stripes: 0,
                setups: 11,
                windows: 10,
                tail: 0.999,
            },
            // 2 × 1024 keys × 4 KiB = 8 MiB: under a quarter of the
            // servers' 160 MiB of read cache. A flush every 512 ops still
            // ships padded partial stripes; at one per 64 ops the run was
            // bound by flush latency and its rate moved by a quarter with
            // the machine's load (README.md).
            Workload::Mixed => Shape {
                preload_keys: 1024,
                flush_every: 512,
                clean_every: 4096,
                clean_passes: 3,
                clean_stripes: 8,
                setups: 7,
                windows: 10,
                tail: 0.99,
            },
            // 2 × 82000 keys × 4 KiB = 641 MiB: over 4× the servers'
            // 160 MiB of read cache, and 320 MiB per client is far over 4×
            // each client's 16 MiB cache.
            Workload::ScanDegraded => Shape {
                preload_keys: 82_000,
                flush_every: 0,
                clean_every: 0,
                clean_passes: 0,
                clean_stripes: 0,
                setups: 3,
                windows: 5,
                tail: 0.99,
            },
        }
    }

    /// The operation `op_p50_us` and `op_tail_us` time.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::Ingest => "append",
            Workload::Mixed => "read",
            Workload::ScanDegraded => "scan",
        }
    }
}

/// Blocks that fill one fragment exactly (creation record included).
pub fn blocks_per_fragment(log: &Log) -> u64 {
    let entry = 11 + create_record(0, 0).len() + BLOCK;
    ((log.max_block_size() + 11) / entry) as u64
}

/// Which key each block holds and at which version.
#[derive(Default)]
pub struct KeyTable {
    /// Durable version of each key: what a read must return.
    pub live: Vec<(BlockAddr, u32)>,
    /// Newest appended version (ahead of `live` until the next flush).
    pub current: Vec<(BlockAddr, u32)>,
}

/// The benchmark's own service: follows blocks the cleaner moves.
struct KeyOwner {
    table: Arc<Mutex<KeyTable>>,
}

impl Service for KeyOwner {
    fn id(&self) -> ServiceId {
        SVC
    }

    fn name(&self) -> &str {
        "perfbench-keys"
    }

    fn restore_checkpoint(&mut self, _data: &[u8]) -> Result<()> {
        Ok(())
    }

    fn replay(&mut self, _entry: &ReplayEntry) -> Result<()> {
        Ok(())
    }

    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        let (key, version) =
            parse_create(create).ok_or_else(|| SwarmError::invalid("foreign creation record"))?;
        let mut table = self.table.lock();
        let key = key as usize;
        // A move of a superseded version is a no-op, as in the repo's own
        // services: the cleaner can see a dead block as live once the
        // stripe holding its delete record has been reclaimed.
        if table.live.get(key) == Some(&(old, version)) {
            table.live[key].0 = new;
            if table.current[key] == (old, version) {
                table.current[key].0 = new;
            }
        }
        Ok(())
    }

    fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
        log.checkpoint(SVC, b"perfbench").map(|_| ())
    }
}

/// One client's state between setup and the timed phase.
struct Client {
    id: u32,
    log: Arc<Log>,
    table: Arc<Mutex<KeyTable>>,
    cleaner: Option<Cleaner>,
}

/// One slice of the timed phase, by completion time.
#[derive(Default, Clone)]
pub struct Window {
    /// User operations completed.
    pub ops: u64,
    /// User bytes made durable or read.
    pub bytes: u64,
    /// Latency of the workload's own operation.
    pub op: Recorder,
}

/// What one client did in the timed phase.
#[derive(Default)]
pub struct ClientRun {
    /// Calls into the system: user operations, flushes, cleaner passes.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// User operations that succeeded (appends, reads, updates, scans).
    pub ops: u64,
    pub elapsed: Duration,
    pub append: Recorder,
    pub flush: Recorder,
    pub read: Recorder,
    pub scan: Recorder,
    /// User bytes acknowledged by a flush: everything appended before the
    /// last successful one.
    pub durable_bytes: u64,
    /// User bytes returned by reads and scans.
    pub read_bytes: u64,
    /// User bytes appended.
    pub appended_bytes: u64,
    pub stats_before: LogStats,
    pub stats_after: LogStats,
    pub cleaned: CleanStats,
    /// Byte mismatches seen in timed reads and in the final read-back.
    pub mismatches: Vec<String>,
    /// Keys read back after the timed phase.
    pub verified: u64,
    /// The first few errors, for diagnosis.
    pub errors: Vec<String>,
    /// The timed phase in `Shape::windows` slices; work completing after
    /// `--seconds` falls in none.
    pub windows: Vec<Window>,
    start: Option<Instant>,
    window_len: Duration,
}

impl ClientRun {
    fn window(&mut self) -> Option<&mut Window> {
        let at = self.start?.elapsed().as_nanos() / self.window_len.as_nanos().max(1);
        self.windows.get_mut(usize::try_from(at).ok()?)
    }

    /// Counts one user operation that moved `bytes` user bytes; `latency`
    /// is given when it is the workload's own operation.
    fn count_op(&mut self, bytes: u64, latency: Option<Duration>) {
        self.ops += 1;
        if let Some(w) = self.window() {
            w.ops += 1;
            w.bytes += bytes;
            if let Some(l) = latency {
                w.op.record(l);
            }
        }
    }

    /// Operations per second over this client's own timed phase.
    pub fn rate(&self, count: u64) -> f64 {
        count as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn fail(&mut self, what: &str, e: &SwarmError) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// One measured phase: set up, run closed loops, read everything back.
pub struct PhaseRun {
    pub clients: Vec<ClientRun>,
    /// The nominal length of the timed phase.
    pub seconds: f64,
    pub setup_s: Vec<f64>,
    pub elapsed: Duration,
    pub store_before: StoreTotals,
    pub store_after: StoreTotals,
    pub counters_before: swarm_metrics::Snapshot,
    pub counters_after: swarm_metrics::Snapshot,
    pub spans: Vec<Span>,
    pub fast_path: (u64, u64),
}

impl PhaseRun {
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn mismatches(&self) -> Vec<String> {
        self.clients
            .iter()
            .flat_map(|c| c.mismatches.iter().cloned())
            .collect()
    }

    /// Every client's recorder for one operation, merged.
    pub fn merged(&self, pick: impl Fn(&ClientRun) -> &Recorder) -> Recorder {
        let mut all = Recorder::new();
        for c in &self.clients {
            all.merge(pick(c));
        }
        all
    }
}

/// Runs `f` as traced operation `kind` when tracing, flagging what the
/// log's own counters say it did.
fn traced<T>(
    tracer: Option<&Tracer>,
    log: &Log,
    client: u32,
    kind: Kind,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(t) = tracer else {
        return f();
    };
    t.op(kind, client, || {
        let before = log.stats();
        let out = f();
        let after = log.stats();
        let mut info = OpInfo {
            flags: 0,
            blocks: (after.reads - before.reads) as u32,
            hits: (after.cache_hits - before.cache_hits) as u32,
        };
        if after.data_fragments > before.data_fragments {
            info.flags |= SEALED;
        }
        if after.reconstructions > before.reconstructions {
            info.flags |= RECONSTRUCTED;
        }
        if info.blocks > 0 && info.hits == info.blocks {
            info.flags |= CACHE_HIT;
        }
        (out, info)
    })
}

/// Sets up a cluster and its clients, preloads, and kills a server when
/// the workload asks for it.
fn set_up(
    workload: Workload,
    seed: u64,
    root: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Cluster, Vec<Client>)> {
    let shape = workload.shape();
    let mut cluster = Cluster::spawn(root, tracer)?;
    let clients: Vec<Result<Client>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CLIENTS)
            .map(|id| {
                let cluster = &cluster;
                s.spawn(move || -> Result<Client> {
                    let log = Arc::new(cluster.client_log(id)?);
                    let table = Arc::new(Mutex::new(KeyTable::default()));
                    let mut buf = vec![0u8; BLOCK];
                    for key in 0..shape.preload_keys {
                        fill_value(&mut buf, seed, id, key, 0);
                        let addr = log.append_block(SVC, &create_record(key, 0), &buf)?;
                        let mut t = table.lock();
                        t.live.push((addr, 0));
                        t.current.push((addr, 0));
                    }
                    log.flush()?;
                    let cleaner = (shape.clean_every > 0).then(|| {
                        let mut stack = ServiceStack::new();
                        stack
                            .register(Arc::new(Mutex::new(KeyOwner {
                                table: table.clone(),
                            })))
                            .expect("one service per stack");
                        Cleaner::new(log.clone(), Arc::new(stack), CleanPolicy::CostBenefit)
                    });
                    Ok(Client {
                        id,
                        log,
                        table,
                        cleaner,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    let clients = clients.into_iter().collect::<Result<Vec<_>>>()?;
    if workload == Workload::ScanDegraded {
        cluster.kill(KILLED_SERVER);
    }
    Ok((cluster, clients))
}

/// Runs one phase of `workload`: `shape.setups` set-ups (the last one is
/// measured), `seconds` of closed loops, then a read-back of every key.
pub fn run_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    root: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<PhaseRun> {
    let shape = workload.shape();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..shape.setups {
        let t0 = Instant::now();
        let (cluster, clients) =
            set_up(workload, seed, &root.join(format!("c{i}")), tracer.clone())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == shape.setups {
            kept = Some((cluster, clients));
        } else {
            // Clients go before their servers.
            drop(clients);
            drop(cluster);
        }
    }
    let (cluster, clients) = kept.expect("at least one set-up");

    let start = Barrier::new(CLIENTS as usize + 1);
    let end = Barrier::new(CLIENTS as usize + 1);
    let resume = Barrier::new(CLIENTS as usize + 1);
    let mut store_before = StoreTotals::default();
    let mut store_after = StoreTotals::default();
    let mut counters_before = swarm_metrics::Snapshot::default();
    let mut counters_after = swarm_metrics::Snapshot::default();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let (start, end, resume) = (&start, &end, &resume);
                let tracer = tracer.as_deref();
                s.spawn(move || drive(workload, &client, seed, seconds, tracer, start, end, resume))
            })
            .collect();
        store_before = cluster.store_totals();
        counters_before = swarm_metrics::snapshot();
        if let Some(t) = &tracer {
            t.arm(true);
        }
        start.wait();
        end.wait();
        if let Some(t) = &tracer {
            t.arm(false);
        }
        store_after = cluster.store_totals();
        counters_after = swarm_metrics::snapshot();
        resume.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    drop(cluster);
    let elapsed = runs.iter().map(|r| r.elapsed).max().unwrap_or_default();
    let (spans, fast_path) = match &tracer {
        Some(t) => (t.take_spans(), t.fast_path()),
        None => (Vec::new(), (0, 0)),
    };
    Ok(PhaseRun {
        clients: runs,
        seconds,
        setup_s,
        elapsed,
        store_before,
        store_after,
        counters_before,
        counters_after,
        spans,
        fast_path,
    })
}

/// One client's closed loop, then its read-back.
#[allow(clippy::too_many_arguments)]
fn drive(
    workload: Workload,
    client: &Client,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    start: &Barrier,
    end: &Barrier,
    resume: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    let log = &*client.log;
    let id = client.id;
    let mut rng = Rng64::new(seed ^ (u64::from(id) << 48));
    let mut buf = vec![0u8; BLOCK];
    let mut expect = vec![0u8; BLOCK];
    let shape = workload.shape();
    // Ingest's keys: every appended block, in order, at version 0.
    let mut appended: Vec<BlockAddr> = Vec::new();
    // Mixed: keys updated since the last flush.
    let mut staged: Vec<usize> = Vec::new();

    start.wait();
    run.stats_before = log.stats();
    run.windows = vec![Window::default(); shape.windows];
    run.window_len = Duration::from_secs_f64(seconds / shape.windows as f64);
    run.start = Some(Instant::now());
    // A client stops at its first operation boundary after the deadline;
    // the operation under way then (a flush, a cleaner pass) completes
    // and counts, and the phase is timed to its end.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    match workload {
        Workload::Ingest => {
            let per_stripe = blocks_per_fragment(log) * u64::from(log.group().data_width());
            while Instant::now() < deadline {
                for _ in 0..per_stripe {
                    let key = appended.len() as u64;
                    fill_value(&mut buf, seed, id, key, 0);
                    if let Some(addr) = append(client, tracer, &mut run, key, 0, &buf, true) {
                        appended.push(addr);
                    }
                }
                flush(client, tracer, &mut run);
            }
        }
        Workload::Mixed => {
            let zipf = Zipfian::new(shape.preload_keys);
            let mut ops = 0u64;
            while Instant::now() < deadline {
                let key = zipf.next_key(&mut rng);
                if rng.below(100) < 50 {
                    let (addr, version) = client.table.lock().live[key as usize];
                    run.attempted += 1;
                    let t = Instant::now();
                    match traced(tracer, log, id, Kind::Read, || log.read(addr)) {
                        Ok(got) => {
                            let latency = t.elapsed();
                            run.read.record(latency);
                            run.read_bytes += got.len() as u64;
                            run.count_op(got.len() as u64, Some(latency));
                            check_block(&got, &mut expect, seed, id, key, version, &mut run);
                        }
                        Err(e) => {
                            run.read.record_failure();
                            run.fail("read", &e);
                        }
                    }
                } else {
                    let (old, version) = client.table.lock().current[key as usize];
                    fill_value(&mut buf, seed, id, key, version + 1);
                    let next = version + 1;
                    if let Some(addr) = append(client, tracer, &mut run, key, next, &buf, false) {
                        client.table.lock().current[key as usize] = (addr, next);
                        staged.push(key as usize);
                        // The superseded version is dead, so the cleaner
                        // may reclaim its stripe.
                        run.attempted += 1;
                        if let Err(e) = log.delete_block(SVC, old) {
                            run.fail("delete_block", &e);
                        }
                    }
                }
                ops += 1;
                if ops.is_multiple_of(shape.flush_every) {
                    flush_mixed(client, tracer, &mut run, &mut staged);
                    if ops.is_multiple_of(shape.clean_every)
                        && ops / shape.clean_every <= shape.clean_passes
                    {
                        clean(client, tracer, shape.clean_stripes, &mut run);
                    }
                }
            }
        }
        Workload::ScanDegraded => {
            let keys = shape.preload_keys;
            let addrs: Vec<BlockAddr> = client.table.lock().live.iter().map(|e| e.0).collect();
            while Instant::now() < deadline {
                let first = rng.below(keys);
                let last = (first + 1 + rng.below(MAX_SCAN)).min(keys);
                let span = &addrs[first as usize..last as usize];
                run.attempted += 1;
                let t = Instant::now();
                match traced(tracer, log, id, Kind::ReadMany, || log.read_many(span)) {
                    Ok(blocks) => {
                        let latency = t.elapsed();
                        let bytes = blocks.iter().map(|b| b.len() as u64).sum::<u64>();
                        run.scan.record(latency);
                        run.read_bytes += bytes;
                        run.count_op(bytes, Some(latency));
                        for (key, got) in (first..last).zip(&blocks) {
                            check_block(got, &mut expect, seed, id, key, 0, &mut run);
                        }
                    }
                    Err(e) => {
                        run.scan.record_failure();
                        run.fail("read_many", &e);
                    }
                }
            }
        }
    }
    run.elapsed = t0.elapsed();
    run.stats_after = log.stats();
    end.wait();
    resume.wait();
    read_back(
        workload,
        client,
        seed,
        appended,
        staged,
        &mut expect,
        &mut run,
    );
    run
}

/// Reads back every live key after the timed phase, blocks the cleaner
/// moved included, and compares each byte for byte.
fn read_back(
    workload: Workload,
    client: &Client,
    seed: u64,
    appended: Vec<BlockAddr>,
    mut staged: Vec<usize>,
    expect: &mut [u8],
    run: &mut ClientRun,
) {
    let log = &*client.log;
    let id = client.id;
    let keys: Vec<(u64, BlockAddr, u32)> = match workload {
        Workload::Ingest => {
            if log.flush().is_err() {
                run.mismatches
                    .push(format!("client {id}: final flush failed"));
            }
            appended
                .into_iter()
                .enumerate()
                .map(|(k, a)| (k as u64, a, 0))
                .collect()
        }
        Workload::Mixed | Workload::ScanDegraded => {
            if workload == Workload::Mixed
                && !flush_mixed(client, None, &mut ClientRun::default(), &mut staged)
            {
                run.mismatches
                    .push(format!("client {id}: final flush failed"));
            }
            let table = client.table.lock();
            table
                .live
                .iter()
                .enumerate()
                .map(|(k, &(a, v))| (k as u64, a, v))
                .collect()
        }
    };
    for chunk in keys.chunks(4096) {
        let addrs: Vec<BlockAddr> = chunk.iter().map(|k| k.1).collect();
        match log.read_many(&addrs) {
            Ok(blocks) => {
                for (&(key, _, version), got) in chunk.iter().zip(&blocks) {
                    check_block(got, expect, seed, id, key, version, run);
                }
                run.verified += chunk.len() as u64;
            }
            Err(e) => run
                .mismatches
                .push(format!("client {id}: read-back failed: {e}")),
        }
    }
}

fn check_block(
    got: &[u8],
    expect: &mut [u8],
    seed: u64,
    client: u32,
    key: u64,
    version: u32,
    run: &mut ClientRun,
) {
    fill_value(expect, seed, client, key, version);
    if got != expect {
        run.mismatches.push(format!(
            "client {client} key {key} v{version}: {} bytes read differ from the generated value",
            got.len()
        ));
    }
}

/// Appends one user block; `None` if the append failed. `timed` says
/// whether appends are the workload's own operation.
fn append(
    client: &Client,
    tracer: Option<&Tracer>,
    run: &mut ClientRun,
    key: u64,
    version: u32,
    value: &[u8],
    timed: bool,
) -> Option<BlockAddr> {
    let log = &*client.log;
    run.attempted += 1;
    let t = Instant::now();
    match traced(tracer, log, client.id, Kind::Append, || {
        log.append_block(SVC, &create_record(key, version), value)
    }) {
        Ok(addr) => {
            let latency = t.elapsed();
            run.append.record(latency);
            run.appended_bytes += value.len() as u64;
            run.count_op(0, timed.then_some(latency));
            Some(addr)
        }
        Err(e) => {
            run.append.record_failure();
            run.fail("append_block", &e);
            None
        }
    }
}

/// Flushes the client's log; whether it succeeded.
fn flush(client: &Client, tracer: Option<&Tracer>, run: &mut ClientRun) -> bool {
    let log = &*client.log;
    run.attempted += 1;
    let t = Instant::now();
    match traced(tracer, log, client.id, Kind::Flush, || log.flush()) {
        Ok(()) => {
            run.flush.record(t.elapsed());
            let newly = run.appended_bytes - run.durable_bytes;
            run.durable_bytes = run.appended_bytes;
            if let Some(w) = run.window() {
                w.bytes += newly;
            }
            true
        }
        Err(e) => {
            run.flush.record_failure();
            run.fail("flush", &e);
            false
        }
    }
}

/// Flushes a mixed-workload client and makes its staged versions live.
fn flush_mixed(
    client: &Client,
    tracer: Option<&Tracer>,
    run: &mut ClientRun,
    staged: &mut Vec<usize>,
) -> bool {
    if !flush(client, tracer, run) {
        return false;
    }
    let mut table = client.table.lock();
    for key in staged.drain(..) {
        table.live[key] = table.current[key];
    }
    true
}

/// One inline cleaner pass on the driver thread.
fn clean(client: &Client, tracer: Option<&Tracer>, stripes: usize, run: &mut ClientRun) {
    let Some(cleaner) = &client.cleaner else {
        return;
    };
    run.attempted += 1;
    match traced(tracer, &client.log, client.id, Kind::CleanerPass, || {
        cleaner.clean_pass(stripes)
    }) {
        Ok(stats) => {
            run.cleaned.stripes_cleaned += stats.stripes_cleaned;
            run.cleaned.blocks_moved += stats.blocks_moved;
            run.cleaned.bytes_moved += stats.bytes_moved;
            run.cleaned.bytes_reclaimed += stats.bytes_reclaimed;
            run.cleaned.forced_checkpoints += stats.forced_checkpoints;
        }
        Err(e) => run.fail("clean_pass", &e),
    }
}
