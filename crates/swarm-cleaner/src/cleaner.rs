//! The cleaner proper: victim selection, block relocation, stripe
//! reclamation (§2.1.4).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_log::{Log, LogPosition};
use swarm_services::ServiceStack;
use swarm_types::{FragmentId, Result, ServiceId};

use crate::policy::CleanPolicy;
use crate::usage::{StripeUsage, UsageTable};

struct CleanerMetrics {
    passes: swarm_metrics::Counter,
    stripes_cleaned: swarm_metrics::Counter,
    blocks_moved: swarm_metrics::Counter,
    bytes_reclaimed: swarm_metrics::Counter,
    forced_checkpoints: swarm_metrics::Counter,
    pass_us: swarm_metrics::Histogram,
    select_us: swarm_metrics::Histogram,
    budget_bytes: swarm_metrics::Counter,
    budget_waits: swarm_metrics::Counter,
    budget_wait_us: swarm_metrics::Histogram,
}

fn metrics() -> &'static CleanerMetrics {
    static M: std::sync::OnceLock<CleanerMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| CleanerMetrics {
        passes: swarm_metrics::counter("cleaner.passes"),
        stripes_cleaned: swarm_metrics::counter("cleaner.stripes_cleaned"),
        blocks_moved: swarm_metrics::counter("cleaner.blocks_moved"),
        bytes_reclaimed: swarm_metrics::counter("cleaner.bytes_reclaimed"),
        forced_checkpoints: swarm_metrics::counter("cleaner.forced_checkpoints"),
        pass_us: swarm_metrics::histogram("cleaner.pass_us"),
        select_us: swarm_metrics::histogram("cleaner.select_us"),
        budget_bytes: swarm_metrics::counter("cleaner.budget_bytes"),
        budget_waits: swarm_metrics::counter("cleaner.budget_waits"),
        budget_wait_us: swarm_metrics::histogram("cleaner.budget_wait_us"),
    })
}

/// Tuning for a [`Cleaner`].
#[derive(Debug, Clone)]
pub struct CleanerConfig {
    /// Victim-selection policy.
    pub policy: CleanPolicy,
    /// Cap on the cleaner's I/O rate — bytes read plus bytes re-appended
    /// while relocating live blocks — token-bucket paced. Reclamation
    /// shares servers (and the client's connection pool) with foreground
    /// writes; unpaced, a big clean pass can monopolize both. `None`
    /// leaves the cleaner unpaced.
    pub budget_bytes_per_sec: Option<u64>,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            policy: CleanPolicy::CostBenefit,
            budget_bytes_per_sec: None,
        }
    }
}

/// Debt-model token bucket: `consume` waits until the balance is
/// non-negative, then takes the whole charge at once (going negative).
/// A single block larger than one second of budget therefore never
/// deadlocks — it just puts the bucket in debt that later charges pay
/// down — and the long-run rate converges on `rate` bytes/sec.
struct TokenBucket {
    rate: u64,
    state: Mutex<BucketState>,
}

struct BucketState {
    /// Byte balance; negative = debt from a prior oversized charge.
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: u64) -> TokenBucket {
        TokenBucket {
            rate: rate.max(1),
            state: Mutex::new(BucketState {
                tokens: 0.0,
                last: Instant::now(),
            }),
        }
    }

    /// Blocks until the budget allows `bytes` more of cleaner I/O.
    fn consume(&self, bytes: u64) {
        let m = metrics();
        m.budget_bytes.add(bytes);
        let mut waited: Option<Instant> = None;
        loop {
            let wait = {
                let mut st = self.state.lock();
                let now = Instant::now();
                let refill = now.duration_since(st.last).as_secs_f64() * self.rate as f64;
                // Credit never accumulates past one second of budget: an
                // idle cleaner must not bank a burst.
                st.tokens = (st.tokens + refill).min(self.rate as f64);
                st.last = now;
                if st.tokens >= 0.0 {
                    st.tokens -= bytes as f64;
                    break;
                }
                Duration::from_secs_f64(-st.tokens / self.rate as f64)
            };
            if waited.is_none() {
                m.budget_waits.inc();
                waited = Some(Instant::now());
            }
            // Sleep in bounded steps so a large debt stays interruptible
            // by the clock (oversleep would under-run the budget, not
            // break it).
            std::thread::sleep(wait.min(Duration::from_millis(100)));
        }
        if let Some(started) = waited {
            m.budget_wait_us.record(started.elapsed());
        }
    }
}

/// What one cleaning pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Stripes reclaimed.
    pub stripes_cleaned: u64,
    /// Live blocks re-appended.
    pub blocks_moved: u64,
    /// Payload bytes re-appended.
    pub bytes_moved: u64,
    /// Fragment bytes deleted from servers.
    pub bytes_reclaimed: u64,
    /// Demand checkpoints issued because nothing was cleanable.
    pub forced_checkpoints: u64,
}

/// The log cleaner service.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use swarm_cleaner::{CleanPolicy, Cleaner};
///
/// # fn parts() -> (Arc<swarm_log::Log>, Arc<swarm_services::ServiceStack>) { unimplemented!() }
/// let (log, stack) = parts();
/// let cleaner = Cleaner::new(log, stack, CleanPolicy::CostBenefit);
/// let stats = cleaner.clean_pass(4)?;
/// println!("reclaimed {} stripes", stats.stripes_cleaned);
/// # Ok::<(), swarm_types::SwarmError>(())
/// ```
pub struct Cleaner {
    log: Arc<Log>,
    stack: Arc<ServiceStack>,
    policy: CleanPolicy,
    budget: Option<TokenBucket>,
    /// Stripes already reclaimed (first sequence numbers), so rescans can
    /// skip them cheaply.
    cleaned: Mutex<HashSet<u64>>,
}

impl std::fmt::Debug for Cleaner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cleaner")
            .field("policy", &self.policy)
            .field("cleaned_stripes", &self.cleaned.lock().len())
            .finish()
    }
}

impl Cleaner {
    /// Creates a cleaner over `log`, notifying services in `stack`.
    pub fn new(log: Arc<Log>, stack: Arc<ServiceStack>, policy: CleanPolicy) -> Cleaner {
        Cleaner::with_config(
            log,
            stack,
            CleanerConfig {
                policy,
                ..CleanerConfig::default()
            },
        )
    }

    /// Creates a cleaner with full tuning, including the optional
    /// throughput budget.
    pub fn with_config(log: Arc<Log>, stack: Arc<ServiceStack>, config: CleanerConfig) -> Cleaner {
        Cleaner {
            log,
            stack,
            policy: config.policy,
            budget: config.budget_bytes_per_sec.map(TokenBucket::new),
            cleaned: Mutex::new(HashSet::new()),
        }
    }

    /// Is `stripe` allowed to be cleaned right now?
    ///
    /// §2.1.4: "the cleaner therefore only cleans stripes whose records
    /// have been implicitly deleted by a more recent checkpoint". A stripe
    /// is blocked if any service has a record in it newer than that
    /// service's latest checkpoint, or if it contains any service's
    /// *latest* checkpoint (replay anchors there).
    fn blocked_by_records(&self, usage: &StripeUsage) -> bool {
        usage
            .record_services
            .iter()
            .any(|(service, newest_record)| {
                // The log layer's own records (checkpoint directories) never
                // gate cleaning: the newest one lives in the anchor fragment,
                // which `is_anchor` already protects; older ones are obsolete.
                if *service == ServiceId::LOG_LAYER {
                    return false;
                }
                match self.log.last_checkpoint(*service) {
                    None => true, // service never checkpointed
                    Some(ckpt) => ckpt <= *newest_record,
                }
            })
    }

    fn is_anchor(&self, usage: &StripeUsage) -> bool {
        usage
            .checkpoints
            .iter()
            .any(|(service, pos)| self.log.last_checkpoint(*service) == Some(*pos))
    }

    /// Is `stripe` entirely below the recovery anchor (the newest marked
    /// fragment)?
    ///
    /// Recovery's rollforward scan skips missing stripes *below* the
    /// anchor but treats a missing stripe at or beyond it as the end of
    /// the log. Reclaiming above the anchor would therefore truncate the
    /// next recovery at the freed stripe, silently dropping every
    /// acknowledged write beyond it. Stripes up there stay untouchable
    /// until a checkpoint advances the anchor past them.
    fn below_anchor(&self, usage: &StripeUsage, width: u8) -> bool {
        self.log
            .anchor_seq()
            .is_some_and(|a| usage.first_seq + width as u64 <= a)
    }

    /// Are the owning services of every live block in `stripe` running?
    /// Live blocks can only move if their owner is registered to receive
    /// the move notification (§2.1.4).
    fn owners_present(&self, usage: &StripeUsage) -> bool {
        usage
            .live_blocks
            .iter()
            .all(|lb| self.stack.contains(lb.service))
    }

    fn cleanable(&self, usage: &StripeUsage, table: &UsageTable) -> bool {
        self.owners_present(usage)
            && self.below_anchor(usage, table.width)
            && !self.blocked_by_records(usage)
            && !self.is_anchor(usage)
            && !table.pins_deleted_blocks(usage)
    }

    /// Runs one cleaning pass, reclaiming at most `max_stripes` stripes.
    ///
    /// If nothing is cleanable because services are sitting on stale
    /// checkpoints, demands checkpoints from every service and tries once
    /// more (the paper's countermeasure against services that starve the
    /// cleaner).
    ///
    /// # Errors
    ///
    /// Propagates log read/append/flush failures. On error the pass stops;
    /// already-moved blocks remain valid (moves are idempotent from the
    /// services' perspective).
    pub fn clean_pass(&self, max_stripes: usize) -> Result<CleanStats> {
        let m = metrics();
        m.passes.inc();
        let _pass_span = m.pass_us.span("cleaner.pass");
        let mut stats = CleanStats::default();
        let mut attempt = 0;
        loop {
            let select_span = m.select_us.span("cleaner.select");
            let cleaned_set: HashSet<u64> = self.cleaned.lock().clone();
            let table = UsageTable::scan(&self.log, 0, &cleaned_set)?;
            let newest = table.stripes.keys().next_back().copied().unwrap_or(0);
            let candidates: Vec<&StripeUsage> = table
                .stripes
                .values()
                // Never clean the stripe currently being appended to.
                .filter(|s| s.first_seq + table.width as u64 <= self.log.next_seq())
                .filter(|s| self.cleanable(s, &table))
                .collect();
            drop(select_span);
            if candidates.is_empty() {
                // Force checkpoints when a stripe is held hostage by
                // stale records (the paper's starvation countermeasure)
                // or is only waiting for the anchor to advance past it —
                // but not when the only blocked stripe is the live
                // checkpoint anchor (forcing there would churn a fresh
                // anchor stripe every pass).
                let starved = table.stripes.values().any(|s| {
                    if self.blocked_by_records(s) {
                        return true;
                    }
                    let complete = s.first_seq + table.width as u64 <= self.log.next_seq();
                    complete
                        && self.owners_present(s)
                        && !self.is_anchor(s)
                        && !self.below_anchor(s, table.width)
                });
                if attempt == 0 && starved {
                    swarm_metrics::trace!("cleaner", "no cleanable stripes; forcing checkpoints");
                    self.stack.checkpoint_all(&self.log)?;
                    stats.forced_checkpoints += 1;
                    m.forced_checkpoints.inc();
                    attempt += 1;
                    continue;
                }
                return Ok(stats);
            }
            let victims = self.policy.rank(candidates, newest);
            for victim in victims.into_iter().take(max_stripes) {
                self.clean_stripe(victim, table.width, &mut stats)?;
            }
            return Ok(stats);
        }
    }

    fn clean_stripe(&self, usage: &StripeUsage, width: u8, stats: &mut CleanStats) -> Result<()> {
        // 1. Move live blocks: read old copy, append under the owning
        //    service with the original creation record, notify the
        //    service (old addr, new addr, creation record — §2.1.4).
        for lb in &usage.live_blocks {
            // Each relocation reads the block once and writes it once;
            // charge both against the budget *before* issuing the I/O so
            // foreground traffic sees the pause, not the burst.
            if let Some(bucket) = &self.budget {
                bucket.consume(2 * u64::from(lb.addr.len));
            }
            let data = self.log.read(lb.addr)?;
            let new_addr = self.log.append_block(lb.service, &lb.create, &data)?;
            stats.blocks_moved += 1;
            stats.bytes_moved += data.len() as u64;
            metrics().blocks_moved.inc();
            self.stack
                .notify_block_moved(lb.service, lb.addr, new_addr, &lb.create)?;
        }
        // 2. Make the moved copies durable before destroying the originals.
        self.log.flush()?;
        // 3. Delete every member fragment of the stripe.
        for i in 0..width {
            let fid = FragmentId::new(self.log.client(), usage.first_seq + i as u64);
            match self.log.delete_fragment(fid) {
                Ok(()) => {}
                // Already gone (e.g. torn-tail padding): fine.
                Err(swarm_types::SwarmError::FragmentNotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        stats.stripes_cleaned += 1;
        stats.bytes_reclaimed += usage.stored_bytes;
        let m = metrics();
        m.stripes_cleaned.inc();
        m.bytes_reclaimed.add(usage.stored_bytes);
        swarm_metrics::trace!(
            "cleaner",
            "reclaimed stripe at seq {} ({} bytes)",
            usage.first_seq,
            usage.stored_bytes
        );
        self.cleaned.lock().insert(usage.first_seq);
        Ok(())
    }

    /// Lowest first-sequence the cleaner has reclaimed (diagnostics).
    pub fn cleaned_stripes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.cleaned.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The cleaner's gating view for one service (diagnostics/tests).
    pub fn checkpoint_of(&self, service: ServiceId) -> Option<LogPosition> {
        self.log.last_checkpoint(service)
    }

    /// Spawns a background thread running [`Cleaner::clean_pass`] every
    /// `interval` ("a cleaner process that periodically traverses the
    /// log", §2.1.4). Returns a handle that stops the thread when
    /// dropped or when [`CleanerHandle::stop`] is called.
    pub fn spawn_periodic(
        self: Arc<Self>,
        interval: std::time::Duration,
        max_stripes_per_pass: usize,
    ) -> CleanerHandle {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let stats = Arc::new(Mutex::new(CleanStats::default()));
        let stats2 = stats.clone();
        let thread = std::thread::Builder::new()
            .name("swarm-cleaner".into())
            .spawn(move || {
                while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                    // Transient failures (a server rebooting) must not
                    // kill the cleaner; the next pass retries.
                    if let Ok(s) = self.clean_pass(max_stripes_per_pass) {
                        let mut total = stats2.lock();
                        total.stripes_cleaned += s.stripes_cleaned;
                        total.blocks_moved += s.blocks_moved;
                        total.bytes_moved += s.bytes_moved;
                        total.bytes_reclaimed += s.bytes_reclaimed;
                        total.forced_checkpoints += s.forced_checkpoints;
                    }
                    // Sleep in small steps so stop() is responsive.
                    let mut slept = std::time::Duration::ZERO;
                    while slept < interval && !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                        let step = std::time::Duration::from_millis(10).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("spawn cleaner thread");
        CleanerHandle {
            stop,
            stats,
            thread: Some(thread),
        }
    }
}

/// Handle to a background cleaner; stops it on drop.
pub struct CleanerHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    stats: Arc<Mutex<CleanStats>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for CleanerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanerHandle")
            .field("totals", &*self.stats.lock())
            .finish()
    }
}

impl CleanerHandle {
    /// Cumulative statistics across all passes so far.
    pub fn totals(&self) -> CleanStats {
        *self.stats.lock()
    }

    /// Stops the background thread and waits for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CleanerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use swarm_log::{Log, LogConfig, ReplayEntry};
    use swarm_net::{MemTransport, Request, RequestHandler, Response};
    use swarm_server::{FragmentStore, MemStore, StorageServer};
    use swarm_services::Service;
    use swarm_types::{BlockAddr, ClientId, ServerId, SwarmError};

    pub const SVC: ServiceId = ServiceId::new(1);

    /// A minimal block-owning service: tracks its blocks by creation tag.
    #[derive(Default)]
    pub struct BlockOwner {
        pub blocks: std::collections::HashMap<Vec<u8>, BlockAddr>,
        pub moves: u64,
        /// Creation tag of every move notification received, known or
        /// not.
        pub moved_tags: Vec<Vec<u8>>,
    }

    impl Service for BlockOwner {
        fn id(&self) -> ServiceId {
            SVC
        }
        fn name(&self) -> &str {
            "block-owner"
        }
        fn restore_checkpoint(&mut self, _data: &[u8]) -> Result<()> {
            Ok(())
        }
        fn replay(&mut self, _entry: &ReplayEntry) -> Result<()> {
            Ok(())
        }
        fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
            self.moved_tags.push(create.to_vec());
            match self.blocks.get_mut(create) {
                Some(addr) if *addr == old => {
                    *addr = new;
                    self.moves += 1;
                    Ok(())
                }
                _ => Err(SwarmError::invalid("unknown block moved")),
            }
        }
        fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
            log.checkpoint(SVC, b"owner-ckpt")?;
            Ok(())
        }
    }

    /// Forwards to a storage server, noting the fragment of every
    /// `Locate` it is asked.
    struct LocateLog {
        server: Arc<StorageServer<MemStore>>,
        locates: Arc<PMutex<Vec<FragmentId>>>,
    }

    impl RequestHandler for LocateLog {
        fn handle(&self, client: ClientId, request: Request) -> Response {
            if let Request::Locate { fid, .. } = &request {
                self.locates.lock().push(*fid);
            }
            self.server.handle(client, request)
        }
    }

    pub struct Fixture {
        pub log: Arc<Log>,
        pub stack: Arc<ServiceStack>,
        pub owner: Arc<PMutex<BlockOwner>>,
        pub servers: Vec<Arc<StorageServer<MemStore>>>,
        /// Fragments named by `Locate` requests, across all servers.
        pub locates: Arc<PMutex<Vec<FragmentId>>>,
    }

    pub fn fixture(n_servers: u32) -> Fixture {
        let transport = Arc::new(MemTransport::new());
        let mut servers = Vec::new();
        let locates = Arc::new(PMutex::new(Vec::new()));
        for i in 0..n_servers {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(
                ServerId::new(i),
                Arc::new(LocateLog {
                    server: srv.clone(),
                    locates: locates.clone(),
                }),
            );
            servers.push(srv);
        }
        let config = LogConfig::new(
            ClientId::new(1),
            (0..n_servers).map(ServerId::new).collect(),
        )
        .unwrap()
        .fragment_size(2048)
        .cache_fragments(0); // cleaner tests want real reads, no stale cache
        let log = Arc::new(Log::create(transport, config).unwrap());
        let owner: Arc<PMutex<BlockOwner>> = Arc::new(PMutex::new(BlockOwner::default()));
        let mut stack = ServiceStack::new();
        let owner_dyn: Arc<PMutex<dyn Service>> = owner.clone();
        stack.register(owner_dyn).unwrap();
        Fixture {
            log,
            stack: Arc::new(stack),
            owner,
            servers,
            locates,
        }
    }

    pub fn write_block(f: &Fixture, tag: &[u8], len: usize) -> BlockAddr {
        let addr = f.log.append_block(SVC, tag, &vec![tag[0]; len]).unwrap();
        f.owner.lock().blocks.insert(tag.to_vec(), addr);
        addr
    }

    pub fn total_fragments(f: &Fixture) -> u64 {
        f.servers.iter().map(|s| s.store().fragment_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use super::*;

    #[test]
    fn fully_dead_stripes_are_reclaimed_without_moves() {
        let f = fixture(3);
        let a = write_block(&f, b"a", 1500);
        let b = write_block(&f, b"b", 1500);
        f.log.flush().unwrap(); // stripe 0 holds only the two blocks
        f.log.delete_block(SVC, a).unwrap();
        f.log.delete_block(SVC, b).unwrap();
        f.log.checkpoint(SVC, b"ckpt").unwrap(); // stripe 1: deletes + anchor
        let before = total_fragments(&f);
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(16).unwrap();
        assert!(stats.stripes_cleaned >= 1, "{stats:?}");
        assert_eq!(stats.forced_checkpoints, 0, "{stats:?}");
        assert_eq!(f.owner.lock().moves, 0, "dead blocks are not moved");
        assert!(total_fragments(&f) < before);
    }

    #[test]
    fn live_blocks_are_moved_and_stay_readable() {
        let f = fixture(3);
        let tags: Vec<Vec<u8>> = (b'a'..=b'f').map(|c| vec![c]).collect();
        for t in &tags {
            write_block(&f, t, 1200);
        }
        f.log.checkpoint(SVC, b"ckpt").unwrap();
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(16).unwrap();
        assert!(stats.blocks_moved > 0, "{stats:?}");
        // Every block readable at its (possibly moved) address with the
        // right contents.
        for t in &tags {
            let addr = *f.owner.lock().blocks.get(t).unwrap();
            let data = f.log.read(addr).unwrap();
            assert_eq!(data, vec![t[0]; 1200], "tag {t:?}");
        }
    }

    #[test]
    fn token_bucket_first_charge_is_free_then_debt_paces_the_next() {
        let bucket = TokenBucket::new(100_000);
        let start = Instant::now();
        bucket.consume(30_000);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "first charge should ride the debt model, not wait: {:?}",
            start.elapsed()
        );
        // 30 000 bytes of debt at 100 000 B/s ≈ 300 ms before the next
        // charge may proceed.
        let start = Instant::now();
        bucket.consume(1);
        assert!(
            start.elapsed() >= Duration::from_millis(250),
            "debt from the first charge must pace the second: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn default_config_is_unpaced() {
        assert!(CleanerConfig::default().budget_bytes_per_sec.is_none());
    }

    #[test]
    fn budgeted_pass_paces_live_block_moves() {
        let f = fixture(3);
        for c in b'a'..=b'f' {
            write_block(&f, &[c], 1200);
        }
        f.log.checkpoint(SVC, b"ckpt").unwrap();
        // Each relocation charges 2 × 1200 bytes; at 48 000 B/s that is
        // ~50 ms of budget per moved block after the first.
        let cleaner = Cleaner::with_config(
            f.log.clone(),
            f.stack.clone(),
            CleanerConfig {
                policy: CleanPolicy::Greedy,
                budget_bytes_per_sec: Some(48_000),
            },
        );
        let waits_before = swarm_metrics::snapshot().counter("cleaner.budget_waits");
        let bytes_before = swarm_metrics::snapshot().counter("cleaner.budget_bytes");
        let start = Instant::now();
        let stats = cleaner.clean_pass(16).unwrap();
        let elapsed = start.elapsed();
        assert!(stats.blocks_moved >= 2, "{stats:?}");
        let floor = Duration::from_millis(40 * (stats.blocks_moved - 1));
        assert!(
            elapsed >= floor,
            "budget not enforced: {} moves took only {elapsed:?}",
            stats.blocks_moved
        );
        let snap = swarm_metrics::snapshot();
        assert!(
            snap.counter("cleaner.budget_waits") > waits_before,
            "cleaner.budget_waits never moved"
        );
        assert!(
            snap.counter("cleaner.budget_bytes") - bytes_before >= 2 * stats.bytes_moved,
            "cleaner.budget_bytes under-counted"
        );
    }

    #[test]
    fn cleaning_is_blocked_until_checkpoint_then_forced() {
        let f = fixture(3);
        let a = write_block(&f, b"a", 1500);
        f.log.delete_block(SVC, a).unwrap();
        f.log.flush().unwrap();
        // No checkpoint yet: pass must force one (via the stack), then
        // clean.
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(16).unwrap();
        assert_eq!(stats.forced_checkpoints, 1, "{stats:?}");
        assert!(stats.stripes_cleaned >= 1, "{stats:?}");
        assert!(f.log.last_checkpoint(SVC).is_some());
    }

    #[test]
    fn latest_checkpoint_stripe_is_never_cleaned() {
        let f = fixture(3);
        write_block(&f, b"a", 100);
        f.log.checkpoint(SVC, b"ckpt").unwrap();
        let ckpt_pos = f.log.last_checkpoint(SVC).unwrap();
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::CostBenefit);
        cleaner.clean_pass(16).unwrap();
        // The stripe containing the checkpoint must still exist.
        let width = f.log.group().width() as u64;
        let stripe_first = (ckpt_pos.seq / width) * width;
        assert!(
            !cleaner.cleaned_stripes().contains(&stripe_first),
            "checkpoint stripe {stripe_first} was cleaned"
        );
    }

    #[test]
    fn cleaned_space_is_reusable_for_new_stripes() {
        let f = fixture(3);
        // Fill, delete everything, checkpoint, clean.
        let mut addrs = Vec::new();
        for i in 0..20u8 {
            addrs.push(write_block(&f, &[i], 1200));
        }
        for (i, addr) in addrs.iter().enumerate() {
            f.log.delete_block(SVC, *addr).unwrap();
            f.owner.lock().blocks.remove(&vec![i as u8]);
        }
        f.log.checkpoint(SVC, b"ckpt").unwrap();
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(64).unwrap();
        assert!(stats.stripes_cleaned >= 5, "{stats:?}");
        assert!(stats.bytes_reclaimed > 20_000, "{stats:?}");
        // The log keeps working after cleaning.
        let addr = write_block(&f, b"z", 500);
        f.log.flush().unwrap();
        assert_eq!(f.log.read(addr).unwrap(), vec![b'z'; 500]);
    }

    #[test]
    fn stripes_with_orphaned_live_blocks_are_left_alone() {
        // A live block whose owning service is not registered cannot be
        // notified of a move — the cleaner must skip its stripe, not
        // abort the pass.
        let f = fixture(3);
        let orphan_svc = ServiceId::new(42);
        f.log
            .append_block(orphan_svc, b"tag", &[9u8; 1500])
            .unwrap();
        f.log.flush().unwrap(); // stripe 0: orphan's live block
        let a = write_block(&f, b"a", 1500);
        f.log.flush().unwrap(); // stripe 1: owned, soon dead
        f.log.delete_block(SVC, a).unwrap();
        f.log.checkpoint(SVC, b"ckpt").unwrap();

        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(16).unwrap();
        assert!(stats.stripes_cleaned >= 1, "{stats:?}");
        assert!(
            !cleaner.cleaned_stripes().contains(&0),
            "orphan stripe must survive: {:?}",
            cleaner.cleaned_stripes()
        );
        // The orphan's data is still there.
        let table = UsageTable::scan(&f.log, 0, &HashSet::new()).unwrap();
        assert!(table.stripes.get(&0).is_some_and(|s| s.live_bytes == 1500));
    }

    #[test]
    fn stripes_above_the_anchor_need_a_forced_checkpoint_first() {
        let f = fixture(3);
        // Anchor early: the checkpoint lands in stripe 0, so everything
        // written afterwards sits *above* the recovery anchor.
        f.log.checkpoint(SVC, b"early").unwrap();
        let anchor_before = f.log.anchor_seq().unwrap();
        // A stripe of pure blocks (no records), fully dead once both are
        // deleted. Without the anchor gate the cleaner would reclaim it
        // immediately — and the next recovery's rollforward scan would
        // stop at the hole, dropping everything past it.
        let a = write_block(&f, b"a", 1500);
        let b = write_block(&f, b"b", 1500);
        f.log.flush().unwrap();
        f.log.delete_block(SVC, a).unwrap();
        f.log.delete_block(SVC, b).unwrap();
        f.log.flush().unwrap();

        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let stats = cleaner.clean_pass(16).unwrap();
        // The dead stripe was held up only by the anchor: the pass must
        // advance the anchor (forced checkpoint) before reclaiming, and
        // must never reclaim a stripe at or above it.
        assert_eq!(stats.forced_checkpoints, 1, "{stats:?}");
        assert!(stats.stripes_cleaned >= 1, "{stats:?}");
        let anchor_after = f.log.anchor_seq().unwrap();
        assert!(anchor_after > anchor_before);
        let width = f.log.group().width() as u64;
        for s in cleaner.cleaned_stripes() {
            assert!(
                s + width <= anchor_after,
                "stripe {s} reclaimed at/above anchor {anchor_after}"
            );
        }
    }

    #[test]
    fn second_pass_skips_already_cleaned_stripes() {
        let f = fixture(3);
        let a = write_block(&f, b"a", 1500);
        f.log.flush().unwrap(); // stripe 0: just the block
        f.log.delete_block(SVC, a).unwrap();
        f.log.checkpoint(SVC, b"ckpt").unwrap(); // stripe 1: delete + anchor
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let s1 = cleaner.clean_pass(16).unwrap();
        let s2 = cleaner.clean_pass(16).unwrap();
        assert!(s1.stripes_cleaned >= 1);
        assert_eq!(
            s2.stripes_cleaned,
            0,
            "nothing new to clean: {s2:?} (cleaned: {:?})",
            cleaner.cleaned_stripes()
        );
    }

    #[test]
    fn deleted_block_is_not_moved_after_its_delete_stripe_is_reclaimed() {
        let f = fixture(3);
        let a = write_block(&f, b"a", 1500);
        write_block(&f, b"l", 1500);
        f.log.flush().unwrap(); // stripe 0: a (soon dead) and l (live)
        f.log.delete_block(SVC, a).unwrap();
        f.owner.lock().blocks.remove(b"a".as_slice());
        f.log.flush().unwrap(); // stripe 1: only the delete of a
        f.log.checkpoint(SVC, b"ckpt").unwrap(); // stripe 2: anchor

        // Greedy ranks the empty delete stripe first. Cleaning it before
        // stripe 0 would erase the only record that a is dead, and a
        // later pass would "move" a back to life.
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        let mut cleaned = 0;
        for _ in 0..4 {
            cleaned += cleaner.clean_pass(1).unwrap().stripes_cleaned;
        }
        assert!(
            cleaned >= 2,
            "both old stripes reclaimed: {:?}",
            cleaner.cleaned_stripes()
        );
        let owner = f.owner.lock();
        assert!(
            !owner.moved_tags.contains(&b"a".to_vec()),
            "deleted block moved: {:?}",
            owner.moved_tags
        );
        let l = owner.blocks[&b"l".to_vec()];
        assert_eq!(f.log.read(l).unwrap(), vec![b'l'; 1500]);
    }

    #[test]
    fn second_pass_sends_no_locate_for_reclaimed_fragments() {
        let f = fixture(3);
        let a = write_block(&f, b"a", 1500);
        let b = write_block(&f, b"b", 1500);
        f.log.flush().unwrap(); // stripe 0: both blocks, soon dead
        f.log.delete_block(SVC, a).unwrap();
        f.log.delete_block(SVC, b).unwrap();
        f.log.checkpoint(SVC, b"ckpt").unwrap(); // stripe 1: deletes + anchor
        let cleaner = Cleaner::new(f.log.clone(), f.stack.clone(), CleanPolicy::Greedy);
        assert_eq!(cleaner.clean_pass(16).unwrap().stripes_cleaned, 1);
        let width = f.log.group().width() as u64;
        let reclaimed: Vec<FragmentId> = cleaner
            .cleaned_stripes()
            .into_iter()
            .flat_map(|first| {
                (first..first + width).map(|seq| FragmentId::new(f.log.client(), seq))
            })
            .collect();
        f.locates.lock().clear();
        assert_eq!(cleaner.clean_pass(16).unwrap().stripes_cleaned, 0);
        let locates = f.locates.lock().clone();
        assert!(
            !locates.iter().any(|fid| reclaimed.contains(fid)),
            "second pass located reclaimed fragments: {locates:?}"
        );
    }
}

#[cfg(test)]
mod periodic_tests {
    use super::tests_support::*;
    use super::*;
    use swarm_types::ServiceId;

    const SVC: ServiceId = ServiceId::new(1);

    #[test]
    fn periodic_cleaner_reclaims_in_the_background() {
        let f = fixture(3);
        // Dead data + checkpoint, in separate stripes.
        let a = write_block(&f, b"a", 1500);
        f.log.flush().unwrap();
        f.log.delete_block(SVC, a).unwrap();
        f.log.checkpoint(SVC, b"ckpt").unwrap();

        let cleaner = Arc::new(Cleaner::new(
            f.log.clone(),
            f.stack.clone(),
            CleanPolicy::Greedy,
        ));
        let mut handle = cleaner.spawn_periodic(std::time::Duration::from_millis(5), 8);
        // Wait for the background thread to get there.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while handle.totals().stripes_cleaned == 0 {
            assert!(std::time::Instant::now() < deadline, "cleaner never ran");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
        assert!(handle.totals().stripes_cleaned >= 1);
        // Log still usable while/after background cleaning.
        let addr = write_block(&f, b"z", 400);
        f.log.flush().unwrap();
        assert_eq!(f.log.read(addr).unwrap(), vec![b'z'; 400]);
    }

    #[test]
    fn handle_stop_is_idempotent_and_drop_safe() {
        let f = fixture(3);
        let cleaner = Arc::new(Cleaner::new(
            f.log.clone(),
            f.stack.clone(),
            CleanPolicy::Greedy,
        ));
        let mut handle = cleaner.spawn_periodic(std::time::Duration::from_millis(50), 4);
        handle.stop();
        handle.stop();
        drop(handle);
    }
}
