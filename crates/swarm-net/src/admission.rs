//! Per-client fair admission in front of the worker pool.
//!
//! The worker pool itself is a plain FIFO: under saturation, one client
//! pipelining 64 stores per connection can monopolize every worker while a
//! light interactive client's single read waits behind the backlog. Swarm's
//! scalability story is per-client logs that never synchronize through the
//! servers — so the server must not let one log's traffic starve another's.
//!
//! [`Admission`] restores fairness with deficit round robin (DRR): while
//! workers are free, jobs are handed straight to the pool (FIFO, no
//! overhead); once every worker is busy, excess jobs queue *per client*,
//! and each completion admits the next job by visiting client queues round
//! robin, letting each spend a byte `deficit` that refills by `quantum`
//! per visit. Request cost is its frame size in bytes, so a client sending
//! large stores gets the same share of worker bytes as one sending many
//! small reads.
//!
//! Queues are bounded: when a saturated client's backlog reaches
//! [`AdmissionConfig::max_client_backlog`], *rejectable* jobs (stores —
//! the one request the writer retries with backoff) bounce with
//! [`swarm_types::SwarmError::Busy`] instead of queueing, surfacing
//! backpressure to the writer rather than buffering unboundedly.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use swarm_types::ClientId;

use crate::workpool::WorkerPool;

/// Tuning for [`Admission`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Deficit refill per DRR visit, in request-frame bytes. Larger values
    /// approach per-request round robin for small requests; the default
    /// (64 KiB) lets a client with one fragment-sized store through per
    /// visit.
    pub quantum: u64,
    /// Queued jobs a single client may hold while the pool is saturated
    /// before its rejectable requests (stores) bounce with `Busy`.
    pub max_client_backlog: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            quantum: 64 * 1024,
            max_client_backlog: 32,
        }
    }
}

/// What [`Admission::submit`] did with a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Handed straight to the worker pool (workers were free).
    Ran,
    /// Pool saturated: queued under the client's DRR queue.
    Queued,
    /// Pool saturated and the client's backlog full: the job was dropped.
    /// The caller answers the request with `Busy` pushback.
    Rejected,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct ClientQueue {
    deficit: u64,
    jobs: VecDeque<(u64, Job)>,
}

struct State {
    /// Jobs currently handed to the pool and not yet completed.
    running: usize,
    /// Total queued jobs across clients (mirrors the depth gauge).
    queued: usize,
    /// Clients with non-empty queues, in round-robin visit order.
    active: VecDeque<ClientId>,
    queues: HashMap<ClientId, ClientQueue>,
}

struct AdmissionMetrics {
    queue_depth: swarm_metrics::Gauge,
    throttled: swarm_metrics::Counter,
    drr_admits: swarm_metrics::Counter,
}

fn admission_metrics() -> &'static AdmissionMetrics {
    static M: std::sync::OnceLock<AdmissionMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| AdmissionMetrics {
        queue_depth: swarm_metrics::gauge("server.admission_queue_depth"),
        throttled: swarm_metrics::counter("server.client_throttled"),
        drr_admits: swarm_metrics::counter("server.drr_admits"),
    })
}

/// Deficit-round-robin admission gate in front of a [`WorkerPool`].
///
/// See the module docs for the discipline. One `Admission` fronts one
/// server's pool; the TCP server routes every per-request job through
/// it.
pub struct Admission {
    pool: Arc<WorkerPool>,
    cfg: AdmissionConfig,
    state: Mutex<State>,
}

impl Admission {
    /// Creates an admission gate feeding `pool`.
    pub fn new(pool: Arc<WorkerPool>, cfg: AdmissionConfig) -> Arc<Admission> {
        Arc::new(Admission {
            pool,
            cfg,
            state: Mutex::new(State {
                running: 0,
                queued: 0,
                active: VecDeque::new(),
                queues: HashMap::new(),
            }),
        })
    }

    /// Submits `job` on behalf of `client`. `cost` is the request's frame
    /// size in bytes (the DRR currency); `rejectable` marks requests the
    /// sender can retry on `Busy` pushback (stores).
    pub fn submit(
        self: &Arc<Self>,
        client: ClientId,
        cost: u64,
        rejectable: bool,
        job: impl FnOnce() + Send + 'static,
    ) -> Submitted {
        let mut st = self.state.lock();
        if st.running < self.pool.width() {
            st.running += 1;
            drop(st);
            self.dispatch(Box::new(job));
            return Submitted::Ran;
        }
        let backlog = st.queues.get(&client).map_or(0, |q| q.jobs.len());
        if rejectable && backlog >= self.cfg.max_client_backlog {
            admission_metrics().throttled.inc();
            return Submitted::Rejected;
        }
        let q = st.queues.entry(client).or_insert_with(|| ClientQueue {
            deficit: 0,
            jobs: VecDeque::new(),
        });
        let newly_active = q.jobs.is_empty();
        q.jobs.push_back((cost, Box::new(job)));
        if newly_active {
            st.active.push_back(client);
        }
        st.queued += 1;
        admission_metrics().queue_depth.set(st.queued as i64);
        Submitted::Queued
    }

    /// Total queued jobs right now (diagnostic).
    pub fn queued(&self) -> usize {
        self.state.lock().queued
    }

    fn dispatch(self: &Arc<Self>, job: Job) {
        let guard = CompleteGuard(Some(self.clone()));
        self.pool.submit(move || {
            // The guard admits the next job even if this one panics (the
            // pool's catch_unwind swallows the panic after our Drop ran);
            // without it a panicking handler would leak a worker slot.
            let _guard = guard;
            job();
        });
    }

    /// Runs after every job: admits the next queued job under DRR order,
    /// or releases the worker slot when nothing is waiting.
    fn on_complete(self: &Arc<Self>) {
        let next = {
            let mut st = self.state.lock();
            match Self::pop_drr(&mut st, self.cfg.quantum) {
                Some(job) => {
                    st.queued -= 1;
                    admission_metrics().queue_depth.set(st.queued as i64);
                    admission_metrics().drr_admits.inc();
                    Some(job)
                }
                None => {
                    st.running -= 1;
                    None
                }
            }
        };
        if let Some(job) = next {
            self.dispatch(job);
        }
    }

    /// Textbook DRR pop: visit the head-of-line client; if its deficit
    /// covers its front job's cost, admit the job (keeping the client at
    /// the front so it can spend the rest of its deficit); otherwise
    /// refill by `quantum` and rotate to the next client. An emptied queue
    /// is dropped, resetting its deficit — an idle client must not bank
    /// credit.
    fn pop_drr(st: &mut State, quantum: u64) -> Option<Job> {
        loop {
            let client = *st.active.front()?;
            let q = st
                .queues
                .get_mut(&client)
                .expect("active client has a queue");
            let cost = q.jobs.front().expect("active queue is non-empty").0;
            if cost <= q.deficit {
                q.deficit -= cost;
                let (_, job) = q.jobs.pop_front().expect("checked non-empty");
                if q.jobs.is_empty() {
                    st.queues.remove(&client);
                    st.active.pop_front();
                }
                return Some(job);
            }
            q.deficit += quantum;
            st.active.rotate_left(1);
        }
    }
}

/// Calls [`Admission::on_complete`] when dropped — including during the
/// unwind of a panicking job.
struct CompleteGuard(Option<Arc<Admission>>);

impl Drop for CompleteGuard {
    fn drop(&mut self) {
        if let Some(admission) = self.0.take() {
            admission.on_complete();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn gate(workers: usize, cfg: AdmissionConfig) -> Arc<Admission> {
        Admission::new(Arc::new(WorkerPool::new("admission-test", workers)), cfg)
    }

    /// Holds `n` workers busy until the returned sender drops.
    fn saturate(adm: &Arc<Admission>, n: usize) -> mpsc::Sender<()> {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Arc::new(Mutex::new(rx));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        for _ in 0..n {
            let rx = rx.clone();
            let started = started_tx.clone();
            let out = adm.submit(ClientId::new(0), 1, false, move || {
                started.send(()).unwrap();
                // Blocks until the main thread drops `tx`.
                let _ = rx.lock().recv();
            });
            assert_eq!(out, Submitted::Ran);
        }
        for _ in 0..n {
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("saturating job started");
        }
        tx
    }

    #[test]
    fn unsaturated_jobs_run_fifo() {
        let adm = gate(2, AdmissionConfig::default());
        let (tx, rx) = mpsc::channel();
        for i in 0..2 {
            let tx = tx.clone();
            assert_eq!(
                adm.submit(ClientId::new(i), 1, true, move || tx.send(i).unwrap()),
                Submitted::Ran
            );
        }
        let mut got = vec![
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn saturated_jobs_queue_and_drain() {
        let adm = gate(1, AdmissionConfig::default());
        let hold = saturate(&adm, 1);
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            assert_eq!(
                adm.submit(ClientId::new(i), 100, false, move || tx.send(i).unwrap()),
                Submitted::Queued
            );
        }
        assert_eq!(adm.queued(), 4);
        drop(hold);
        let mut got: Vec<u32> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // Queue fully drained once every job ran.
        for _ in 0..100 {
            if adm.queued() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("queue never drained: {}", adm.queued());
    }

    #[test]
    fn backlogged_client_bounces_rejectable_jobs_only() {
        let cfg = AdmissionConfig {
            max_client_backlog: 2,
            ..AdmissionConfig::default()
        };
        let adm = gate(1, cfg);
        let hold = saturate(&adm, 1);
        let heavy = ClientId::new(7);
        assert_eq!(adm.submit(heavy, 1, true, || {}), Submitted::Queued);
        assert_eq!(adm.submit(heavy, 1, true, || {}), Submitted::Queued);
        // Backlog full: rejectable (store) jobs bounce...
        assert_eq!(adm.submit(heavy, 1, true, || {}), Submitted::Rejected);
        // ...but non-rejectable (read) jobs still queue.
        assert_eq!(adm.submit(heavy, 1, false, || {}), Submitted::Queued);
        // Other clients are unaffected.
        assert_eq!(
            adm.submit(ClientId::new(8), 1, true, || {}),
            Submitted::Queued
        );
        drop(hold);
    }

    #[test]
    fn drr_interleaves_a_flood_with_a_trickle() {
        // One worker; client 1 floods 32 jobs, client 2 sends one. Under
        // FIFO the trickle would wait behind the whole flood; under DRR it
        // must be admitted within a couple of completions. Quantum equals
        // the per-job cost so each visit admits exactly one job.
        let adm = gate(
            1,
            AdmissionConfig {
                quantum: 1024,
                ..AdmissionConfig::default()
            },
        );
        let hold = saturate(&adm, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let order = order.clone();
            adm.submit(ClientId::new(1), 1024, false, move || {
                order.lock().push((1u32, i));
            });
        }
        {
            let order = order.clone();
            adm.submit(ClientId::new(2), 1024, false, move || {
                order.lock().push((2, 0));
            });
        }
        drop(hold);
        for _ in 0..500 {
            if order.lock().len() == 33 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let order = order.lock();
        assert_eq!(order.len(), 33, "all jobs ran");
        let trickle_pos = order.iter().position(|&(c, _)| c == 2).unwrap();
        assert!(
            trickle_pos <= 2,
            "trickle client served at position {trickle_pos}, FIFO would be 32"
        );
    }

    #[test]
    fn costs_weight_the_round_robin() {
        // Client 1 queues 4 large jobs, client 2 queues 8 small jobs whose
        // total cost matches one large job. Over the drain, client 2's
        // jobs must not all wait for client 1 to finish (byte-fair, not
        // request-fair).
        let cfg = AdmissionConfig {
            quantum: 64 * 1024,
            ..AdmissionConfig::default()
        };
        let adm = gate(1, cfg);
        let hold = saturate(&adm, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let order = order.clone();
            adm.submit(ClientId::new(1), 64 * 1024, false, move || {
                order.lock().push((1u32, i));
            });
        }
        for i in 0..8 {
            let order = order.clone();
            adm.submit(ClientId::new(2), 8 * 1024, false, move || {
                order.lock().push((2, i));
            });
        }
        drop(hold);
        for _ in 0..500 {
            if order.lock().len() == 12 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let order = order.lock();
        assert_eq!(order.len(), 12);
        // Within the first half of the drain both clients made progress.
        let first_half: Vec<u32> = order[..6].iter().map(|&(c, _)| c).collect();
        assert!(
            first_half.contains(&1) && first_half.contains(&2),
            "{:?}",
            *order
        );
    }

    #[test]
    fn panicking_job_releases_its_worker_slot() {
        let adm = gate(1, AdmissionConfig::default());
        let ran = Arc::new(AtomicUsize::new(0));
        adm.submit(ClientId::new(1), 1, false, || panic!("boom"));
        let ran2 = ran.clone();
        adm.submit(ClientId::new(1), 1, false, move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..500 {
            if ran.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job after a panic never ran — worker slot leaked");
    }
}
