//! Bounded worker pool for running request handlers.
//!
//! [`WorkerPool`] caps server-side concurrency at a fixed number of
//! eagerly spawned workers. The epoll reactor never runs a handler
//! itself: each decoded request becomes a job on an unbounded queue
//! (fronted by [`crate::admission::Admission`]) and waits for a free
//! worker. Requests execute truly concurrently up to the pool width —
//! which is what the sharded store and journal group commit in
//! `swarm-server` are built to exploit.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default number of workers when the caller does not specify one.
pub const DEFAULT_WORKERS: usize = 16;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-width pool of job-running threads.
///
/// Jobs are queued unbounded and executed FIFO by the first free worker.
/// [`WorkerPool::shutdown`] (or dropping the pool) closes the queue and
/// joins every worker once the jobs already queued have run.
pub struct WorkerPool {
    sender: parking_lot::RwLock<Option<Sender<Job>>>,
    workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    width: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.width)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1) named
    /// `{name}-{i}`.
    pub fn new(name: &str, workers: usize) -> WorkerPool {
        let width = workers.max(1);
        let (sender, receiver) = std::sync::mpsc::channel::<Job>();
        // std's Receiver is single-consumer; sharing it behind a mutex
        // gives the multi-consumer queue (a worker holds the lock only to
        // dequeue, never while running a job).
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..width)
            .map(|i| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: parking_lot::RwLock::new(Some(sender)),
            workers: parking_lot::Mutex::new(handles),
            width,
        }
    }

    /// Enqueues a job; the first free worker runs it. Returns `false` if
    /// the pool is already shut down (the job is dropped).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let job: Job = Box::new(job);
        let refused = match &*self.sender.read() {
            Some(s) => match s.send(job) {
                Ok(()) => return true,
                Err(e) => e.0,
            },
            None => job,
        };
        // Dropped outside the lock: a refused job's captures may submit
        // again from their destructors (the admission gate does).
        drop(refused);
        false
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Closes the queue and joins every worker after the jobs already
    /// queued have run; later [`WorkerPool::submit`]s are refused.
    ///
    /// Callers share the pool through `Arc`s that jobs may capture, so
    /// the last reference can drop on a worker. That worker is never
    /// joined (a thread cannot join itself); it exits when its current
    /// job returns.
    pub fn shutdown(&self) {
        drop(self.sender.write().take());
        let me = std::thread::current().id();
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the queue lock only across recv keeps dequeue FIFO and
        // lets other workers pull the next job while this one runs.
        let job = match receiver.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a worker panicked holding the lock
        };
        match job {
            Ok(job) => {
                // A panicking job must not kill the worker: on a width-N
                // pool, N poisoned connections would silently stop the
                // server accepting work forever. Contain the unwind, count
                // it, and move on to the next job.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    swarm_metrics::counter("net.workpool_panics").inc();
                    swarm_metrics::trace!("net.workpool", "job panicked; worker continues");
                }
            }
            Err(_) => return, // queue closed: pool shut down
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new("test-pool", 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = done.clone();
            assert!(pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins workers, so all jobs have run
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_beyond_width_queue_instead_of_spawning() {
        let pool = WorkerPool::new("test-queue", 2);
        assert_eq!(pool.width(), 2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let running = running.clone();
            let peak = peak.clone();
            pool.submit(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "ran {} jobs at once on a width-2 pool",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        // Width 1: if the panic killed the worker, no later job could run.
        let pool = WorkerPool::new("test-panic", 1);
        let panics_before = swarm_metrics::snapshot().counter("net.workpool_panics");
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let done = done.clone();
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("poisoned job {i}");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins the worker, so every job has been attempted
        assert_eq!(
            done.load(Ordering::SeqCst),
            3,
            "jobs after a panic must still run"
        );
        let panics_after = swarm_metrics::snapshot().counter("net.workpool_panics");
        assert_eq!(panics_after - panics_before, 3, "each panic is counted");
    }

    /// A pool whose last reference drops on one of its own workers
    /// detaches that worker instead of joining it (a self-join panics
    /// with a deadlock error inside the job).
    #[test]
    fn last_reference_dropped_on_a_worker_does_not_self_join() {
        let pool = Arc::new(WorkerPool::new("test-self-drop", 2));
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let held = pool.clone();
        pool.submit(move || {
            // Wait until the test thread has dropped its reference, so
            // this job's `held` is the last one.
            let _ = go_rx.recv();
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(held)));
            done_tx.send(dropped.is_ok()).unwrap();
        });
        let watch = Arc::downgrade(&pool);
        drop(pool);
        assert_eq!(watch.strong_count(), 1, "the job holds the last reference");
        go_tx.send(()).unwrap();
        let clean = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(clean, "dropping the pool on its own worker panicked");
        assert_eq!(watch.strong_count(), 0);
    }

    #[test]
    fn zero_width_is_clamped_to_one() {
        let pool = WorkerPool::new("test-clamp", 0);
        assert_eq!(pool.width(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
