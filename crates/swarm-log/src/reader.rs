//! The pipelined read engine — the read-side mirror of the write path's
//! [`crate::writer::WritePool`].
//!
//! The paper's prototype issued one synchronous `Read` RPC per fragment
//! access, so a scan of N blocks cost N round trips and the network sat
//! idle while the server seeked. [`ReadEngine`] closes that gap two ways:
//!
//! * **Windowing** — up to [`LogConfig::read_window`]
//!   (`crate::log::LogConfig`) read RPCs stay outstanding per server via
//!   [`Connection::start_prepared`]/[`PendingCall`], exactly the
//!   fill/harvest discipline the writer uses for stores. On a multiplexed
//!   transport the window rides one socket; synchronous transports complete
//!   each call inside `start_prepared`, so the window degrades to 1
//!   transparently (clamped by [`Connection::pipeline_width`]).
//! * **Batching** — runs of reads against one server collapse into
//!   [`Request::ReadBatch`] RPCs ([`BATCH_CHUNK`] fragments per call), so
//!   a scan or stripe fetch is a single round trip per server. Batch
//!   requests carry no payload, which routes them onto the mux's priority
//!   lane — reads overtake queued store payloads instead of waiting out a
//!   window of 1 MiB writes (the YCSB-B head-of-line fix).
//!
//! A transport-level failure mid-window poisons every sibling call on the
//! shared channel; each affected request is then replayed through
//! [`ConnectionPool::call`], which redials once — so a bounced connection
//! costs a retry, never a wrong result.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use swarm_net::proto::wire_error;
use swarm_net::{
    Connection, ConnectionPool, PendingCall, PreparedRequest, ReadSpec, Request, Response,
};
use swarm_types::{Bytes, FragmentId, Result, ServerId, SwarmError};

use crate::fragment::{parse_header, LOCATE_HEADER_LEN};

/// Outstanding read RPCs the engine keeps on the wire per server
/// (default; see `LogConfig::read_window`). 1 reproduces the paper's
/// serial read path.
pub const DEFAULT_READ_WINDOW: usize = 8;

/// Reads folded into one `ReadBatch` RPC. Bounded so a huge scan neither
/// builds an unbounded reply frame nor stalls the window behind one
/// mega-request.
pub const BATCH_CHUNK: usize = 16;

struct ReaderMetrics {
    /// Read RPCs currently on the wire across all servers (gauge).
    read_inflight: swarm_metrics::Gauge,
    /// Window occupancy sampled after each read is started (histogram
    /// over counts, not microseconds).
    window_occupancy: swarm_metrics::Histogram,
    read_rpc_us: swarm_metrics::Histogram,
    batches: swarm_metrics::Counter,
    batched_reads: swarm_metrics::Counter,
    retries: swarm_metrics::Counter,
}

fn metrics() -> &'static ReaderMetrics {
    static M: std::sync::OnceLock<ReaderMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ReaderMetrics {
        read_inflight: swarm_metrics::gauge("log.read_inflight"),
        window_occupancy: swarm_metrics::histogram("log.read_window_occupancy"),
        read_rpc_us: swarm_metrics::histogram("log.read_rpc_us"),
        batches: swarm_metrics::counter("log.read_batches"),
        batched_reads: swarm_metrics::counter("log.batched_reads"),
        retries: swarm_metrics::counter("log.read_retries"),
    })
}

/// Duplicates an error for fanning one whole-RPC failure out to every
/// read the RPC carried ([`SwarmError`] holds `io::Error` and cannot be
/// `Clone`). The unavailability variants — which the read path's
/// reconstruction fallback keys on — are rebuilt exactly; the rest
/// round-trip through the wire encoding, which keeps their category.
fn clone_error(e: &SwarmError) -> SwarmError {
    match e {
        SwarmError::ServerUnavailable(s) => SwarmError::ServerUnavailable(*s),
        SwarmError::Io(io) => SwarmError::Io(std::io::Error::new(io.kind(), io.to_string())),
        other => {
            let (code, datum, detail) = wire_error::to_wire(other);
            wire_error::from_wire(code, datum, detail)
        }
    }
}

/// A windowed, batching read front-end over a shared [`ConnectionPool`].
///
/// Cheap to clone (an `Arc` and a `usize`); the log, reconstruction,
/// prefetch, and recovery all drive their reads through one of these.
#[derive(Clone)]
pub struct ReadEngine {
    pool: Arc<ConnectionPool>,
    window: usize,
}

impl std::fmt::Debug for ReadEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadEngine")
            .field("window", &self.window)
            .finish()
    }
}

impl ReadEngine {
    /// Creates an engine keeping up to `window` read RPCs outstanding per
    /// server (clamped to at least 1).
    pub fn new(pool: Arc<ConnectionPool>, window: usize) -> ReadEngine {
        ReadEngine {
            pool,
            window: window.max(1),
        }
    }

    /// The connection pool this engine reads through.
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// The configured window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Issues `requests` to `server`, keeping up to the window outstanding,
    /// and returns the responses in request order. Completions are
    /// harvested oldest-first; on a multiplexed transport they may finish
    /// out of order on the wire, which is invisible here. A request whose
    /// channel died is replayed through the pool's one-redial `call`.
    pub fn run(&self, server: ServerId, requests: Vec<Request>) -> Vec<Result<Response>> {
        let m = metrics();
        let n = requests.len();
        let mut results: Vec<Option<Result<Response>>> = Vec::new();
        results.resize_with(n, || None);
        let mut queue: VecDeque<(usize, PreparedRequest)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i, PreparedRequest::new(r)))
            .collect();
        // The bool marks a synthesized failure (checkout itself failed, no
        // call ever hit the wire) vs. a call started on a live channel.
        let mut inflight: VecDeque<(usize, PreparedRequest, PendingCall, Instant, bool)> =
            VecDeque::new();
        let mut conn: Option<Box<dyn Connection>> = None;
        let mut dial_failed = false;
        while !queue.is_empty() || !inflight.is_empty() {
            // Fill: start reads until the window is full. The effective
            // width re-clamps to the live connection each round, so a
            // synchronous transport (pipeline_width 1) degrades to serial.
            loop {
                if conn.is_none() && !dial_failed {
                    conn = match self.pool.checkout(server) {
                        Ok(c) => Some(c),
                        Err(_) => {
                            // Remember the failure for this window pass:
                            // the per-request fallback below redials (with
                            // the pool's backoff) instead of this loop
                            // hammering the dead server once per fill.
                            dial_failed = true;
                            None
                        }
                    };
                }
                let width = conn
                    .as_ref()
                    .map(|c| self.window.min(c.pipeline_width().max(1)))
                    .unwrap_or(1);
                if inflight.len() >= width {
                    break;
                }
                let Some((i, prepared)) = queue.pop_front() else {
                    break;
                };
                let (pending, synthesized) = match &mut conn {
                    Some(c) => (c.start_prepared(&prepared), false),
                    None => (
                        PendingCall::ready(Err(SwarmError::ServerUnavailable(server))),
                        true,
                    ),
                };
                m.read_inflight.add(1);
                inflight.push_back((i, prepared, pending, Instant::now(), synthesized));
                m.window_occupancy.record_us(inflight.len() as u64);
            }
            // Harvest the oldest outstanding read.
            let Some((i, prepared, pending, started, synthesized)) = inflight.pop_front() else {
                break;
            };
            let result = match pending.wait() {
                Ok(resp) => Ok(resp),
                Err(e) if synthesized => Err(e),
                Err(_) => {
                    // The shared channel (and every sibling read on it)
                    // may be dead: drop it and replay this request on a
                    // fresh dial — the pool's idle connections are likely
                    // just as stale. Siblings repair themselves the same
                    // way as they are harvested.
                    conn = None;
                    dial_failed = false;
                    m.retries.inc();
                    self.pool.redial_call(server, prepared.request())
                }
            };
            m.read_inflight.add(-1);
            m.read_rpc_us.record(started.elapsed());
            results[i] = Some(result);
        }
        if let Some(c) = conn {
            self.pool.checkin(c);
        }
        results
            .into_iter()
            .map(|r| r.expect("every request harvested"))
            .collect()
    }

    /// Fetches `specs` from `server`: runs of reads collapse into
    /// `ReadBatch` RPCs of up to [`BATCH_CHUNK`], the RPCs ride the
    /// window, and the results come back in spec order. Each `Ok` is a
    /// shared view of its reply frame — no copy. Per-read failures (a
    /// missing fragment mid-scan) are per-element `Err`s; they do not
    /// poison the rest of the batch.
    pub fn fetch_from(&self, server: ServerId, specs: &[ReadSpec]) -> Vec<Result<Bytes>> {
        let m = metrics();
        let mut requests = Vec::new();
        for chunk in specs.chunks(BATCH_CHUNK.max(1)) {
            if chunk.len() == 1 {
                requests.push(Request::Read {
                    fid: chunk[0].fid,
                    offset: chunk[0].offset,
                    len: chunk[0].len,
                });
            } else {
                m.batches.inc();
                m.batched_reads.add(chunk.len() as u64);
                requests.push(Request::ReadBatch {
                    reads: chunk.to_vec(),
                });
            }
        }
        let responses = self.run(server, requests);
        let mut out = Vec::with_capacity(specs.len());
        for (chunk, resp) in specs.chunks(BATCH_CHUNK.max(1)).zip(responses) {
            match resp {
                Ok(Response::Data(bytes)) if chunk.len() == 1 => out.push(Ok(bytes)),
                Ok(Response::Batch(reply)) => {
                    let results = reply.into_results();
                    if results.len() == chunk.len() {
                        out.extend(results);
                    } else {
                        for _ in chunk {
                            out.push(Err(SwarmError::protocol(format!(
                                "batch reply carried {} results for {} reads",
                                results.len(),
                                chunk.len()
                            ))));
                        }
                    }
                }
                Ok(other) => match other.into_result() {
                    Err(e) => {
                        for _ in 0..chunk.len().saturating_sub(1) {
                            out.push(Err(clone_error(&e)));
                        }
                        out.push(Err(e));
                    }
                    Ok(r) => {
                        for _ in chunk {
                            out.push(Err(SwarmError::protocol(format!(
                                "unexpected read reply {r:?}"
                            ))));
                        }
                    }
                },
                Err(e) => {
                    for _ in 0..chunk.len().saturating_sub(1) {
                        out.push(Err(clone_error(&e)));
                    }
                    out.push(Err(e));
                }
            }
        }
        out
    }

    /// One ranged read — a single-spec [`ReadEngine::fetch_from`].
    pub fn read_one(
        &self,
        server: ServerId,
        fid: FragmentId,
        offset: u32,
        len: u32,
    ) -> Result<Bytes> {
        self.fetch_from(server, &[ReadSpec { fid, offset, len }])
            .pop()
            .expect("one spec yields one result")
    }

    /// Fetches spec lists from several servers at once: one scoped thread
    /// per server (serial in server order when the pool's fan-out is
    /// disabled), each running its own window. Results are returned in
    /// job order.
    pub fn fetch_scatter(&self, jobs: Vec<(ServerId, Vec<ReadSpec>)>) -> Vec<Vec<Result<Bytes>>> {
        if jobs.len() <= 1 || !self.pool.fanout_enabled() {
            return jobs
                .into_iter()
                .map(|(server, specs)| self.fetch_from(server, &specs))
                .collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(server, specs)| s.spawn(move || self.fetch_from(server, &specs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter read worker panicked"))
                .collect()
        })
    }

    /// Fetches the complete bytes of `fids` from `server`: one windowed
    /// pass of `Locate`s learns each fragment's length, then the bodies
    /// come back through batched reads. `Ok(None)` means the server does
    /// not hold that fragment (end of log, or a stale home mapping — the
    /// caller decides whether to locate elsewhere).
    pub fn fetch_whole(&self, server: ServerId, fids: &[FragmentId]) -> Vec<Result<Option<Bytes>>> {
        let locates: Vec<Request> = fids
            .iter()
            .map(|&fid| Request::Locate {
                fid,
                header_len: LOCATE_HEADER_LEN,
            })
            .collect();
        let mut out: Vec<Option<Result<Option<Bytes>>>> = Vec::new();
        out.resize_with(fids.len(), || None);
        let mut specs: Vec<(usize, ReadSpec)> = Vec::new();
        for (i, resp) in self.run(server, locates).into_iter().enumerate() {
            match resp.and_then(Response::into_result) {
                Ok(Response::Located(Some(prefix))) => match parse_header(&prefix) {
                    Ok(header) => specs.push((
                        i,
                        ReadSpec {
                            fid: fids[i],
                            offset: 0,
                            len: header.encoded_len() as u32 + header.body_len,
                        },
                    )),
                    Err(e) => out[i] = Some(Err(e)),
                },
                Ok(Response::Located(None)) => out[i] = Some(Ok(None)),
                Ok(other) => {
                    out[i] = Some(Err(SwarmError::protocol(format!(
                        "unexpected locate reply {other:?}"
                    ))))
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        let spec_list: Vec<ReadSpec> = specs.iter().map(|(_, s)| *s).collect();
        for ((i, _), result) in specs.iter().zip(self.fetch_from(server, &spec_list)) {
            out[*i] = Some(match result {
                Ok(bytes) => Ok(Some(bytes)),
                // Deleted between locate and read: absent, not fatal.
                Err(SwarmError::FragmentNotFound(_)) => Ok(None),
                Err(e) => Err(e),
            });
        }
        out.into_iter()
            .map(|r| r.expect("every fid resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::ClientId;

    fn pool_with_cluster(n: u32) -> (Arc<ConnectionPool>, Arc<MemTransport>) {
        let transport = Arc::new(MemTransport::new());
        for i in 0..n {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv.clone());
        }
        let pool = Arc::new(ConnectionPool::new(
            transport.clone() as Arc<dyn swarm_net::Transport>,
            ClientId::new(1),
        ));
        (pool, transport)
    }

    fn fid(seq: u64) -> FragmentId {
        FragmentId::new(ClientId::new(1), seq)
    }

    fn store(pool: &ConnectionPool, server: u32, seq: u64, data: Vec<u8>) {
        pool.call(
            ServerId::new(server),
            &Request::Store {
                fid: fid(seq),
                marked: false,
                ranges: vec![],
                data: data.into(),
            },
        )
        .unwrap()
        .into_result()
        .unwrap();
    }

    #[test]
    fn fetch_from_returns_results_in_spec_order() {
        let (pool, _t) = pool_with_cluster(1);
        for seq in 0..40 {
            store(&pool, 0, seq, vec![seq as u8; 64]);
        }
        let engine = ReadEngine::new(pool, 8);
        // 40 specs span 3 chunks; order must survive chunking + windowing.
        let specs: Vec<ReadSpec> = (0..40)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 2,
                len: 8,
            })
            .collect();
        let results = engine.fetch_from(ServerId::new(0), &specs);
        assert_eq!(results.len(), 40);
        for (seq, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap().as_slice(), &[seq as u8; 8][..], "spec {seq}");
        }
    }

    #[test]
    fn missing_fragment_fails_only_its_own_slot() {
        let (pool, _t) = pool_with_cluster(1);
        store(&pool, 0, 0, vec![1; 16]);
        store(&pool, 0, 2, vec![3; 16]);
        let engine = ReadEngine::new(pool, 4);
        let specs: Vec<ReadSpec> = (0..3)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 0,
                len: 16,
            })
            .collect();
        let results = engine.fetch_from(ServerId::new(0), &specs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SwarmError::FragmentNotFound(f)) if f == fid(1)
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn down_server_fails_every_spec_with_unavailability() {
        let (pool, transport) = pool_with_cluster(1);
        store(&pool, 0, 0, vec![1; 16]);
        transport.set_down(ServerId::new(0), true);
        let engine = ReadEngine::new(pool, 4);
        let specs: Vec<ReadSpec> = (0..5)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 0,
                len: 16,
            })
            .collect();
        for r in engine.fetch_from(ServerId::new(0), &specs) {
            let e = r.unwrap_err();
            assert!(e.is_unavailability(), "{e}");
        }
    }

    #[test]
    fn fetch_scatter_keeps_job_order() {
        let (pool, _t) = pool_with_cluster(3);
        for server in 0..3u32 {
            store(&pool, server, 100 + server as u64, vec![server as u8; 32]);
        }
        let engine = ReadEngine::new(pool, 8);
        let jobs: Vec<(ServerId, Vec<ReadSpec>)> = (0..3u32)
            .map(|server| {
                (
                    ServerId::new(server),
                    vec![ReadSpec {
                        fid: fid(100 + server as u64),
                        offset: 0,
                        len: 32,
                    }],
                )
            })
            .collect();
        let results = engine.fetch_scatter(jobs);
        for (server, per_server) in results.into_iter().enumerate() {
            assert_eq!(
                per_server[0].as_ref().unwrap().as_slice(),
                &[server as u8; 32][..]
            );
        }
    }
}
