//! TCP transport: the real-sockets equivalent of the paper's prototype,
//! where storage servers are user-level processes reached over switched
//! Ethernet (§3).
//!
//! Connection establishment performs a small handshake so the server knows
//! which client it is talking to (the prototype relied on the transport
//! for identity as well): the client sends a hello frame carrying the mux
//! magic and its [`ClientId`] (see `crate::mux`), and the server replies
//! with its [`ServerId`].
//!
//! One stack serves both ends. On the server, an epoll reactor thread
//! drives every connection as a non-blocking state machine, and a
//! [`WorkerPool`] runs only the handlers (file I/O, fragment-store
//! locking), so one server holds thousands of idle connections at a few
//! hundred bytes each. On the client, every call to one server from one
//! client shares a single socket and is matched to its reply by request
//! id, so any number of calls can be in flight at once.
//!
//! TCP is Linux-only because the reactor needs epoll. Elsewhere
//! [`TcpServer::spawn`] and [`TcpTransport`]'s `connect` fail with
//! `ErrorKind::Unsupported`; [`crate::MemTransport`] works everywhere.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_metrics::{Counter, Histogram};
use swarm_types::{ByteWriter, Bytes, ClientId, Decode, Encode, Result, ServerId, SwarmError};

use crate::frame::{frame_header_for, FrameProgress, FrameReader};
use crate::handler::RequestHandler;
use crate::mux::{mux_dial, parse_hello, MuxChannel, MuxSource, Seg};
use crate::proto::{PreparedRequest, Request, Response};
use crate::reactor::{Ctx, Handle, Reactor, Ready, Runtime, Source, TimerVerdict};
use crate::transport::{Connection, PendingCall, Transport};
use crate::workpool::{WorkerPool, DEFAULT_WORKERS};

/// How long the listener backs off after a failed `accept()` before
/// trying again, so a persistent error (fd exhaustion, dead listener)
/// cannot spin a core at 100%.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `accept()` failures after which the listener concludes it
/// is dead and stops. A successful accept resets the count.
const ACCEPT_ERROR_LIMIT: u32 = 100;

/// Default per-call timeout for client connections (it also bounds the
/// dial and handshake); long enough for a slow disk on the far side,
/// short enough that a hung server surfaces as
/// [`SwarmError::ServerUnavailable`] and the writer's retry path engages.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default server-side read deadline: a connection that delivers no bytes
/// for this long while nothing is in flight is reaped. Protects the
/// server from slow-loris peers (a trickled half-frame would otherwise
/// pin reactor connection state forever).
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);

/// Requests a single connection may have in flight (queued or running in
/// the worker pool) before the server pauses reading from it.
const MAX_INFLIGHT_PER_CONN: usize = 64;

pub(crate) struct NetMetrics {
    pub(crate) accept_errors: Counter,
    pub(crate) server_connections: Counter,
    pub(crate) server_requests: Counter,
    pub(crate) server_fast_reads: Counter,
    pub(crate) server_bytes_in: Counter,
    pub(crate) server_bytes_out: Counter,
    pub(crate) conns_reaped: Counter,
    pub(crate) server_request_us: Histogram,
    pub(crate) client_connects: Counter,
    pub(crate) client_call_errors: Counter,
    pub(crate) client_bytes_out: Counter,
    pub(crate) client_bytes_in: Counter,
    pub(crate) client_call_us: Histogram,
}

pub(crate) fn metrics() -> &'static NetMetrics {
    static M: OnceLock<NetMetrics> = OnceLock::new();
    M.get_or_init(|| NetMetrics {
        accept_errors: swarm_metrics::counter("net.server.accept_errors"),
        server_connections: swarm_metrics::counter("net.server.connections"),
        server_requests: swarm_metrics::counter("net.server.requests"),
        server_fast_reads: swarm_metrics::counter("net.server.fast_reads"),
        server_bytes_in: swarm_metrics::counter("net.server.bytes_in"),
        server_bytes_out: swarm_metrics::counter("net.server.bytes_out"),
        conns_reaped: swarm_metrics::counter("net.server.conns_reaped"),
        server_request_us: swarm_metrics::histogram("net.server.request_us"),
        client_connects: swarm_metrics::counter("net.client.connects"),
        client_call_errors: swarm_metrics::counter("net.client.call_errors"),
        client_bytes_out: swarm_metrics::counter("net.client.bytes_out"),
        client_bytes_in: swarm_metrics::counter("net.client.bytes_in"),
        client_call_us: swarm_metrics::histogram("net.client.call_us"),
    })
}

/// Configuration for [`TcpServer::spawn_with_config`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker pool width: max handlers running concurrently (connections
    /// themselves are unbounded).
    pub workers: usize,
    /// Kept for the frozen benchmark, which names it; `Epoll` is the only
    /// value and the only engine.
    pub runtime: Runtime,
    /// Reap a connection that delivers no bytes for this long while no
    /// request of its is in flight (`None` = never reap — the
    /// pre-deadline behaviour). Clients whose pooled idle connection is
    /// reaped redial transparently.
    pub read_deadline: Option<Duration>,
    /// Server-side fault plan (see [`TcpServer::spawn_with_faults`]).
    pub faults: Option<Arc<crate::fault::FaultPlan>>,
    /// Per-client fairness when the worker pool saturates. See
    /// [`crate::admission::Admission`].
    pub admission: crate::admission::AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: DEFAULT_WORKERS,
            runtime: Runtime::Epoll,
            read_deadline: Some(DEFAULT_READ_DEADLINE),
            faults: None,
            admission: crate::admission::AdmissionConfig::default(),
        }
    }
}

/// A running TCP storage-server endpoint.
///
/// Wraps a [`RequestHandler`] and serves it on a listening socket from an
/// epoll reactor. Dropping the server (or calling [`TcpServer::shutdown`])
/// stops accepting, severs established connections, waits for running
/// handlers, and joins all threads.
pub struct TcpServer {
    id: ServerId,
    addr: SocketAddr,
    reactor: Option<Reactor>,
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` as server `id` with default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound.
    pub fn spawn(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<TcpServer> {
        Self::spawn_with_config(id, bind_addr, handler, ServerConfig::default())
    }

    /// Like [`TcpServer::spawn`], but with a server-side [`FaultPlan`]
    /// hook: when the plan has a pending truncation
    /// ([`FaultPlan::inject_truncate`]), the server processes the request,
    /// writes only a *prefix* of the response frame, and severs the
    /// connection — a genuinely torn frame on a real socket. The client
    /// observes [`SwarmError::ServerUnavailable`] with the ack lost, so a
    /// retried store hits the duplicate-store path.
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    /// [`FaultPlan::inject_truncate`]: crate::fault::FaultPlan::inject_truncate
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound.
    pub fn spawn_with_faults(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
        faults: Option<Arc<crate::fault::FaultPlan>>,
    ) -> Result<TcpServer> {
        Self::spawn_with_config(
            id,
            bind_addr,
            handler,
            ServerConfig {
                faults,
                ..ServerConfig::default()
            },
        )
    }

    /// Like [`TcpServer::spawn_with_faults`], but with an explicit worker
    /// pool width.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound.
    pub fn spawn_with_opts(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
        faults: Option<Arc<crate::fault::FaultPlan>>,
        workers: usize,
    ) -> Result<TcpServer> {
        Self::spawn_with_config(
            id,
            bind_addr,
            handler,
            ServerConfig {
                workers,
                faults,
                ..ServerConfig::default()
            },
        )
    }

    /// Binds `bind_addr` and serves `handler` with full control over the
    /// worker width, read deadline, admission, and fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound, or
    /// `ErrorKind::Unsupported` on a platform without epoll.
    pub fn spawn_with_config(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
        config: ServerConfig,
    ) -> Result<TcpServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let reactor = Reactor::new(&format!("swarm-epoll-{}", id.raw()))?;
        let pool = Arc::new(WorkerPool::new(
            &format!("swarm-conn-{}", id.raw()),
            config.workers,
        ));
        let source = ListenerSource {
            listener,
            id,
            handler,
            faults: config.faults,
            admission: crate::admission::Admission::new(pool.clone(), config.admission),
            read_deadline: config.read_deadline,
            consecutive_errors: 0,
        };
        reactor.register(None, move |_h| Box::new(source));
        Ok(TcpServer {
            id,
            addr,
            reactor: Some(reactor),
            pool,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Stops accepting new connections, severs established ones, waits
    /// for handlers already running, and joins every thread. Like a
    /// process exit, in-flight peers see their sockets close — a client
    /// holding a pooled connection must redial.
    pub fn shutdown(&mut self) {
        // Stopping the reactor drops the listener and every connection
        // source, closing their sockets; late notify() calls from
        // finishing handlers land on a stopped reactor and are ignored.
        self.reactor.take();
        // Join the workers here rather than by dropping our `Arc`: queued
        // jobs hold references to the pool through the admission gate, so
        // ours is not the last one.
        self.pool.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Server: listener + per-connection readiness state machines.
// ---------------------------------------------------------------------------

struct ListenerSource {
    listener: TcpListener,
    id: ServerId,
    handler: Arc<dyn RequestHandler>,
    faults: Option<Arc<crate::fault::FaultPlan>>,
    admission: Arc<crate::admission::Admission>,
    read_deadline: Option<Duration>,
    consecutive_errors: u32,
}

impl Source for ListenerSource {
    fn fd(&self) -> epoll::RawFd {
        raw_fd(&self.listener)
    }

    fn interest(&self) -> epoll::Interest {
        epoll::Interest::READABLE
    }

    fn on_ready(&mut self, _readable: bool, _writable: bool, ctx: &mut Ctx<'_>) -> Ready {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.consecutive_errors = 0;
                    metrics().server_connections.inc();
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let handle = ctx.reserve();
                    let deadline = self.read_deadline.map(|d| Instant::now() + d);
                    let conn = ConnSource::new(
                        stream,
                        self.id,
                        self.handler.clone(),
                        self.faults.clone(),
                        self.admission.clone(),
                        handle.clone(),
                        self.read_deadline,
                    );
                    ctx.attach(&handle, Box::new(conn), deadline);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ready::Continue,
                Err(e) => {
                    metrics().accept_errors.inc();
                    self.consecutive_errors += 1;
                    swarm_metrics::trace!(
                        "net.accept",
                        "server {} accept error ({} consecutive): {e}",
                        self.id.raw(),
                        self.consecutive_errors
                    );
                    if self.consecutive_errors >= ACCEPT_ERROR_LIMIT {
                        return Ready::Close;
                    }
                    // Brief blocking backoff: under fd exhaustion,
                    // level-triggered epoll would otherwise re-deliver
                    // readiness instantly.
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    return Ready::Continue;
                }
            }
        }
    }
}

/// A finished handler invocation, posted by a worker to the connection's
/// mailbox. Responses go out in completion order; the request-id prefix
/// lets the client match them.
struct Completion {
    segs: Vec<Seg>,
    close_after: bool,
}

struct ConnSource {
    stream: TcpStream,
    id: ServerId,
    handler: Arc<dyn RequestHandler>,
    faults: Option<Arc<crate::fault::FaultPlan>>,
    admission: Arc<crate::admission::Admission>,
    handle: Handle,
    reader: FrameReader,
    /// The peer's id, once its hello has been accepted.
    client: Option<ClientId>,
    outbox: VecDeque<Seg>,
    front_off: usize,
    mailbox: Arc<Mutex<Vec<Completion>>>,
    inflight: usize,
    read_deadline: Option<Duration>,
    last_activity: Instant,
    /// Flush the outbox, then close; no further reads.
    closing: bool,
}

impl ConnSource {
    fn new(
        stream: TcpStream,
        id: ServerId,
        handler: Arc<dyn RequestHandler>,
        faults: Option<Arc<crate::fault::FaultPlan>>,
        admission: Arc<crate::admission::Admission>,
        handle: Handle,
        read_deadline: Option<Duration>,
    ) -> ConnSource {
        ConnSource {
            stream,
            id,
            handler,
            faults,
            admission,
            handle,
            reader: FrameReader::new(),
            client: None,
            outbox: VecDeque::new(),
            front_off: 0,
            mailbox: Arc::new(Mutex::new(Vec::new())),
            inflight: 0,
            read_deadline,
            last_activity: Instant::now(),
            closing: false,
        }
    }

    /// Writes queued output until the socket would block or the queue
    /// drains. Returns false on a fatal socket error.
    fn pump_write(&mut self) -> bool {
        while let Some(front) = self.outbox.front() {
            let slice = &front.as_slice()[self.front_off..];
            match (&self.stream).write(slice) {
                Ok(0) => return false,
                Ok(n) => {
                    self.front_off += n;
                    if self.front_off == front.as_slice().len() {
                        self.outbox.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads frames: completes the handshake, then dispatches request
    /// frames to the worker pool. Returns false when the connection must
    /// close (EOF, socket error, corrupt stream, protocol breach).
    fn pump_read(&mut self) -> bool {
        loop {
            if self.closing || self.inflight >= MAX_INFLIGHT_PER_CONN {
                // Backpressure: interest() drops EPOLLIN until completions
                // drain; unread requests stay in the socket buffer.
                return true;
            }
            match self.reader.read_from(&mut &self.stream) {
                Ok(FrameProgress::Frame(frame)) => {
                    self.last_activity = Instant::now();
                    if !self.on_frame(frame) {
                        return false;
                    }
                }
                Ok(FrameProgress::Blocked) => return true,
                Ok(FrameProgress::Eof) | Err(_) => return false,
            }
        }
    }

    /// Accepts a hello frame and queues the handshake reply. Returns
    /// false (close without replying) for anything but a mux hello.
    fn on_hello(&mut self, frame: &[u8]) -> bool {
        let Ok(client) = parse_hello(frame) else {
            return false;
        };
        let mut w = ByteWriter::new();
        self.id.encode(&mut w);
        let Ok(fh) = frame_header_for(&[w.as_slice()]) else {
            return false;
        };
        let mut head = Vec::with_capacity(12 + w.len());
        head.extend_from_slice(&fh);
        head.extend_from_slice(w.as_slice());
        self.outbox.push_back(Seg::Owned(head));
        self.client = Some(client);
        true
    }

    /// Handles one inbound frame. Returns false to close the connection.
    fn on_frame(&mut self, frame: Vec<u8>) -> bool {
        let Some(client) = self.client else {
            return self.on_hello(&frame);
        };
        if frame.len() < 8 {
            return false; // mux frame shorter than its id
        }
        let m = metrics();
        m.server_requests.inc();
        m.server_bytes_in.add(frame.len() as u64);
        let frame = Bytes::from(frame);
        let mux_id = u64::from_le_bytes(frame[..8].try_into().unwrap());
        let body = frame.slice(8..);
        self.inflight += 1;

        // Reactor fast path: offer reads to the handler before paying the
        // worker-pool round trip (two context switches — the dominant
        // cost of a memory-resident read). Only the Read tag is peeked:
        // decoding anything heavier on the reactor thread would stall
        // every other connection. Fault plans disable the shortcut so
        // injected delays/truncations still cover reads.
        if self.faults.is_none() && body.first() == Some(&crate::proto::tag::READ) {
            if let Ok(request) = Request::decode_all_shared(&body) {
                if let Some(response) = self.handler.try_handle_fast(client, &request) {
                    m.server_fast_reads.inc();
                    let completion = encode_completion(self.id, None, mux_id, response);
                    self.mailbox.lock().push(completion);
                    self.drain_mailbox();
                    return true;
                }
            }
        }

        let handler = self.handler.clone();
        let faults = self.faults.clone();
        let mailbox = self.mailbox.clone();
        let handle = self.handle.clone();
        let server = self.id;
        // Only stores are rejectable under admission backpressure: the
        // writer is the one caller with retry machinery, and a bounced
        // read would surface as a data-path failure.
        let rejectable = body.first() == Some(&crate::proto::tag::STORE);
        let cost = body.len() as u64;
        let outcome = self.admission.submit(client, cost, rejectable, move || {
            let completion =
                run_request(server, &*handler, faults.as_deref(), client, mux_id, &body);
            mailbox.lock().push(completion);
            handle.notify();
        });
        if outcome == crate::admission::Submitted::Rejected {
            // Busy pushback: answered from the reactor thread, bypassing
            // the very queue that is full.
            let response = Response::from_error(&SwarmError::Busy(self.id));
            let completion = encode_completion(self.id, None, mux_id, response);
            self.mailbox.lock().push(completion);
            self.drain_mailbox();
        }
        true
    }

    /// Drains worker completions into the outbox.
    fn drain_mailbox(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.mailbox.lock());
        for c in done {
            self.inflight = self.inflight.saturating_sub(1);
            self.enqueue(c);
        }
    }

    fn enqueue(&mut self, c: Completion) {
        if self.closing {
            return; // a truncation already sealed this connection
        }
        self.outbox.extend(c.segs);
        if c.close_after {
            self.closing = true;
        }
    }

    /// Post-I/O verdict shared by ready/notify callbacks.
    fn verdict(&mut self, io_ok: bool) -> Ready {
        if !io_ok || (self.closing && self.outbox.is_empty()) {
            return Ready::Close;
        }
        Ready::Continue
    }
}

/// Runs one request through the handler and encodes its response frame as
/// write-ready segments (executed on a worker thread).
fn run_request(
    server: ServerId,
    handler: &dyn RequestHandler,
    faults: Option<&crate::fault::FaultPlan>,
    client: ClientId,
    mux_id: u64,
    body: &Bytes,
) -> Completion {
    let m = metrics();
    let span = m.server_request_us.span("net.server.request");
    let response = match Request::decode_all_shared(body) {
        Ok(request) => handler.handle(client, request),
        Err(e) => Response::from_error(&e),
    };
    drop(span);
    encode_completion(server, faults, mux_id, response)
}

/// Encodes a computed response as write-ready segments. Shared by the
/// worker path ([`run_request`]) and the reactor fast path, so a response
/// frame is byte-identical regardless of which thread produced it.
fn encode_completion(
    server: ServerId,
    faults: Option<&crate::fault::FaultPlan>,
    mux_id: u64,
    response: Response,
) -> Completion {
    let m = metrics();
    let mut header = ByteWriter::new();
    header.put_raw(&mux_id.to_le_bytes());
    let _ = response.encode_split(&mut header);
    // Re-borrow the payload as a shared view so the (possibly large) read
    // data rides to the socket without a copy.
    let payload = match &response {
        Response::Data(b) => b.share(),
        Response::Located(Some(b)) => b.share(),
        Response::Batch(reply) => reply.data.share(),
        Response::PeerData { data: Some(b), .. } => b.share(),
        _ => Bytes::new(),
    };
    m.server_bytes_out
        .add((header.len() + payload.len()) as u64);

    let Ok(fh) = frame_header_for(&[header.as_slice(), &payload]) else {
        // Response too large to frame: close without replying.
        return Completion {
            segs: Vec::new(),
            close_after: true,
        };
    };
    let mut head = Vec::with_capacity(12 + header.len());
    head.extend_from_slice(&fh);
    head.extend_from_slice(header.as_slice());

    if faults.is_some_and(|p| p.take_truncate()) {
        // Injected truncation: ship only a prefix of the frame, then close.
        let mut full = head;
        full.extend_from_slice(&payload);
        let keep = full.len() / 2;
        full.truncate(keep);
        swarm_metrics::trace!(
            "net.fault",
            "server {} truncating response frame (kept {keep} bytes)",
            server.raw()
        );
        return Completion {
            segs: vec![Seg::Owned(full)],
            close_after: true,
        };
    }

    let mut segs = vec![Seg::Owned(head)];
    if !payload.is_empty() {
        segs.push(Seg::Shared(payload));
    }
    Completion {
        segs,
        close_after: false,
    }
}

impl Source for ConnSource {
    fn fd(&self) -> epoll::RawFd {
        raw_fd(&self.stream)
    }

    fn interest(&self) -> epoll::Interest {
        epoll::Interest {
            readable: !self.closing && self.inflight < MAX_INFLIGHT_PER_CONN,
            writable: !self.outbox.is_empty(),
        }
    }

    fn on_ready(&mut self, readable: bool, writable: bool, _ctx: &mut Ctx<'_>) -> Ready {
        if writable && !self.pump_write() {
            return Ready::Close;
        }
        if readable && !self.pump_read() {
            // EOF or a read error ends the session (connection ==
            // session): replies still queued for a peer that half-closed
            // after its last request are dropped with the socket.
            return Ready::Close;
        }
        // Reads answered on the fast path during pump_read are sitting in
        // the outbox now; flush them in this pass rather than waiting for
        // the next writability event.
        if !self.outbox.is_empty() && !self.pump_write() {
            return Ready::Close;
        }
        self.verdict(true)
    }

    fn on_notify(&mut self, _ctx: &mut Ctx<'_>) -> Ready {
        self.drain_mailbox();
        let ok = self.pump_write();
        self.verdict(ok)
    }

    fn on_timer(&mut self, now: Instant, _ctx: &mut Ctx<'_>) -> TimerVerdict {
        let Some(deadline) = self.read_deadline else {
            return TimerVerdict::Disarm;
        };
        // Never reap a connection with work in flight or output queued —
        // the deadline guards against *silent* peers, not slow handlers.
        let busy = self.inflight > 0 || !self.outbox.is_empty();
        let due = self.last_activity + deadline;
        if busy || now < due {
            return TimerVerdict::ReArm(if busy { now + deadline } else { due });
        }
        metrics().conns_reaped.inc();
        swarm_metrics::trace!(
            "net.deadline",
            "server {} reaping stalled connection (mid-frame: {})",
            self.id.raw(),
            self.reader.in_frame()
        );
        TimerVerdict::Close
    }
}

fn raw_fd<T: std::os::fd::AsRawFd>(t: &T) -> epoll::RawFd {
    t.as_raw_fd()
}

// ---------------------------------------------------------------------------
// Client transport.
// ---------------------------------------------------------------------------

/// Client-side transport over TCP.
///
/// Maps [`ServerId`]s to socket addresses; `connect` dials and performs
/// the handshake. The server set is fixed at construction (plus
/// [`TcpTransport::add_server`]), mirroring the prototype where clients
/// know the cluster membership.
///
/// All connections between one `(server, client)` pair share a single
/// multiplexed socket, driven by a process-wide client reactor: every
/// [`Connection`] handed out is a lightweight handle onto that channel,
/// and any number of calls proceed concurrently, matched by request id.
///
/// Calls time out after [`DEFAULT_CALL_TIMEOUT`] unless overridden with
/// [`TcpTransport::set_call_timeout`], so a hung server surfaces as
/// [`SwarmError::ServerUnavailable`] instead of wedging the caller.
pub struct TcpTransport {
    servers: Mutex<BTreeMap<ServerId, SocketAddr>>,
    /// Client-embedded peer responders (cooperative cache), each backed by
    /// its own tiny listener. Kept apart from `servers` so they never
    /// appear in [`Transport::servers`] — locate broadcasts and
    /// reconstruction fan-out must not dial peers.
    peers: Mutex<HashMap<ServerId, PeerEntry>>,
    call_timeout: Mutex<Option<Duration>>,
    channels: Mutex<HashMap<(ServerId, ClientId), Arc<MuxChannel>>>,
    /// Per-pair dial locks: concurrent `connect_mux` calls for the same
    /// `(server, client)` collapse to one socket without holding the
    /// `channels` map lock across the dial (one unreachable server must
    /// not stall connects to every other server).
    dialing: Mutex<HashMap<(ServerId, ClientId), DialLock>>,
}

/// Lock serializing dials for one `(server, client)` pair.
type DialLock = Arc<Mutex<()>>;

/// A published peer responder: the listener serving it plus its address.
/// Dropping the entry shuts the listener down and joins its threads.
struct PeerEntry {
    addr: SocketAddr,
    _server: TcpServer,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("servers", &*self.servers.lock())
            .finish()
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Creates a transport with no servers.
    pub fn new() -> Self {
        TcpTransport {
            servers: Mutex::new(BTreeMap::new()),
            peers: Mutex::new(HashMap::new()),
            call_timeout: Mutex::new(Some(DEFAULT_CALL_TIMEOUT)),
            channels: Mutex::new(HashMap::new()),
            dialing: Mutex::new(HashMap::new()),
        }
    }

    /// Creates a transport pointing at the given running servers.
    pub fn with_servers(servers: impl IntoIterator<Item = (ServerId, SocketAddr)>) -> Self {
        let t = Self::new();
        t.servers.lock().extend(servers);
        t
    }

    /// Sets the per-call timeout for connections opened after this call
    /// (`None` = block forever, the pre-timeout behaviour).
    pub fn set_call_timeout(&self, timeout: Option<Duration>) {
        *self.call_timeout.lock() = timeout;
    }

    /// The currently configured per-call timeout.
    pub fn call_timeout(&self) -> Option<Duration> {
        *self.call_timeout.lock()
    }

    /// Kept for the frozen benchmark, which calls it; `Epoll` is the only
    /// value and the only engine, so this changes nothing.
    pub fn set_runtime(&self, runtime: Runtime) {
        let Runtime::Epoll = runtime;
    }

    /// Adds (or re-addresses) a server. Re-addressing closes any
    /// multiplexed channel to the old address (the server it pointed at
    /// is gone; pending calls fail over to the retry path).
    pub fn add_server(&self, id: ServerId, addr: SocketAddr) {
        let prev = self.servers.lock().insert(id, addr);
        if prev.is_some() && prev != Some(addr) {
            self.close_channels_for(id);
        }
    }

    /// Removes a server from the membership, closing its channels.
    pub fn remove_server(&self, id: ServerId) {
        self.servers.lock().remove(&id);
        self.close_channels_for(id);
    }

    /// Number of live multiplexed channels (diagnostic: each is one
    /// socket shared by every connection to its `(server, client)` pair).
    pub fn mux_channels(&self) -> usize {
        self.channels
            .lock()
            .values()
            .filter(|c| c.is_alive())
            .count()
    }

    /// High-water mark of concurrently in-flight calls across multiplexed
    /// channels (diagnostic for pipelining tests).
    pub fn mux_inflight_peak(&self) -> usize {
        self.channels
            .lock()
            .values()
            .map(|c| c.inflight_peak())
            .max()
            .unwrap_or(0)
    }

    fn close_channels_for(&self, id: ServerId) {
        let mut channels = self.channels.lock();
        channels.retain(|(server, _), ch| {
            if *server == id {
                ch.shutdown();
                false
            } else {
                true
            }
        });
        drop(channels);
        self.dialing.lock().retain(|(server, _), _| *server != id);
    }

    /// Returns the live channel for the pair, pruning a dead one.
    fn live_channel(&self, server: ServerId, client: ClientId) -> Option<Arc<MuxChannel>> {
        let mut channels = self.channels.lock();
        if let Some(ch) = channels.get(&(server, client)) {
            if ch.is_alive() {
                return Some(ch.clone());
            }
            channels.remove(&(server, client));
        }
        None
    }

    fn connect_mux(
        &self,
        reactor: &'static Reactor,
        addr: SocketAddr,
        server: ServerId,
        client: ClientId,
    ) -> Result<Box<dyn Connection>> {
        let timeout = self.call_timeout();
        if let Some(channel) = self.live_channel(server, client) {
            return Ok(Box::new(MuxConnection {
                server,
                channel,
                timeout,
            }));
        }
        // Serialize dials per pair, never transport-wide: concurrent
        // connects to the same pair collapse onto one socket, while a dial
        // to an unreachable server (bounded by the call timeout inside
        // `mux_dial`, but still seconds) cannot block connects to healthy
        // servers — parallel `broadcast_first` legs dial independently.
        let pair_lock = self
            .dialing
            .lock()
            .entry((server, client))
            .or_default()
            .clone();
        let _dial_guard = pair_lock.lock();
        if let Some(channel) = self.live_channel(server, client) {
            // Lost the race; the winner's channel serves this pair.
            return Ok(Box::new(MuxConnection {
                server,
                channel,
                timeout,
            }));
        }
        metrics().client_connects.inc();
        swarm_metrics::trace!("net.connect", "client {client} -> server {server} (mux)");
        let stream = mux_dial(addr, server, client, timeout)?;
        let channel = MuxChannel::new(server);
        let ch2 = channel.clone();
        reactor.register(None, move |h| {
            ch2.set_handle(h.clone());
            Box::new(MuxSource::new(stream, ch2.clone()))
        });
        self.channels
            .lock()
            .insert((server, client), channel.clone());
        Ok(Box::new(MuxConnection {
            server,
            channel,
            timeout,
        }))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The global client reactor outlives any transport; without this,
        // its sources would hold the transport's sockets open forever.
        for ch in self.channels.lock().values() {
            ch.shutdown();
        }
    }
}

impl Transport for TcpTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        let addr = match self.servers.lock().get(&server) {
            Some(addr) => *addr,
            // Not a cluster member — maybe a published peer responder.
            None => self
                .peers
                .lock()
                .get(&server)
                .map(|p| p.addr)
                .ok_or(SwarmError::ServerUnavailable(server))?,
        };
        let reactor = crate::reactor::client_reactor()?;
        self.connect_mux(reactor, addr, server, client)
    }

    fn servers(&self) -> Vec<ServerId> {
        self.servers.lock().keys().copied().collect()
    }
}

impl crate::transport::PeerHost for TcpTransport {
    fn publish(&self, peer: ServerId, handler: Arc<dyn RequestHandler>) -> Result<()> {
        // A peer responder serves cache-resident blocks only, so a narrow
        // worker pool is plenty; the listener dies with the entry.
        let server = TcpServer::spawn_with_config(
            peer,
            "127.0.0.1:0",
            handler,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )?;
        let addr = server.addr();
        self.peers.lock().insert(
            peer,
            PeerEntry {
                addr,
                _server: server,
            },
        );
        Ok(())
    }

    fn withdraw(&self, peer: ServerId) {
        self.close_channels_for(peer);
        // Dropping the entry shuts the responder down and joins it.
        self.peers.lock().remove(&peer);
    }
}

/// A lightweight handle onto a shared [`MuxChannel`]: every call is
/// tagged with a fresh request id and may overlap with calls from any
/// number of sibling connections on the same socket.
struct MuxConnection {
    server: ServerId,
    channel: Arc<MuxChannel>,
    timeout: Option<Duration>,
}

impl MuxConnection {
    fn exchange(&mut self, header: &[u8], payload: &Bytes) -> Result<Response> {
        let m = metrics();
        let span = m.client_call_us.span("net.client.call");
        let reply = self
            .channel
            .call(header, payload, self.timeout)
            .inspect_err(|_| m.client_call_errors.inc())?;
        drop(span);
        Response::decode_all_shared(&reply)
    }
}

impl Connection for MuxConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        let mut header = ByteWriter::new();
        let _ = request.encode_split(&mut header);
        // Re-borrow the Store payload as a shared view (no copy); other
        // requests have no payload.
        let payload = match request {
            Request::Store { data, .. } => data.share(),
            _ => Bytes::new(),
        };
        self.exchange(header.as_slice(), &payload)
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.exchange(prepared.header(), prepared.payload())
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        // Put the frame on the wire now; hand the caller a completion that
        // blocks on this request id only. The deadline is fixed at start
        // time so a windowed caller can't stretch it by harvesting late.
        let started = Instant::now();
        let id = match self.channel.begin(prepared.header(), prepared.payload()) {
            Ok(id) => id,
            Err(e) => {
                metrics().client_call_errors.inc();
                return PendingCall::ready(Err(e));
            }
        };
        let channel = self.channel.clone();
        let deadline = self.timeout.map(|t| started + t);
        PendingCall::deferred(move || {
            let m = metrics();
            let reply = channel
                .finish(id, deadline)
                .inspect_err(|_| m.client_call_errors.inc())?;
            m.client_call_us.record(started.elapsed());
            Response::decode_all_shared(&reply)
        })
    }

    fn pipeline_width(&self) -> usize {
        // Matches the server's per-connection inflight cap; going wider
        // would only park frames in the server's backpressure window.
        MAX_INFLIGHT_PER_CONN
    }

    fn server(&self) -> ServerId {
        self.server
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::handler::testing::EchoStore;
    use std::io::{BufReader, BufWriter};
    use swarm_types::FragmentId;

    fn spawn_echo(id: u32) -> TcpServer {
        TcpServer::spawn(
            ServerId::new(id),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap()
    }

    #[test]
    fn tcp_roundtrip() {
        let server = spawn_echo(0);
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let mut conn = transport.connect(server.id(), ClientId::new(5)).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Ok);

        let fid = FragmentId::new(ClientId::new(5), 1);
        let data = (0..255u8).collect::<Vec<_>>();
        conn.call(&Request::Store {
            fid,
            marked: true,
            ranges: vec![],
            data: data.clone().into(),
        })
        .unwrap();
        let resp = conn
            .call(&Request::Read {
                fid,
                offset: 10,
                len: 5,
            })
            .unwrap();
        assert_eq!(resp, Response::Data(data[10..15].to_vec().into()));
    }

    /// A bare 4-byte `ClientId` hello (the retired classic session) is
    /// refused: the server closes the connection without a handshake
    /// reply and never runs the request queued behind the hello.
    #[test]
    fn legacy_hello_is_refused() {
        #[derive(Default)]
        struct Counting(std::sync::atomic::AtomicUsize);
        impl RequestHandler for Counting {
            fn handle(&self, _client: ClientId, _request: Request) -> Response {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Response::Ok
            }
        }
        let handler = Arc::new(Counting::default());
        let server = TcpServer::spawn(ServerId::new(2), "127.0.0.1:0", handler.clone()).unwrap();

        let mut legacy = TcpStream::connect(server.addr()).unwrap();
        let mut hello = ByteWriter::new();
        ClientId::new(5).encode(&mut hello);
        write_frame(&mut legacy, hello.as_slice()).unwrap();
        // A classic client sent its first request right behind the hello.
        // The server may already have closed, so the write may fail.
        let mut ping = ByteWriter::new();
        let _ = Request::Ping.encode_split(&mut ping);
        let _ = write_frame(&mut legacy, ping.as_slice());

        legacy
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64];
        match std::io::Read::read(&mut legacy, &mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("refused hello got {n} reply bytes"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "legacy connection left open: {e}"
            ),
        }
        assert_eq!(
            handler.0.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "no request may be served"
        );
    }

    /// Peer responders published through [`PeerHost`] are dialable like
    /// servers — over a real socket, speaking the PeerRead protocol —
    /// but stay out of the member list, and withdrawing one makes later
    /// dials fail.
    #[test]
    fn published_peer_responders_serve_peer_reads_over_tcp() {
        use crate::transport::{peer_server_id, PeerHost};
        use swarm_types::{BlockAddr, SwarmError};

        struct OneBlock {
            addr: BlockAddr,
            data: Vec<u8>,
        }
        impl crate::handler::RequestHandler for OneBlock {
            fn handle(&self, _client: ClientId, request: Request) -> Response {
                match request {
                    Request::PeerRead { addr, .. } => Response::PeerData {
                        data: (addr == self.addr).then(|| self.data.clone().into()),
                        hints: vec![crate::proto::HintSpec {
                            addr: self.addr,
                            holder: ClientId::new(7),
                        }],
                    },
                    _ => Response::from_error(&SwarmError::invalid("peer only")),
                }
            }
        }

        let server = spawn_echo(1);
        let transport = Arc::new(TcpTransport::with_servers([(server.id(), server.addr())]));
        let addr = BlockAddr::new(FragmentId::new(ClientId::new(7), 3), 128, 11);
        let peer = peer_server_id(ClientId::new(7));
        transport
            .publish(
                peer,
                Arc::new(OneBlock {
                    addr,
                    data: b"peer bytes!".to_vec(),
                }),
            )
            .unwrap();

        assert_eq!(
            transport.servers(),
            vec![server.id()],
            "peers must not join the member list"
        );

        let mut conn = transport.connect(peer, ClientId::new(8)).unwrap();
        match conn
            .call(&Request::PeerRead {
                addr,
                hints: vec![],
            })
            .unwrap()
        {
            Response::PeerData { data, hints } => {
                assert_eq!(data.as_deref(), Some(&b"peer bytes!"[..]));
                assert_eq!(hints.len(), 1);
                assert_eq!(hints[0].holder, ClientId::new(7));
            }
            other => panic!("unexpected response: {other:?}"),
        }
        drop(conn);

        transport.withdraw(peer);
        assert!(
            transport.connect(peer, ClientId::new(8)).is_err(),
            "withdrawn peers must not be dialable"
        );
    }

    #[test]
    fn multiple_clients_share_a_server() {
        let server = TcpServer::spawn(
            ServerId::new(3),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let transport = TcpTransport::with_servers([(ServerId::new(3), server.addr())]);
        let mut handles = Vec::new();
        let transport = Arc::new(transport);
        for c in 0..4u32 {
            let t = transport.clone();
            handles.push(std::thread::spawn(move || {
                let mut conn = t.connect(ServerId::new(3), ClientId::new(c)).unwrap();
                for i in 0..20u64 {
                    let fid = FragmentId::new(ClientId::new(c), i);
                    conn.call(&Request::Store {
                        fid,
                        marked: false,
                        ranges: vec![],
                        data: vec![c as u8; 64].into(),
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn connect_to_stopped_server_is_unavailable() {
        let mut server = TcpServer::spawn(
            ServerId::new(0),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let addr = server.addr();
        server.shutdown();
        drop(server);
        let transport = TcpTransport::with_servers([(ServerId::new(0), addr)]);
        // Either connect fails or the first call does; both surface as
        // ServerUnavailable.
        match transport.connect(ServerId::new(0), ClientId::new(0)) {
            Err(e) => assert!(matches!(e, SwarmError::ServerUnavailable(_)), "{e}"),
            Ok(mut conn) => {
                let err = conn.call(&Request::Ping).unwrap_err();
                assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
            }
        }
    }

    #[test]
    fn unknown_server_id_fails_fast() {
        let transport = TcpTransport::new();
        assert!(transport
            .connect(ServerId::new(1), ClientId::new(0))
            .is_err());
    }

    /// Regression test: a server that accepts the handshake but never
    /// answers a request used to wedge the client forever; with call
    /// timeouts the call fails as ServerUnavailable within the timeout.
    #[test]
    fn call_times_out_on_hung_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let _hello = read_frame(&mut reader).unwrap();
            let mut w = ByteWriter::new();
            ServerId::new(9).encode(&mut w);
            write_frame(&mut writer, w.as_slice()).unwrap();
            // Swallow the request and never reply; exit when the client
            // hangs up (the read fails once the connection is dropped).
            let _req = read_frame(&mut reader);
            let _ = read_frame(&mut reader);
        });

        let transport = TcpTransport::with_servers([(ServerId::new(9), addr)]);
        transport.set_call_timeout(Some(Duration::from_millis(200)));
        let mut conn = transport
            .connect(ServerId::new(9), ClientId::new(1))
            .unwrap();
        let start = std::time::Instant::now();
        let err = conn.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "hung for {:?} instead of timing out",
            start.elapsed()
        );
        drop(conn);
        // Dropping the transport closes the mux socket (the stall thread
        // is blocked reading from it).
        drop(transport);
        stall.join().unwrap();
    }

    /// A peer that completes the dial but sends a garbled handshake ack
    /// must surface as ServerUnavailable (so retry engages), not as a raw
    /// decode error.
    #[test]
    fn garbled_handshake_is_unavailable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let imposter = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let _hello = read_frame(&mut reader).unwrap();
            // Reply with a frame that is not a ServerId encoding.
            write_frame(&mut writer, b"not a server id").unwrap();
        });
        let transport = TcpTransport::with_servers([(ServerId::new(2), addr)]);
        let err = match transport.connect(ServerId::new(2), ClientId::new(1)) {
            Ok(_) => panic!("garbled handshake should fail to connect"),
            Err(err) => err,
        };
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        imposter.join().unwrap();
    }

    /// Large stores arrive intact through the vectored write path and a
    /// prepared request can be replayed on a fresh connection without
    /// re-encoding.
    #[test]
    fn vectored_store_and_prepared_call_roundtrip() {
        let server = TcpServer::spawn(
            ServerId::new(0),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let transport = TcpTransport::with_servers([(ServerId::new(0), server.addr())]);
        let mut conn = transport
            .connect(ServerId::new(0), ClientId::new(5))
            .unwrap();
        let data: Vec<u8> = (0..(256 * 1024u32)).map(|i| (i % 251) as u8).collect();
        let fid = FragmentId::new(ClientId::new(5), 7);
        let prepared = PreparedRequest::new(Request::Store {
            fid,
            marked: false,
            ranges: vec![],
            data: data.clone().into(),
        });
        assert_eq!(conn.call_prepared(&prepared).unwrap(), Response::Ok);
        let resp = conn
            .call(&Request::Read {
                fid,
                offset: 0,
                len: data.len() as u32,
            })
            .unwrap();
        assert_eq!(resp, Response::Data(data.into()));
    }

    /// The configured timeout is observable and `None` restores blocking
    /// semantics for newly opened connections.
    #[test]
    fn call_timeout_is_configurable() {
        let transport = TcpTransport::new();
        assert_eq!(transport.call_timeout(), Some(DEFAULT_CALL_TIMEOUT));
        transport.set_call_timeout(Some(Duration::from_secs(1)));
        assert_eq!(transport.call_timeout(), Some(Duration::from_secs(1)));
        transport.set_call_timeout(None);
        assert_eq!(transport.call_timeout(), None);
    }

    /// One multiplexed connection sustains at least 8 concurrently
    /// in-flight calls: a barrier handler refuses to answer any of the 8
    /// until all 8 have *arrived*, which is only possible if they share
    /// the socket and pipeline.
    #[test]
    fn pipelined_calls_share_one_connection() {
        struct BarrierHandler(std::sync::Barrier);
        impl RequestHandler for BarrierHandler {
            fn handle(&self, _client: ClientId, _request: Request) -> Response {
                self.0.wait();
                Response::Ok
            }
        }
        const CALLS: usize = 8;
        let server = TcpServer::spawn_with_config(
            ServerId::new(7),
            "127.0.0.1:0",
            Arc::new(BarrierHandler(std::sync::Barrier::new(CALLS))),
            ServerConfig {
                workers: CALLS,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let transport = Arc::new(TcpTransport::with_servers([(
            ServerId::new(7),
            server.addr(),
        )]));
        let handles: Vec<_> = (0..CALLS)
            .map(|_| {
                let t = transport.clone();
                std::thread::spawn(move || {
                    let mut conn = t.connect(ServerId::new(7), ClientId::new(1)).unwrap();
                    conn.call(&Request::Ping).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Response::Ok);
        }
        assert_eq!(
            transport.mux_channels(),
            1,
            "all 8 calls must share one socket"
        );
        assert!(
            transport.mux_inflight_peak() >= CALLS,
            "peak in-flight {} < {CALLS}",
            transport.mux_inflight_peak()
        );
    }

    /// A connection that goes silent mid-frame is reaped by the read
    /// deadline while a healthy connection on the same server keeps
    /// serving.
    #[test]
    fn stalled_connection_is_reaped_while_healthy_conn_serves() {
        let server = TcpServer::spawn_with_config(
            ServerId::new(4),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
            ServerConfig {
                read_deadline: Some(Duration::from_millis(150)),
                ..ServerConfig::default()
            },
        )
        .unwrap();

        // Slow loris: real handshake, then 4 bytes of a frame header, then
        // silence.
        let mut loris = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut loris, &crate::mux::encode_mux_hello(ClientId::new(99))).unwrap();
        let ack = read_frame(&mut loris).unwrap();
        assert_eq!(ServerId::decode_all(&ack).unwrap(), ServerId::new(4));
        loris
            .write_all(&swarm_types::constants::FRAME_MAGIC.to_le_bytes())
            .unwrap();
        loris.flush().unwrap();

        let reaped_before = swarm_metrics::snapshot().counter("net.server.conns_reaped");

        // Healthy client keeps getting served across the loris's reaping.
        // Tests share one core, so this client may itself go quiet past
        // the (short) deadline and be reaped — that is the deadline
        // working as designed, and a real client redials; the assertion
        // is that the *server* keeps answering throughout.
        let transport = TcpTransport::with_servers([(ServerId::new(4), server.addr())]);
        let mut conn = transport
            .connect(ServerId::new(4), ClientId::new(1))
            .unwrap();
        let mut ping = move || {
            let resp = match conn.call(&Request::Ping) {
                Ok(resp) => resp,
                Err(_) => {
                    conn = transport
                        .connect(ServerId::new(4), ClientId::new(1))
                        .unwrap();
                    conn.call(&Request::Ping).unwrap()
                }
            };
            assert_eq!(resp, Response::Ok);
        };

        // The loris is severed when its socket reads EOF/reset (a read
        // *timeout* is not severance — keep waiting).
        loris
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut buf = [0u8; 16];
        use std::io::Read;
        loop {
            ping();
            match loris.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => panic!("reaped conn sent {n} bytes"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(
                        Instant::now() < deadline,
                        "stalled connection was never reaped"
                    );
                }
                Err(_) => break, // reset is also a severed connection
            }
        }
        let reaped_after = swarm_metrics::snapshot().counter("net.server.conns_reaped");
        assert!(reaped_after > reaped_before, "reap not counted");
        // And the server still answers after the reap.
        ping();
    }

    /// A healthy-but-idle pooled connection is also reaped (freeing
    /// server state); the client transparently redials on next use.
    #[test]
    fn idle_connection_reap_is_transparent_to_pool() {
        let server = TcpServer::spawn_with_config(
            ServerId::new(6),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
            ServerConfig {
                read_deadline: Some(Duration::from_millis(100)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let transport = Arc::new(TcpTransport::with_servers([(
            ServerId::new(6),
            server.addr(),
        )]));
        let pool = crate::pool::ConnectionPool::new(transport.clone(), ClientId::new(1));
        assert_eq!(
            pool.call(ServerId::new(6), &Request::Ping).unwrap(),
            Response::Ok
        );
        // Idle well past the server deadline; the channel dies server-side.
        std::thread::sleep(Duration::from_millis(400));
        // The pool's transparent redial absorbs the reaped connection.
        assert_eq!(
            pool.call(ServerId::new(6), &Request::Ping).unwrap(),
            Response::Ok
        );
    }

    /// A saturated epoll server with a bounded per-client backlog answers
    /// excess stores with `Busy` pushback instead of queueing unboundedly;
    /// reads are never bounced.
    #[test]
    fn saturated_epoll_server_bounces_stores_with_busy() {
        struct SlowStore;
        impl RequestHandler for SlowStore {
            fn handle(&self, _client: ClientId, _request: Request) -> Response {
                std::thread::sleep(Duration::from_millis(5));
                Response::Ok
            }
        }
        let server = TcpServer::spawn_with_config(
            ServerId::new(9),
            "127.0.0.1:0",
            Arc::new(SlowStore),
            ServerConfig {
                workers: 1,
                admission: crate::admission::AdmissionConfig {
                    quantum: 4096,
                    max_client_backlog: 1,
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let throttled_before = swarm_metrics::snapshot().counter("server.client_throttled");
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let mut conn = transport.connect(server.id(), ClientId::new(1)).unwrap();
        // Pipeline a burst of stores: with one worker, a 5 ms handler, and
        // a backlog of one, most of the burst must bounce.
        let mut pending = Vec::new();
        for i in 0..48 {
            let prepared = PreparedRequest::new(Request::Store {
                fid: FragmentId::new(ClientId::new(1), i),
                marked: false,
                ranges: vec![],
                data: vec![0u8; 512].into(),
            });
            pending.push(conn.start_prepared(&prepared));
        }
        let mut busy = 0;
        for p in pending {
            match p.wait().unwrap().into_result() {
                Ok(_) => {}
                Err(SwarmError::Busy(s)) => {
                    assert_eq!(s, server.id(), "Busy names the throttling server");
                    busy += 1;
                }
                Err(e) => panic!("unexpected store outcome: {e}"),
            }
        }
        assert!(busy > 0, "no store was throttled");
        let throttled_after = swarm_metrics::snapshot().counter("server.client_throttled");
        assert!(
            throttled_after - throttled_before >= busy,
            "throttle counter moved by {} for {busy} bounces",
            throttled_after - throttled_before
        );
        // A read on the same saturated connection queues rather than
        // bouncing (only stores are rejectable).
        let resp = conn
            .call(&Request::Read {
                fid: FragmentId::new(ClientId::new(1), 0),
                offset: 0,
                len: 1,
            })
            .unwrap();
        assert!(
            !matches!(resp.into_result(), Err(SwarmError::Busy(_))),
            "a read must never bounce with Busy"
        );
    }
}
