//! In-memory spans and the three decorators that time the lower layers
//! from outside: a client [`Transport`]/[`Connection`] decorator, a server
//! [`RequestHandler`] decorator and a [`FragmentStore`] decorator.
//!
//! Every decorator forwards every trait method, the defaulted ones too
//! (`call_prepared`, `start_prepared`, `pipeline_width`,
//! `try_handle_fast`): a decorator that fell back on a default would turn
//! window-8 pipelining into window 1 and switch the reactor fast path off,
//! and the trace would then describe a different system.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use swarm_net::{
    Connection, PendingCall, PreparedRequest, Request, RequestHandler, Response, Transport,
};
use swarm_server::{FragmentMeta, FragmentStore};
use swarm_types::{Bytes, ClientId, FragmentId, Result, ServerId, SwarmError};

/// RPC kinds the per-layer metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RpcKind {
    Store,
    Read,
    ReadBatch,
    Other,
}

impl RpcKind {
    pub const ALL: [RpcKind; 4] = [
        RpcKind::Store,
        RpcKind::Read,
        RpcKind::ReadBatch,
        RpcKind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Store => "store",
            RpcKind::Read => "read",
            RpcKind::ReadBatch => "read_batch",
            RpcKind::Other => "other",
        }
    }

    /// The kind of `request` and the fragment id it carries (the first
    /// read's for a batch; 0 when it names none).
    pub fn of(request: &Request) -> (RpcKind, u64) {
        match request {
            Request::Store { fid, .. } => (RpcKind::Store, fid.raw()),
            Request::Read { fid, .. } => (RpcKind::Read, fid.raw()),
            Request::ReadBatch { reads } => {
                (RpcKind::ReadBatch, reads.first().map_or(0, |r| r.fid.raw()))
            }
            _ => (RpcKind::Other, 0),
        }
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `Log::append_block` (and the delete record of an update).
    Append,
    /// `Log::flush`.
    Flush,
    /// `Log::read`.
    Read,
    /// `Log::read_many`.
    ReadMany,
    /// `Cleaner::clean_pass`.
    CleanerPass,
    /// A client RPC, from issue to response (deferred calls: to harvest).
    Rpc(RpcKind),
    /// `RequestHandler::handle` on a server.
    Handle(RpcKind),
    /// A read answered by `RequestHandler::try_handle_fast`.
    FastRead,
    /// `FragmentStore::store`.
    StoreWrite,
    /// `FragmentStore::read`.
    StoreRead,
    /// `FragmentStore::delete` (journaled like a store).
    StoreDelete,
}

impl Kind {
    pub fn name(self) -> String {
        match self {
            Kind::Append => "log.append".into(),
            Kind::Flush => "log.flush".into(),
            Kind::Read => "log.read".into(),
            Kind::ReadMany => "log.read_many".into(),
            Kind::CleanerPass => "cleaner.pass".into(),
            Kind::Rpc(k) => format!("net.rpc.{}", k.name()),
            Kind::Handle(k) => format!("server.handle.{}", k.name()),
            Kind::FastRead => "server.fast_read".into(),
            Kind::StoreWrite => "store.write".into(),
            Kind::StoreRead => "store.read".into(),
            Kind::StoreDelete => "store.delete".into(),
        }
    }
}

/// Span flag: the operation sealed at least one fragment.
pub const SEALED: u8 = 1;
/// Span flag: the operation rebuilt a fragment from parity.
pub const RECONSTRUCTED: u8 = 2;
/// Span flag: every block came from the client cache.
pub const CACHE_HIT: u8 = 4;
/// Span flag: a deferred RPC, stamped when harvested, not on arrival.
pub const DEFERRED: u8 = 8;
/// Span flag: the call failed (transport error or error response).
pub const ERROR: u8 = 16;
/// Span flag: the server answered `Busy` (admission throttled).
pub const BUSY: u8 = 32;

/// What a benchmark operation did, from the log's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpInfo {
    pub flags: u8,
    pub blocks: u32,
    pub hits: u32,
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub kind: Kind,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// The span that caused this one, when it is known at record time
    /// (0 otherwise; see [`crate::layers`] for the links made later).
    pub parent: u64,
    /// The benchmark operation this span serves (0 when unknown).
    pub op: u64,
    pub client: u32,
    /// Server id, or `u32::MAX` on the client side.
    pub server: u32,
    /// Raw fragment id the request names (0 when none).
    pub fid: u64,
    pub flags: u8,
    /// Read operations: blocks read, and how many of them the client
    /// cache served.
    pub blocks: u32,
    pub hits: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span sink. Spans are kept in memory and written out once the run
/// ends; only spans that start while the tracer is armed are kept.
pub struct Tracer {
    epoch: Instant,
    armed: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    fast_offered: AtomicU64,
    fast_answered: AtomicU64,
}

thread_local! {
    /// `(op id, span id)` of the benchmark operation running on this
    /// thread; client RPCs issued from it inherit both.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            armed: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            fast_offered: AtomicU64::new(0),
            fast_answered: AtomicU64::new(0),
        })
    }

    /// Starts (or stops) keeping spans.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span whose start was read from [`Tracer::now`].
    pub fn record(&self, mut span: Span) {
        if span.id == 0 {
            span.id = self.next_id();
        }
        self.spans.lock().push(span);
    }

    /// Runs `f` as benchmark operation `kind` of `client`: RPCs it issues
    /// from this thread carry its op id. `f` returns its result and the
    /// span's flags; nothing is recorded while the tracer is not armed.
    pub fn op<T>(&self, kind: Kind, client: u32, f: impl FnOnce() -> (T, OpInfo)) -> T {
        if !self.armed() {
            return f().0;
        }
        let id = self.next_id();
        let prev = CURRENT.with(|c| c.replace((id, id)));
        let start = self.now();
        let (out, info) = f();
        let end = self.now();
        CURRENT.with(|c| c.set(prev));
        self.record(Span {
            id,
            kind,
            start,
            end,
            parent: 0,
            op: id,
            client,
            server: u32::MAX,
            fid: 0,
            flags: info.flags,
            blocks: info.blocks,
            hits: info.hits,
        });
        out
    }

    /// Fast-path reads offered to and answered by the server handlers.
    pub fn fast_path(&self) -> (u64, u64) {
        (
            self.fast_offered.load(Ordering::Relaxed),
            self.fast_answered.load(Ordering::Relaxed),
        )
    }

    /// Every recorded span; the sink is emptied.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

fn response_flags(response: &Response) -> u8 {
    match response {
        Response::Err { code, .. } if *code == swarm_net::proto::wire_error::code::BUSY => {
            ERROR | BUSY
        }
        Response::Err { .. } => ERROR,
        _ => 0,
    }
}

fn outcome_flags(result: &Result<Response>) -> u8 {
    match result {
        Ok(response) => response_flags(response),
        Err(SwarmError::Busy(_)) => ERROR | BUSY,
        Err(_) => ERROR,
    }
}

/// Client-side decorator: wraps every connection the inner transport
/// hands out in a [`TracedConnection`].
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> TracedTransport {
        TracedTransport { inner, tracer }
    }
}

impl Transport for TracedTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        let inner = self.inner.connect(server, client)?;
        Ok(Box::new(TracedConnection {
            inner,
            client,
            tracer: self.tracer.clone(),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

/// Times each RPC from issue to response.
pub struct TracedConnection {
    inner: Box<dyn Connection>,
    client: ClientId,
    tracer: Arc<Tracer>,
}

/// What a client RPC span needs, captured when the call is issued.
struct RpcStart {
    tracer: Arc<Tracer>,
    kind: RpcKind,
    fid: u64,
    client: u32,
    server: u32,
    ctx: (u64, u64),
    start: u64,
}

impl RpcStart {
    fn finish(self, result: &Result<Response>, extra: u8) {
        let end = self.tracer.now();
        self.tracer.record(Span {
            id: 0,
            kind: Kind::Rpc(self.kind),
            start: self.start,
            end,
            parent: self.ctx.1,
            op: self.ctx.0,
            client: self.client,
            server: self.server,
            fid: self.fid,
            flags: outcome_flags(result) | extra,
            blocks: 0,
            hits: 0,
        });
    }
}

impl TracedConnection {
    fn begin(&self, request: &Request) -> Option<RpcStart> {
        if !self.tracer.armed() {
            return None;
        }
        let (kind, fid) = RpcKind::of(request);
        Some(RpcStart {
            tracer: self.tracer.clone(),
            kind,
            fid,
            client: self.client.raw(),
            server: self.inner.server().raw(),
            ctx: CURRENT.with(Cell::get),
            start: self.tracer.now(),
        })
    }
}

impl Connection for TracedConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        let started = self.begin(request);
        let result = self.inner.call(request);
        if let Some(s) = started {
            s.finish(&result, 0);
        }
        result
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        let started = self.begin(prepared.request());
        let result = self.inner.call_prepared(prepared);
        if let Some(s) = started {
            s.finish(&result, 0);
        }
        result
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let started = self.begin(prepared.request());
        match (self.inner.start_prepared(prepared), started) {
            (pending, None) => pending,
            (PendingCall::Ready(result), Some(s)) => {
                s.finish(&result, 0);
                PendingCall::Ready(result)
            }
            (PendingCall::Deferred(wait), Some(s)) => PendingCall::deferred(move || {
                let result = wait();
                s.finish(&result, DEFERRED);
                result
            }),
        }
    }

    fn pipeline_width(&self) -> usize {
        self.inner.pipeline_width()
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

/// Server-side decorator around a [`RequestHandler`].
pub struct TracedHandler {
    inner: Arc<dyn RequestHandler>,
    server: ServerId,
    tracer: Arc<Tracer>,
}

impl TracedHandler {
    pub fn new(inner: Arc<dyn RequestHandler>, server: ServerId, tracer: Arc<Tracer>) -> Self {
        TracedHandler {
            inner,
            server,
            tracer,
        }
    }

    fn span(&self, kind: Kind, client: ClientId, fid: u64, start: u64, flags: u8) {
        self.tracer.record(Span {
            id: 0,
            kind,
            start,
            end: self.tracer.now(),
            parent: 0,
            op: 0,
            client: client.raw(),
            server: self.server.raw(),
            fid,
            flags,
            blocks: 0,
            hits: 0,
        });
    }
}

impl RequestHandler for TracedHandler {
    fn handle(&self, client: ClientId, request: Request) -> Response {
        if !self.tracer.armed() {
            return self.inner.handle(client, request);
        }
        let (kind, fid) = RpcKind::of(&request);
        let start = self.tracer.now();
        let response = self.inner.handle(client, request);
        self.span(
            Kind::Handle(kind),
            client,
            fid,
            start,
            response_flags(&response),
        );
        response
    }

    fn try_handle_fast(&self, client: ClientId, request: &Request) -> Option<Response> {
        if !self.tracer.armed() {
            return self.inner.try_handle_fast(client, request);
        }
        let (_, fid) = RpcKind::of(request);
        let start = self.tracer.now();
        let response = self.inner.try_handle_fast(client, request);
        self.tracer.fast_offered.fetch_add(1, Ordering::Relaxed);
        if response.is_some() {
            self.tracer.fast_answered.fetch_add(1, Ordering::Relaxed);
            self.span(Kind::FastRead, client, fid, start, 0);
        }
        response
    }
}

/// Decorator around a [`FragmentStore`]: times stores, reads and deletes,
/// forwards everything else untouched.
pub struct TracedStore<S> {
    inner: S,
    server: ServerId,
    tracer: Arc<Tracer>,
}

impl<S: FragmentStore> TracedStore<S> {
    pub fn new(inner: S, server: ServerId, tracer: Arc<Tracer>) -> Self {
        TracedStore {
            inner,
            server,
            tracer,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed<T>(&self, kind: Kind, fid: FragmentId, f: impl FnOnce() -> Result<T>) -> Result<T> {
        if !self.tracer.armed() {
            return f();
        }
        let start = self.tracer.now();
        let result = f();
        self.tracer.record(Span {
            id: 0,
            kind,
            start,
            end: self.tracer.now(),
            parent: 0,
            op: 0,
            client: fid.client().raw(),
            server: self.server.raw(),
            fid: fid.raw(),
            flags: if result.is_err() { ERROR } else { 0 },
            blocks: 0,
            hits: 0,
        });
        result
    }
}

impl<S: FragmentStore> FragmentStore for TracedStore<S> {
    fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()> {
        self.timed(Kind::StoreWrite, fid, || {
            self.inner.store(fid, data, marked)
        })
    }

    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes> {
        self.timed(Kind::StoreRead, fid, || self.inner.read(fid, offset, len))
    }

    fn delete(&self, fid: FragmentId) -> Result<()> {
        self.timed(Kind::StoreDelete, fid, || self.inner.delete(fid))
    }

    fn preallocate(&self, fid: FragmentId, len: u32) -> Result<()> {
        self.inner.preallocate(fid, len)
    }

    fn meta(&self, fid: FragmentId) -> Option<FragmentMeta> {
        self.inner.meta(fid)
    }

    fn last_marked(&self, client: ClientId) -> Option<FragmentId> {
        self.inner.last_marked(client)
    }

    fn list(&self) -> Vec<FragmentId> {
        self.inner.list()
    }

    fn fragment_count(&self) -> u64 {
        self.inner.fragment_count()
    }

    fn byte_count(&self) -> u64 {
        self.inner.byte_count()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}
