//! Client-side transport abstraction.

use std::sync::Arc;

use swarm_types::{ClientId, Result, ServerId};

use crate::handler::RequestHandler;
use crate::proto::{PreparedRequest, Request, Response};

/// An RPC that has been shipped but whose response has not been consumed.
///
/// [`Connection::start_prepared`] returns one of these; pipelined callers
/// hold a window of them and [`PendingCall::wait`] each when they choose,
/// in any order. Transports without genuine pipelining complete the call
/// inside `start_prepared` and hand back a `Ready` — callers get identical
/// semantics (window degrades to 1 effective slot) with no special-casing.
pub enum PendingCall {
    /// The call already completed (synchronous transports, or an error at
    /// submission time).
    Ready(Result<Response>),
    /// The call is in flight; the closure blocks until its response lands.
    Deferred(Box<dyn FnOnce() -> Result<Response> + Send>),
}

impl PendingCall {
    /// Wraps an already-completed call.
    pub fn ready(result: Result<Response>) -> PendingCall {
        PendingCall::Ready(result)
    }

    /// Wraps an in-flight call whose completion `wait` will block on.
    pub fn deferred(wait: impl FnOnce() -> Result<Response> + Send + 'static) -> PendingCall {
        PendingCall::Deferred(Box::new(wait))
    }

    /// Blocks until the response is available and returns it.
    ///
    /// # Errors
    ///
    /// As for [`Connection::call`].
    pub fn wait(self) -> Result<Response> {
        match self {
            PendingCall::Ready(r) => r,
            PendingCall::Deferred(f) => f(),
        }
    }
}

/// A live connection from a client to one storage server.
pub trait Connection: Send {
    /// Sends a request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::ServerUnavailable`] (or an I/O
    /// error) if the server cannot be reached; protocol-level failures are
    /// returned inside the [`Response`] (`Response::Err`) so callers can
    /// distinguish "server said no" from "server gone".
    fn call(&mut self, request: &Request) -> Result<Response>;

    /// Sends a pre-encoded request (see [`PreparedRequest`]).
    ///
    /// Retry loops prepare a request once and call this on every attempt;
    /// wire transports override it to reuse the prepared header and
    /// payload without re-encoding. The default delegates to
    /// [`Connection::call`] for transports that dispatch in-process.
    ///
    /// # Errors
    ///
    /// As for [`Connection::call`].
    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.call(prepared.request())
    }

    /// Ships a pre-encoded request without waiting for the reply.
    ///
    /// Pipelined callers keep up to [`Connection::pipeline_width`] of the
    /// returned [`PendingCall`]s outstanding and harvest them in any
    /// order. The default completes the call synchronously (one effective
    /// slot), which is correct for synchronous in-process transports; the
    /// mux transport overrides it to put many requests on the wire first.
    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        PendingCall::ready(self.call_prepared(prepared))
    }

    /// How many [`Connection::start_prepared`] calls can usefully be in
    /// flight at once on this connection (1 = no pipelining).
    fn pipeline_width(&self) -> usize {
        1
    }

    /// The server this connection talks to.
    fn server(&self) -> ServerId;
}

/// A factory for connections to the servers of a Swarm cluster.
///
/// Swarm clients keep one logical connection per server in their stripe
/// group; reconstruction additionally contacts every member returned by
/// [`Transport::servers`] (the paper's broadcast, §2.3.3).
pub trait Transport: Send + Sync {
    /// Opens a connection to `server`, authenticated as `client`.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::ServerUnavailable`] if the server
    /// is unknown or down.
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>>;

    /// All servers currently part of the cluster, in id order.
    fn servers(&self) -> Vec<ServerId>;
}

impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        (**self).connect(server, client)
    }

    fn servers(&self) -> Vec<ServerId> {
        (**self).servers()
    }
}

/// The reserved [`ServerId`] bit marking client-embedded peer responders.
///
/// Cooperative-cache peers are dialed through the same [`Transport`]
/// machinery as storage servers, but they are *not* cluster members: they
/// never appear in [`Transport::servers`], so locate broadcasts and
/// reconstruction fan-out skip them. Setting the top-ish bit keeps the two
/// id spaces disjoint without a second addressing scheme.
pub const PEER_SERVER_BASE: u32 = 0x4000_0000;

/// The [`ServerId`] a client's cooperative-cache responder is published at.
pub fn peer_server_id(client: ClientId) -> ServerId {
    ServerId::new(PEER_SERVER_BASE | client.raw())
}

/// A transport that can additionally host client-embedded peer responders
/// (the cooperative cache's `PeerRead` servers).
///
/// `publish` makes `handler` dialable at `peer` by every other client of
/// the same transport; `withdraw` removes it. Published peers are invisible
/// to [`Transport::servers`] — they serve point-to-point fetches only.
pub trait PeerHost: Send + Sync {
    /// Publishes `handler` at `peer` so other clients can dial it.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport cannot host a responder (e.g. a
    /// TCP listener cannot be bound).
    fn publish(&self, peer: ServerId, handler: Arc<dyn RequestHandler>) -> Result<()>;

    /// Withdraws a previously published peer responder. Dials to `peer`
    /// fail with `ServerUnavailable` afterwards; idempotent.
    fn withdraw(&self, peer: ServerId);
}

impl<T: PeerHost + ?Sized> PeerHost for Arc<T> {
    fn publish(&self, peer: ServerId, handler: Arc<dyn RequestHandler>) -> Result<()> {
        (**self).publish(peer, handler)
    }

    fn withdraw(&self, peer: ServerId) {
        (**self).withdraw(peer)
    }
}

/// A transport that both dials servers and hosts peer responders — what
/// the cooperative cache needs from its network. Blanket-implemented for
/// every `Transport + PeerHost` (both built-in transports qualify).
pub trait PeerTransport: Transport + PeerHost {}

impl<T: Transport + PeerHost + ?Sized> PeerTransport for T {}

/// Sends `request` to every server in the cluster and collects the replies
/// that arrive, skipping servers that are down.
///
/// This is the paper's broadcast primitive (§2.3.3): "A client finds
/// fragment N-1 and N+1 by broadcasting to all storage servers." Servers
/// that cannot be reached are absent from the result — exactly the failure
/// reconstruction is designed to tolerate — but every skipped server is
/// counted in `net.broadcast_errors` and traced, so a half-deaf cluster
/// shows up in stats instead of silently degrading.
///
/// This serial, connection-per-call helper is kept for one-shot callers;
/// the read engine uses the parallel [`crate::ConnectionPool::broadcast`].
pub fn broadcast<T: Transport + ?Sized>(
    transport: &T,
    client: ClientId,
    request: &Request,
) -> Vec<(ServerId, Response)> {
    let mut replies = Vec::new();
    for server in transport.servers() {
        let conn = match transport.connect(server, client) {
            Ok(conn) => conn,
            Err(e) => {
                crate::pool::note_broadcast_error(server, &e);
                continue;
            }
        };
        let mut conn = conn;
        match conn.call(request) {
            Ok(resp) => replies.push((server, resp)),
            Err(e) => crate::pool::note_broadcast_error(server, &e),
        }
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemTransport;
    use crate::proto::Request;
    use std::sync::Arc;

    #[test]
    fn broadcast_skips_down_servers() {
        let transport = MemTransport::new();
        for i in 0..3 {
            transport.register(
                ServerId::new(i),
                Arc::new(crate::handler::testing::EchoStore::default()),
            );
        }
        transport.set_down(ServerId::new(1), true);
        let replies = broadcast(&transport, ClientId::new(0), &Request::Ping);
        let ids: Vec<u32> = replies.iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(ids, vec![0, 2]);
    }
}
