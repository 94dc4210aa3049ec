//! Networking substrate for Swarm: framing, the client↔server request
//! protocol, and pluggable transports.
//!
//! The paper's storage servers export a tiny fragment-oriented interface
//! (§2.3): store, read, delete, preallocate, and "query the FID of the last
//! marked fragment", plus ACL management. This crate defines that protocol
//! as typed [`Request`]/[`Response`] enums over a checksummed binary frame
//! format, and a [`Transport`] abstraction with two implementations:
//!
//! * [`MemTransport`] — in-process dispatch with fault injection (server
//!   down, dropped calls). Used by tests, examples, and benchmarks: it is
//!   the moral equivalent of the paper's switched Ethernet for functional
//!   purposes.
//! * [`tcp::TcpTransport`] / [`tcp::TcpServer`] — real sockets driven by
//!   an epoll reactor, with handlers run on a bounded [`WorkerPool`],
//!   matching the prototype's user-level server processes. Linux-only.
//!
//! The paper locates stripe neighbours by *broadcast* (§2.3.3). Both
//! transports expose the member set, and the [`broadcast`] helper simply
//! queries every server — the same observable semantics on a switched
//! network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod fault;
pub mod frame;
pub mod handler;
pub mod mem;
mod mux;
pub mod pool;
pub mod proto;
pub mod reactor;
pub mod tcp;
pub mod transport;
pub mod workpool;

pub use admission::{Admission, AdmissionConfig, Submitted};
pub use fault::{FaultHandler, FaultPlan, FaultTransport};
pub use frame::{frame_header_for, read_frame, write_frame};
pub use handler::RequestHandler;
pub use mem::MemTransport;
pub use pool::ConnectionPool;
pub use proto::{
    BatchItem, BatchReply, HintSpec, PreparedRequest, ReadSpec, Request, Response, ServerStats,
    StoreRange,
};
pub use reactor::Runtime;
pub use transport::{
    broadcast, peer_server_id, Connection, PeerHost, PeerTransport, PendingCall, Transport,
    PEER_SERVER_BASE,
};
pub use workpool::WorkerPool;
