//! `TcpServer::shutdown` waits for handlers that are already running and
//! joins the worker pool on the calling thread. Kept in its own test
//! binary because it reads the process-global `net.workpool_panics`
//! counter, which other tests bump on purpose.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swarm_net::tcp::{TcpServer, TcpTransport};
use swarm_net::{PreparedRequest, Request, RequestHandler, Response, Transport};
use swarm_types::{ClientId, ServerId};

const HANDLER_TIME: Duration = Duration::from_millis(300);

/// Sleeps through every request, flagging when it starts and finishes.
#[derive(Default)]
struct SlowHandler {
    started: AtomicBool,
    finished: AtomicBool,
}

impl RequestHandler for SlowHandler {
    fn handle(&self, _client: ClientId, _request: Request) -> Response {
        self.started.store(true, Ordering::SeqCst);
        std::thread::sleep(HANDLER_TIME);
        self.finished.store(true, Ordering::SeqCst);
        Response::Ok
    }
}

#[test]
fn shutdown_waits_for_in_flight_handler_and_joins_workers() {
    let handler = Arc::new(SlowHandler::default());
    let id = ServerId::new(0);
    let mut server = TcpServer::spawn(id, "127.0.0.1:0", handler.clone()).unwrap();
    let transport = TcpTransport::with_servers([(id, server.addr())]);
    let mut conn = transport.connect(id, ClientId::new(1)).unwrap();
    let pending = conn.start_prepared(&PreparedRequest::new(Request::Ping));

    let waited = Instant::now();
    while !handler.started.load(Ordering::SeqCst) {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "handler never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let panics_before = swarm_metrics::snapshot().counter("net.workpool_panics");
    let started = Instant::now();
    server.shutdown();
    assert!(
        handler.finished.load(Ordering::SeqCst),
        "shutdown returned after {:?} with the handler still running",
        started.elapsed()
    );
    drop(server);
    // The reply may or may not have left before the socket closed; either
    // way the call settles instead of hanging.
    let _ = pending.wait();
    let panics_after = swarm_metrics::snapshot().counter("net.workpool_panics");
    assert_eq!(panics_after, panics_before, "a worker panicked on shutdown");
}
