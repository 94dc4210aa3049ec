//! The in-process cluster every workload runs on: the stack a deployment
//! gets from `swarmd`, five times over loopback.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use swarm_log::{Log, LogConfig};
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::{RequestHandler, Runtime, Transport};
use swarm_server::{Durability, FileStore, StorageServer};
use swarm_types::{ClientId, Result, ServerId};

use crate::trace::{TracedHandler, TracedStore, TracedTransport, Tracer};

/// Servers in the stripe group: 4 data + 1 XOR parity, the paper's shape.
pub const SERVERS: u32 = 5;

/// Server read cache, in fragments, for every workload. At 1 MiB
/// fragments the five caches hold 160 MiB combined.
pub const SERVER_CACHE_FRAGMENTS: usize = 32;

/// The server shut down after the preload of `scan_degraded`.
pub const KILLED_SERVER: u32 = 2;

enum Node {
    Plain(Arc<StorageServer<FileStore>>),
    Traced(Arc<StorageServer<TracedStore<FileStore>>>),
}

impl Node {
    fn file_store(&self) -> &FileStore {
        match self {
            Node::Plain(s) => s.store(),
            Node::Traced(s) => s.store().inner(),
        }
    }
}

/// Totals over every server's [`FileStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    pub bytes: u64,
    pub journal_batches: u64,
}

/// Five `TcpServer`s (epoll runtime, default config), each a
/// `StorageServer` over a `FileStore`.
pub struct Cluster {
    root: PathBuf,
    servers: Vec<Option<TcpServer>>,
    nodes: Vec<Node>,
    addrs: Vec<(ServerId, SocketAddr)>,
    tracer: Option<Arc<Tracer>>,
}

impl Cluster {
    /// Spawns the cluster with its stores under `root`, which must not
    /// exist yet. With a tracer, every handler and store is decorated.
    pub fn spawn(root: &Path, tracer: Option<Arc<Tracer>>) -> Result<Cluster> {
        let mut cluster = Cluster {
            root: root.to_path_buf(),
            servers: Vec::new(),
            nodes: Vec::new(),
            addrs: Vec::new(),
            tracer: tracer.clone(),
        };
        for i in 0..SERVERS {
            let id = ServerId::new(i);
            // No fsync: the stores must live inside the run directory, and
            // on a virtual disk the fsync latency of a Strict store swings
            // several-fold between runs (README.md, "Cluster and set-up").
            let store =
                FileStore::open_with_durability(root.join(format!("s{i}")), 0, Durability::None)?;
            let handler: Arc<dyn RequestHandler> = match &tracer {
                None => {
                    let server = StorageServer::new(id, store)
                        .with_read_cache(SERVER_CACHE_FRAGMENTS)
                        .into_shared();
                    cluster.nodes.push(Node::Plain(server.clone()));
                    server
                }
                Some(t) => {
                    let store = TracedStore::new(store, id, t.clone());
                    let server = StorageServer::new(id, store)
                        .with_read_cache(SERVER_CACHE_FRAGMENTS)
                        .into_shared();
                    cluster.nodes.push(Node::Traced(server.clone()));
                    Arc::new(TracedHandler::new(server, id, t.clone()))
                }
            };
            let server = TcpServer::spawn_with_config(
                id,
                "127.0.0.1:0",
                handler,
                ServerConfig {
                    runtime: Runtime::Epoll,
                    ..ServerConfig::default()
                },
            )?;
            cluster.addrs.push((id, server.addr()));
            cluster.servers.push(Some(server));
        }
        Ok(cluster)
    }

    /// Every server's id and listening address.
    pub fn addrs(&self) -> Vec<(ServerId, SocketAddr)> {
        self.addrs.clone()
    }

    /// A client log with the default `LogConfig` (1 MiB fragments, 4+1
    /// XOR, window 8, 16-fragment client cache) on a transport of its own.
    pub fn client_log(&self, client: u32) -> Result<Log> {
        let tcp = TcpTransport::new();
        tcp.set_runtime(Runtime::Epoll);
        for (id, addr) in self.addrs() {
            tcp.add_server(id, addr);
        }
        let transport: Arc<dyn Transport> = match &self.tracer {
            None => Arc::new(tcp),
            Some(t) => Arc::new(TracedTransport::new(Arc::new(tcp), t.clone())),
        };
        let config = LogConfig::new(
            ClientId::new(client),
            (0..SERVERS).map(ServerId::new).collect(),
        )?;
        Log::create(transport, config)
    }

    /// Shuts server `id` down: its sockets close as on a process exit.
    pub fn kill(&mut self, id: u32) {
        if let Some(mut server) = self.servers[id as usize].take() {
            server.shutdown();
        }
    }

    /// Store bytes and journal batches summed over all servers (a killed
    /// server's store is still counted).
    pub fn store_totals(&self) -> StoreTotals {
        let mut t = StoreTotals::default();
        for node in &self.nodes {
            let fs = node.file_store();
            t.bytes += swarm_server::FragmentStore::byte_count(fs);
            t.journal_batches += fs.journal_batches();
        }
        t
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for server in self.servers.iter_mut().flatten() {
            server.shutdown();
        }
        self.servers.clear();
        self.nodes.clear();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
