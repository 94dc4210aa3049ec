//! `swarmd` — one Swarm storage server over TCP.
//!
//! ```text
//! swarmd --id 0 --listen 127.0.0.1:7700 --dir /var/lib/swarm/0
//!        [--capacity N]          # fragment slots (0 = unbounded)
//!        [--cache N]             # in-memory fragment read cache
//!        [--mem]                 # memory-backed store (testing)
//!        [--durability MODE]     # strict | group[:millis] | none
//!        [--no-fsync]            # legacy alias for --durability none
//!        [--read-deadline-ms N]  # reap silent connections after N ms
//!                                # (0 = never; default 30000)
//! ```
//!
//! The server is exactly the paper's §2.3 component: a fragment
//! repository with atomic stores, marked-fragment queries, and ACLs.
//! Stop it with SIGINT/SIGTERM (or kill); a directory-backed server
//! recovers its fragment map from the journal on restart.

use std::sync::Arc;
use std::time::Duration;

use swarm_cli::Args;
use swarm_net::tcp::{ServerConfig, TcpServer, DEFAULT_READ_DEADLINE};
use swarm_server::{Durability, FileStore, MemStore, StorageServer};
use swarm_types::ServerId;

fn main() {
    if let Err(e) = run() {
        eprintln!("swarmd: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1));
    let id = ServerId::new(args.get_u64("id", 0)? as u32);
    let listen = args.get_or("listen", "127.0.0.1:0").to_string();
    let capacity = args.get_u64("capacity", 0)?;
    let cache = args.get_u64("cache", 0)? as usize;

    let mut config = ServerConfig::default();
    let deadline_ms = args.get_u64("read-deadline-ms", DEFAULT_READ_DEADLINE.as_millis() as u64)?;
    config.read_deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));

    let server = if args.get_or("mem", "false") == "true" {
        let store = if capacity > 0 {
            MemStore::with_capacity(capacity)
        } else {
            MemStore::new()
        };
        spawn(
            id,
            &listen,
            StorageServer::new(id, store).with_read_cache(cache),
            config,
        )?
    } else {
        let dir = args.require("dir")?;
        let durability = if args.get_or("no-fsync", "false") == "true" {
            Durability::None
        } else {
            args.get_or("durability", "strict").parse::<Durability>()?
        };
        let store = FileStore::open_with_durability(dir, capacity, durability)?;
        spawn(
            id,
            &listen,
            StorageServer::new(id, store).with_read_cache(cache),
            config,
        )?
    };

    // The bound address must stay the final token: wrappers (and the
    // integration tests) parse it off the end of this line.
    println!("swarmd {} listening on {}", id.raw(), server.addr());
    // Flush stdout so wrappers (and the integration tests) can read the
    // bound address immediately.
    use std::io::Write;
    std::io::stdout().flush()?;

    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn spawn<S: swarm_server::FragmentStore + 'static>(
    id: ServerId,
    listen: &str,
    server: StorageServer<S>,
    config: ServerConfig,
) -> Result<TcpServer, Box<dyn std::error::Error>> {
    let handler: Arc<StorageServer<S>> = server.into_shared();
    Ok(TcpServer::spawn_with_config(id, listen, handler, config)?)
}
