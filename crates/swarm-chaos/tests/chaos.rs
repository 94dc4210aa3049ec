//! End-to-end determinism and crash-consistency checks for the chaos
//! harness itself: the same seed must produce the same schedule, the
//! same verdict, and the same verified-read count on every transport.

use swarm_chaos::{ChaosEvent, Runner, Schedule, ScheduleConfig, StoreKind, TransportKind};

fn cfg() -> ScheduleConfig {
    ScheduleConfig::new(4, 48)
}

#[test]
fn same_seed_reproduces_schedule_and_dump() {
    let a = Schedule::generate(42, &cfg());
    let b = Schedule::generate(42, &cfg());
    assert_eq!(a.hash(), b.hash());
    assert_eq!(a.dump(), b.dump());
    // A different seed must not collide (would make replay ambiguous).
    let c = Schedule::generate(43, &cfg());
    assert_ne!(a.hash(), c.hash());
}

#[test]
fn mem_runs_pass_and_replay_identically() {
    let schedule = Schedule::generate(7, &cfg());
    let first = Runner::run(&schedule, TransportKind::Mem).unwrap();
    let second = Runner::run(&schedule, TransportKind::Mem).unwrap();
    assert!(
        first.passed(),
        "seed 7 lost acked data on mem: {:?}",
        first.failures
    );
    assert_eq!(first.hash, second.hash);
    assert_eq!(first.verified_reads, second.verified_reads);
    assert_eq!(first.acked_blocks, second.acked_blocks);
}

#[test]
fn tcp_runs_match_mem_verdict_and_stats() {
    let schedule = Schedule::generate(11, &cfg());
    let mem = Runner::run(&schedule, TransportKind::Mem).unwrap();
    assert!(
        mem.passed(),
        "seed 11 lost acked data on mem: {:?}",
        mem.failures
    );
    // Real sockets must agree with the in-process baseline.
    for kind in TransportKind::all() {
        if kind == TransportKind::Mem {
            continue;
        }
        let tcp = Runner::run(&schedule, kind).unwrap();
        assert!(
            tcp.passed(),
            "seed 11 lost acked data on {kind}: {:?}",
            tcp.failures
        );
        assert_eq!(
            mem.hash, tcp.hash,
            "schedule must be transport-independent ({kind})"
        );
        assert_eq!(mem.acked_blocks, tcp.acked_blocks, "{kind}");
        assert_eq!(mem.verified_reads, tcp.verified_reads, "{kind}");
    }
}

#[test]
fn small_seed_matrix_never_loses_acked_writes() {
    for seed in 0..4u64 {
        let schedule = Schedule::generate(seed, &ScheduleConfig::new(3, 32));
        let report = Runner::run(&schedule, TransportKind::Mem).unwrap();
        assert!(
            report.passed(),
            "seed {seed}: {:?}\nreplay: {}",
            report.failures,
            report.replay_command(32, 3)
        );
    }
}

/// Multi-client runs deal the same schedule across independent client
/// logs on one shared cluster: every client's acked blocks must verify
/// byte-exact at every quiesce (zero cross-client interference), the
/// verdict must be deterministic, and more clients must not change the
/// schedule itself — only who executes each work event.
#[test]
fn multi_client_runs_pass_deterministically_with_no_interference() {
    for clients in [2u32, 8] {
        let schedule = Schedule::generate(13, &ScheduleConfig::new(4, 48).clients(clients));
        assert_eq!(
            schedule.events,
            Schedule::generate(13, &cfg()).events,
            "client count must deal events, not change them"
        );
        let first = Runner::run(&schedule, TransportKind::Mem).unwrap();
        let second = Runner::run(&schedule, TransportKind::Mem).unwrap();
        assert!(
            first.passed(),
            "{clients} clients lost acked data: {:?}\nreplay: {}",
            first.failures,
            first.replay_command(48, 4)
        );
        assert_eq!(first.clients, clients);
        assert_eq!(first.acked_blocks, second.acked_blocks);
        assert_eq!(first.verified_reads, second.verified_reads);
        assert!(
            first.replay_command(48, 4).contains("--clients"),
            "replay line must carry the client count"
        );
    }
}

/// Schedules include the server-stall event (a wedged journal committer),
/// and the file-backed cluster — durable FileStore with group commit on
/// the critical path — still never loses an acked write.
#[test]
fn file_store_with_group_commit_never_loses_acked_writes() {
    let mut saw_stall = false;
    for seed in 0..4u64 {
        let schedule = Schedule::generate(seed, &ScheduleConfig::new(3, 32));
        saw_stall |= schedule
            .events
            .iter()
            .any(|e| matches!(e, ChaosEvent::ServerStall { .. }));
        let report =
            Runner::run_with_store(&schedule, TransportKind::Mem, StoreKind::File).unwrap();
        assert_eq!(report.store, StoreKind::File);
        assert!(
            report.passed(),
            "seed {seed} (file store): {:?}\nreplay: {}",
            report.failures,
            report.replay_command(32, 3)
        );
    }
    // At least one schedule in the matrix actually exercised the stall
    // path (wider sweeps run in CI); if the generator's roll ranges move,
    // this keeps the event from silently vanishing.
    let mut stall_anywhere = saw_stall;
    for seed in 0..64u64 {
        stall_anywhere |= Schedule::generate(seed, &ScheduleConfig::new(3, 32))
            .events
            .iter()
            .any(|e| matches!(e, ChaosEvent::ServerStall { .. }));
    }
    assert!(stall_anywhere, "no seed in 0..64 generated a server-stall");
}

/// Reed–Solomon geometries under the full chaos vocabulary: with up to
/// `m` servers killed concurrently and the verification tail holding `m`
/// servers down at once, every acked block still reads back byte-exact
/// (through multi-erasure decode when needed).
#[test]
fn rs_geometries_never_lose_acked_writes_with_m_concurrent_kills() {
    for (servers, parity) in [(6u32, 2u32), (11, 3)] {
        for seed in 0..3u64 {
            let schedule =
                Schedule::generate(seed, &ScheduleConfig::with_parity(servers, 32, parity));
            // The budget must actually be spent somewhere in the sweep:
            // at least one seed reaches `m` simultaneous impairments.
            let report = Runner::run(&schedule, TransportKind::Mem).unwrap();
            assert_eq!(report.parity, parity);
            assert!(
                report.passed(),
                "{}+{} seed {seed}: {:?}\nreplay: {}",
                servers - parity,
                parity,
                report.failures,
                report.replay_command(32, servers)
            );
        }
        let mut max_down = 0u32;
        for seed in 0..64u64 {
            let schedule =
                Schedule::generate(seed, &ScheduleConfig::with_parity(servers, 64, parity));
            let mut down = 0u32;
            for e in &schedule.events {
                match e {
                    ChaosEvent::KillServer { .. } => {
                        down += 1;
                        max_down = max_down.max(down);
                    }
                    ChaosEvent::RestartServer { .. } => down -= 1,
                    _ => {}
                }
            }
        }
        assert_eq!(
            max_down, parity,
            "no seed in 0..64 reached {parity} concurrent kills"
        );
    }
}
