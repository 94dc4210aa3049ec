//! The stripe utilization table: what the cleaner knows about each stripe.
//!
//! Built by scanning the log (the cleaner "periodically traverses the
//! log"): every block creation, deletion record, service record, and
//! checkpoint is folded into per-stripe accounting, from which the cleaner
//! chooses victims.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use swarm_log::{Entry, Log, LogPosition};
use swarm_types::{BlockAddr, Result, ServiceId};

/// A live block that would need to move if its stripe were cleaned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveBlock {
    /// Where the block currently lives.
    pub addr: BlockAddr,
    /// The owning service.
    pub service: ServiceId,
    /// The block's creation record (handed back to the service on move).
    pub create: Vec<u8>,
}

/// Per-stripe accounting.
#[derive(Debug, Clone, Default)]
pub struct StripeUsage {
    /// Sequence number of the stripe's first fragment.
    pub first_seq: u64,
    /// Members actually found (data + parity).
    pub fragments_found: u32,
    /// Total bytes stored for this stripe (all members).
    pub stored_bytes: u64,
    /// Payload bytes of blocks that are still live.
    pub live_bytes: u64,
    /// The live blocks themselves.
    pub live_blocks: Vec<LiveBlock>,
    /// Services with *records* (incl. deletes) in this stripe and the
    /// position of their newest such record.
    pub record_services: HashMap<ServiceId, LogPosition>,
    /// Positions of checkpoint entries in this stripe, per service.
    pub checkpoints: HashMap<ServiceId, LogPosition>,
    /// First sequence numbers of the stripes holding blocks that this
    /// stripe's `Delete` records kill.
    pub delete_targets: BTreeSet<u64>,
}

impl StripeUsage {
    /// Fraction of stored bytes that are live (0.0 = fully dead).
    pub fn utilization(&self) -> f64 {
        if self.stored_bytes == 0 {
            0.0
        } else {
            self.live_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// The utilization table for one client's log.
#[derive(Debug, Default)]
pub struct UsageTable {
    /// Stripes keyed by first fragment sequence number.
    pub stripes: BTreeMap<u64, StripeUsage>,
    /// Stripe width used for the scan.
    pub width: u8,
    /// One past the newest scanned fragment sequence.
    pub end_seq: u64,
}

impl UsageTable {
    /// Builds the table by scanning the log from sequence `floor` to the
    /// log's current head. Stripes whose first sequence is in `reclaimed`
    /// are skipped without a single read: their fragments are gone, so
    /// fetching them would only cost a failed Locate broadcast each.
    ///
    /// # Errors
    ///
    /// Propagates read failures (a fragment that is neither present nor
    /// reconstructible mid-scan is an error — the cleaner must not treat
    /// data loss as free space).
    pub fn scan(log: &Log, floor: u64, reclaimed: &HashSet<u64>) -> Result<UsageTable> {
        let width = log.group().width();
        let end_seq = log.next_seq();
        let mut table = UsageTable {
            stripes: BTreeMap::new(),
            width,
            end_seq,
        };
        // Block creations seen, keyed by address; deletions anywhere in
        // the log kill them.
        let mut created: BTreeMap<BlockAddr, (ServiceId, Vec<u8>)> = BTreeMap::new();
        let mut deleted: HashSet<BlockAddr> = HashSet::new();

        let mut seq = floor;
        while seq < end_seq {
            let stripe_first = (seq / width as u64) * width as u64;
            if reclaimed.contains(&stripe_first) {
                seq = stripe_first + width as u64;
                continue;
            }
            let Some(view) =
                log.fetch_fragment_view(swarm_types::FragmentId::new(log.client(), seq))?
            else {
                seq += 1;
                continue; // reclaimed (or padding of a torn tail)
            };
            let usage = table
                .stripes
                .entry(stripe_first)
                .or_insert_with(|| StripeUsage {
                    first_seq: stripe_first,
                    ..StripeUsage::default()
                });
            usage.fragments_found += 1;
            usage.stored_bytes += view.header.encoded_len() as u64 + view.header.body_len as u64;
            for le in &view.entries {
                let pos = LogPosition {
                    seq,
                    offset: le.entry_offset,
                };
                match &le.entry {
                    Entry::Block {
                        service, create, ..
                    } => {
                        let addr = le.block_addr.expect("block entries carry addresses");
                        created.insert(addr, (*service, create.clone()));
                    }
                    Entry::Delete { addr, service } => {
                        deleted.insert(*addr);
                        usage
                            .delete_targets
                            .insert((addr.fid.seq() / width as u64) * width as u64);
                        usage
                            .record_services
                            .entry(*service)
                            .and_modify(|p| *p = (*p).max(pos))
                            .or_insert(pos);
                    }
                    Entry::Record { service, .. } => {
                        usage
                            .record_services
                            .entry(*service)
                            .and_modify(|p| *p = (*p).max(pos))
                            .or_insert(pos);
                    }
                    Entry::Checkpoint { service, .. } => {
                        usage
                            .checkpoints
                            .entry(*service)
                            .and_modify(|p| *p = (*p).max(pos))
                            .or_insert(pos);
                    }
                }
            }
            seq += 1;
        }

        // Second pass: attribute live blocks to their stripes.
        for (addr, (service, create)) in created {
            if deleted.contains(&addr) {
                continue;
            }
            let stripe_first = (addr.fid.seq() / width as u64) * width as u64;
            if let Some(usage) = table.stripes.get_mut(&stripe_first) {
                usage.live_bytes += addr.len as u64;
                usage.live_blocks.push(LiveBlock {
                    addr,
                    service,
                    create,
                });
            }
        }
        Ok(table)
    }

    /// Does `usage` hold a `Delete` whose target block sits in an older
    /// stripe that is still in the table?
    ///
    /// Such a stripe must outlive its target: a scan learns deletions
    /// only from stripes that exist, so reclaiming the delete first would
    /// bring the dead block back to life and the cleaner would move it
    /// again.
    pub fn pins_deleted_blocks(&self, usage: &StripeUsage) -> bool {
        usage
            .delete_targets
            .iter()
            .any(|t| *t < usage.first_seq && self.stripes.contains_key(t))
    }

    /// Total bytes stored across scanned stripes.
    pub fn stored_bytes(&self) -> u64 {
        self.stripes.values().map(|s| s.stored_bytes).sum()
    }

    /// Total live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.stripes.values().map(|s| s.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swarm_log::LogConfig;
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, ServerId};

    const SVC: ServiceId = ServiceId::new(1);

    fn make_log() -> Log {
        let transport = Arc::new(MemTransport::new());
        for i in 0..3 {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv);
        }
        let config = LogConfig::new(ClientId::new(1), (0..3).map(ServerId::new).collect())
            .unwrap()
            .fragment_size(2048);
        Log::create(transport, config).unwrap()
    }

    #[test]
    fn empty_log_scans_empty() {
        let log = make_log();
        let table = UsageTable::scan(&log, 0, &HashSet::new()).unwrap();
        assert!(table.stripes.is_empty());
        assert_eq!(table.end_seq, 0);
    }

    #[test]
    fn live_and_dead_blocks_accounted() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 400]).unwrap();
        let b = log.append_block(SVC, b"b", &[2u8; 400]).unwrap();
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        let table = UsageTable::scan(&log, 0, &HashSet::new()).unwrap();
        assert_eq!(table.live_bytes(), 400, "only b is live");
        let live: Vec<&LiveBlock> = table
            .stripes
            .values()
            .flat_map(|s| s.live_blocks.iter())
            .collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].addr, b);
        assert_eq!(live[0].create, b"b");
    }

    #[test]
    fn deletes_in_later_stripes_kill_earlier_blocks() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 1500]).unwrap();
        // Push several stripes of data so the delete lands much later.
        for _ in 0..10 {
            log.append_block(SVC, b"", &[0u8; 1500]).unwrap();
        }
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        let table = UsageTable::scan(&log, 0, &HashSet::new()).unwrap();
        let first_stripe = table.stripes.values().next().unwrap();
        assert!(
            !first_stripe.live_blocks.iter().any(|lb| lb.addr == a),
            "a was deleted later in the log"
        );
    }

    #[test]
    fn records_and_checkpoints_tracked_per_stripe() {
        let log = make_log();
        log.append_record(SVC, 7, b"record").unwrap();
        log.checkpoint(SVC, b"ckpt").unwrap();
        let table = UsageTable::scan(&log, 0, &HashSet::new()).unwrap();
        let with_records: Vec<&StripeUsage> = table
            .stripes
            .values()
            .filter(|s| !s.record_services.is_empty())
            .collect();
        assert_eq!(with_records.len(), 1);
        assert!(with_records[0].record_services.contains_key(&SVC));
        let with_ckpt: Vec<&StripeUsage> = table
            .stripes
            .values()
            .filter(|s| s.checkpoints.contains_key(&SVC))
            .collect();
        assert_eq!(with_ckpt.len(), 1);
    }

    #[test]
    fn utilization_is_live_over_stored() {
        let mut usage = StripeUsage {
            stored_bytes: 1000,
            live_bytes: 250,
            ..StripeUsage::default()
        };
        assert!((usage.utilization() - 0.25).abs() < 1e-9);
        usage.stored_bytes = 0;
        assert_eq!(usage.utilization(), 0.0);
    }
}
