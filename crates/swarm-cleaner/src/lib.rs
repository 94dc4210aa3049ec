//! The Swarm log cleaner (§2.1.4).
//!
//! "Swarm reclaims this free space using a cleaner process that
//! periodically traverses the log and moves live data out of stripes by
//! appending them to the log, so that the space occupied by the stripe can
//! be used to store a new stripe."
//!
//! The cleaner is a *service* layered on the log, not part of it: it reads
//! fragments through the ordinary read path, re-appends live blocks
//! through the ordinary append path (under the owning service's id, with
//! the original creation record), notifies the owning service of each move
//! ([`swarm_services::Service::block_moved`]), and finally deletes the
//! reclaimed stripe's fragments from the storage servers.
//!
//! Cleaning is gated on checkpoints: a stripe may only be cleaned when
//! every record in it is obsolete — older than its service's newest
//! checkpoint — because newer records would be needed by crash replay.
//! When nothing is cleanable, the cleaner applies the paper's remedy and
//! *demands* checkpoints from all services. A stripe holding a `Delete`
//! also waits until the older stripe holding the deleted block is gone:
//! the delete record is the only proof that the block is dead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cleaner;
pub mod policy;
pub mod usage;

pub use cleaner::{CleanStats, Cleaner, CleanerConfig, CleanerHandle};
pub use policy::CleanPolicy;
pub use usage::{LiveBlock, StripeUsage, UsageTable};
