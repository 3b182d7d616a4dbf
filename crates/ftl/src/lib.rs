//! # insider-ftl
//!
//! The Flash Translation Layer of the SSD-Insider reproduction (Baek et al.,
//! ICDCS 2018): one page-mapping FTL with *delayed deletion* and instant
//! rollback, whose retention is a configuration value.
//!
//! ## One FTL, two retention values
//!
//! [`InsiderFtl`] is page-level mapping with greedy garbage collection.
//! [`FtlConfig::protection_window`] picks what it retains:
//!
//! * `Some(window)` (10 s, the paper's value, by default) — every overwrite
//!   pushes a backup entry `(lba, old ppa, timestamp)` into a
//!   [`RecoveryQueue`]. Old pages stay *protected* from reclamation until
//!   their entry ages past the window. If ransomware is detected,
//!   [`InsiderFtl::rollback`] rewinds the mapping table to its state one
//!   window ago — by pointer updates only, with no data copying, which is
//!   why recovery completes in well under a second.
//! * `None` — the paper's conventional baseline. When a logical page is
//!   overwritten, the old physical page becomes reclaimable immediately,
//!   and rollback fails with [`FtlError::NoRetention`].
//!
//! ## The host interface
//!
//! [`InsiderFtl`] implements [`Ftl`] by supplying the three extent operations —
//! [`read_extent`](Ftl::read_extent), [`write_extent`](Ftl::write_extent),
//! [`trim_extent`](Ftl::trim_extent) — and nothing else for host I/O.
//! [`read`](Ftl::read), [`write`](Ftl::write) and [`trim`](Ftl::trim), used
//! below, are the trait's provided one-page wrappers over them. Before a
//! write of `n` pages, garbage collection runs until the free pool holds
//! [`GC_RESERVE_BLOCKS`] plus `⌈n / pages_per_block⌉` blocks, whatever `n` is.
//!
//! ## Module map
//!
//! [`InsiderFtl`] is one struct. Its code is split along the FTL's seams
//! into child modules of `insider`, which share its private fields:
//!
//! * `insider` — the struct, retention, `tick`, `rollback` and the [`Ftl`] impl;
//! * `insider/alloc.rs` — page allocation, extent program, read and unmap;
//! * `insider/victim.rs` — per-block counts, the victim index and selection;
//! * `insider/gc.rs` — the GC job, its pump, migration, erase and debt;
//! * `insider/mount.rs` — the power-on OOB scan and the queue rebuild.
//!
//! Beside it: [`RecoveryQueue`], [`MappingTable`], [`FtlConfig`],
//! [`FtlStats`] and the [`Ftl`] trait, one module each.
//!
//! ## Example
//!
//! ```rust
//! use insider_ftl::{FtlConfig, Hold, InsiderFtl, Ftl};
//! use insider_nand::{Geometry, Lba, SimTime};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), insider_ftl::FtlError> {
//! let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
//! let lba = Lba::new(3);
//!
//! ftl.write(lba, Bytes::from_static(b"precious document"), SimTime::from_secs(1))?;
//! // Ransomware overwrites the block with ciphertext:
//! ftl.write(lba, Bytes::from_static(b"ciphertext"), SimTime::from_secs(15))?;
//!
//! // Detection fires; hold the drive read-only and roll it back one window:
//! ftl.set_hold(Hold { read_only: true, frozen_at: Some(SimTime::from_secs(16)) });
//! ftl.rollback(SimTime::from_secs(20))?; // anchored at the freeze, t = 16 s
//! ftl.set_hold(Hold::default());
//!
//! let restored = ftl.read(lba, SimTime::from_secs(16))?.unwrap();
//! assert_eq!(restored.as_ref(), b"precious document");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod insider;
mod mapping;
mod recovery_queue;
mod stats;
mod traits;

pub use config::{FtlConfig, GC_RESERVE_BLOCKS};
pub use error::FtlError;
pub use insider::{Hold, InsiderFtl, RollbackReport};
pub use mapping::MappingTable;
pub use recovery_queue::{BackupEntry, RecoveryQueue};
pub use stats::{FtlStats, GcVictim};
pub use traits::Ftl;

/// Convenience result alias for FTL operations.
pub type Result<T> = std::result::Result<T, FtlError>;
