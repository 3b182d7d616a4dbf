//! # ssd-insider
//!
//! The full SSD-Insider device (Baek et al., ICDCS 2018): an SSD whose
//! firmware detects ransomware from I/O request headers and can roll the
//! drive back to its pre-attack state in well under a second, with no data
//! loss.
//!
//! This crate wires the two halves together:
//!
//! * [`insider_detect`] — the counting table, six behavioral features, and
//!   the ID3 decision tree (inline on the I/O path);
//! * [`insider_ftl`] — the delayed-deletion FTL whose recovery queue makes
//!   instant rollback possible.
//!
//! ## Lifecycle
//!
//! ```text
//!        I/O + verdicts            user confirms        reboot + fsck
//! Normal ────────────▶ Suspicious ─────────────▶ Recovered ─────▶ Normal
//!    ▲                  │      │ rollback fails                     ▲
//!    └─ user dismisses ─┘      └────────▶ RecoveryFailed ─ reboot ──┘
//! ```
//!
//! # Example
//!
//! ```rust
//! use ssd_insider::{InsiderConfig, SsdInsider, DeviceState};
//! use insider_detect::DecisionTree;
//! use insider_nand::{Geometry, Lba, SimTime};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), ssd_insider::DeviceError> {
//! // "Any overwrite votes ransomware" stand-in for a trained tree.
//! let tree = DecisionTree::stump(0, 0.5);
//! let mut ssd = SsdInsider::new(InsiderConfig::new(Geometry::tiny()), tree);
//!
//! // The user saves a document well before the attack.
//! ssd.write(Lba::new(10), Bytes::from_static(b"thesis draft"), SimTime::from_secs(1))?;
//!
//! // Ransomware reads it and overwrites it with ciphertext, repeatedly,
//! // until the score crosses the alarm threshold.
//! let mut t = SimTime::from_secs(60);
//! while ssd.state() == DeviceState::Normal {
//!     ssd.read(Lba::new(10), t)?;
//!     ssd.write(Lba::new(10), Bytes::from_static(b"3ncryp7ed"), t)?;
//!     t += SimTime::from_millis(250);
//! }
//!
//! // The alarm fired; the user confirms, and the drive rolls back.
//! let report = ssd.confirm_and_recover(t)?;
//! assert!(report.restored > 0);
//! assert_eq!(ssd.read(Lba::new(10), t)?.unwrap().as_ref(), b"thesis draft");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bridge;
mod config;
mod device;
pub mod dram;
mod error;
mod events;
mod pacing;
mod state;
mod timing;

pub use bridge::{CachedFsBridge, FsBridge};
pub use config::InsiderConfig;
pub use device::SsdInsider;
pub use dram::DramUsage;
pub use error::DeviceError;
pub use events::{DeviceEvent, EventLog, EVENT_CAPACITY};
pub use pacing::PacingBucket;
pub use state::DeviceState;
pub use timing::{IoTiming, TimingSummary};

/// Convenience result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;
