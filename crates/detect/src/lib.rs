//! # insider-detect
//!
//! SSD-Insider's ransomware detection engine (Baek et al., ICDCS 2018, §III).
//!
//! The detector sees **block-I/O request headers** — `(time, LBA,
//! read/write, length)` plus an optional payload-entropy stamp the device
//! computes in-line. It maintains a [`CountingTable`] of read/overwrite run
//! lengths, computes behavioral features at every 1-second time-slice
//! boundary, feeds them to an ID3-trained binary [`DecisionTree`], and
//! accumulates the tree's votes over a sliding 10-slice window into a
//! score. Score ≥ threshold (3 in the paper) raises a ransomware alarm.
//!
//! The paper's six features (§III-A):
//!
//! | feature    | meaning |
//! |------------|---------|
//! | `OWIO`     | overwrites in the current slice |
//! | `OWST`     | distinct overwritten blocks / write blocks, current slice |
//! | `PWIO`     | overwrites across the previous window |
//! | `AVGWIO`   | mean overwrite run length in the counting table |
//! | `OWSLOPE`  | `OWIO` relative to the previous window's per-slice average |
//! | `IO`       | total read+write blocks in the current slice |
//!
//! plus three evolved features for the adversarial workloads of
//! DESIGN.md §14, enabled by [`DetectorVariant::Evolved`]:
//!
//! | feature    | meaning |
//! |------------|---------|
//! | `WENT`     | window-mean write-payload entropy over stamped blocks |
//! | `RHEW`     | high-entropy write blocks replacing previously accessed LBAs, per window |
//! | `OWBURST`  | variance/mean of per-slice overwrite counts across the window |
//!
//! An *overwrite* is a write to an LBA that was **read within the current
//! window** — the read-encrypt-overwrite signature of crypto ransomware.
//!
//! # Example
//!
//! ```rust
//! use insider_detect::{Detector, DetectorConfig, DecisionTree, IoMode, IoReq};
//! use insider_nand::{Lba, SimTime};
//!
//! // A hand-built stand-in for a trained tree: "any overwrite" = attack.
//! let tree = DecisionTree::stump(0, 0.5); // vote 1 when OWIO > 0.5
//! let mut det = Detector::new(DetectorConfig::default(), tree);
//!
//! // Ransomware-like pattern: read a block, then overwrite it — repeatedly.
//! let mut alarm = false;
//! for s in 0..60u64 {
//!     for i in 0..50u64 {
//!         let t = SimTime::from_secs(s).plus_micros(i * 1000);
//!         let lba = Lba::new(s * 50 + i);
//!         for v in det.ingest(IoReq::new(t, lba, IoMode::Read, 1)) {
//!             alarm |= v.alarm;
//!         }
//!         for v in det.ingest(IoReq::new(t.plus_micros(10), lba, IoMode::Write, 1)) {
//!             alarm |= v.alarm;
//!         }
//!     }
//! }
//! assert!(alarm, "sustained read-then-overwrite traffic must raise the alarm");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counting_table;
mod detector;
mod entropy;
mod features;
mod id3;
mod ioreq;
mod rangeset;
mod training;
mod variant;
mod window;

pub use counting_table::{CountingTable, Entry};
pub use detector::{Detector, DetectorConfig, DetectorStatus, FeatureEngine, Verdict};
pub use entropy::{
    payload_entropy_milli, ENTROPY_MAX_MILLI, ENTROPY_SAMPLE_BYTES, HIGH_ENTROPY_MILLI,
};
pub use features::{FeatureVector, FEATURE_COUNT, FEATURE_NAMES, PAPER_FEATURE_COUNT};
pub use id3::{DecisionTree, Id3Params, Sample};
pub use ioreq::{IoMode, IoReq};
pub use rangeset::LbaRangeSet;
pub use training::{Confusion, TrainingSet};
pub use variant::DetectorVariant;
pub use window::{SliceWindow, VoteWindow};
