//! Block-I/O request headers — the only thing the detector sees.

use crate::entropy::ENTROPY_MAX_MILLI;
use insider_nand::{Lba, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Direction of a block-I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoMode {
    /// A read request.
    Read,
    /// A write request.
    Write,
    /// A trim/discard request. The detector treats trims as writes for
    /// overwrite accounting (a trim permanently removes data exactly like an
    /// overwrite does); the FTL unmaps the pages.
    Trim,
}

impl IoMode {
    /// Whether this request removes or replaces data.
    pub fn is_destructive(self) -> bool {
        matches!(self, IoMode::Write | IoMode::Trim)
    }
}

impl fmt::Display for IoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoMode::Read => "R",
            IoMode::Write => "W",
            IoMode::Trim => "T",
        };
        f.write_str(s)
    }
}

/// One block-I/O request header: `(time, LBA, mode, length)` plus an
/// optional payload-entropy stamp.
///
/// `len` is the number of consecutive logical blocks the request covers,
/// starting at `lba`. This mirrors what real firmware sees in an NVMe/SATA
/// command — no file names or process IDs. The `entropy` stamp is the one
/// piece of payload-derived information: the device computes it from the
/// write data it is handed anyway (see [`payload_entropy_milli`]), so it
/// stays implementable inside firmware.
///
/// [`payload_entropy_milli`]: crate::payload_entropy_milli
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IoReq {
    /// When the request was issued.
    pub time: SimTime,
    /// First logical block covered.
    pub lba: Lba,
    /// Read, write or trim.
    pub mode: IoMode,
    /// Number of consecutive blocks covered (≥ 1).
    pub len: u32,
    /// Sampled payload entropy in milli-bits per byte (0..=8000), or `None`
    /// when the payload was not inspected (reads, trims, header-only
    /// traces). Absent stamps are *excluded* from entropy features, not
    /// counted as zero.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub entropy: Option<u16>,
}

impl IoReq {
    /// Creates a request header.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(time: SimTime, lba: Lba, mode: IoMode, len: u32) -> Self {
        assert!(len >= 1, "an I/O request covers at least one block");
        IoReq {
            time,
            lba,
            mode,
            len,
            entropy: None,
        }
    }

    /// Returns the request with its raw milli-bit entropy stamp set.
    pub fn with_entropy_milli(mut self, milli: u16) -> Self {
        self.entropy = Some(milli.min(ENTROPY_MAX_MILLI));
        self
    }

    /// Convenience constructor for a single-block read.
    pub fn read(time: SimTime, lba: Lba) -> Self {
        Self::new(time, lba, IoMode::Read, 1)
    }

    /// Convenience constructor for a single-block write.
    pub fn write(time: SimTime, lba: Lba) -> Self {
        Self::new(time, lba, IoMode::Write, 1)
    }

    /// Iterates over every LBA the request covers.
    pub fn blocks(&self) -> impl Iterator<Item = Lba> + '_ {
        let start = self.lba.index();
        (start..start + self.len as u64).map(Lba::new)
    }

    /// The exclusive end LBA of the request.
    pub fn end(&self) -> Lba {
        self.lba.offset(self.len as u64)
    }
}

impl fmt::Display for IoReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {} x{}]",
            self.time, self.mode, self.lba, self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_iterates_covered_range() {
        let req = IoReq::new(SimTime::ZERO, Lba::new(10), IoMode::Write, 3);
        let blocks: Vec<u64> = req.blocks().map(|l| l.index()).collect();
        assert_eq!(blocks, vec![10, 11, 12]);
        assert_eq!(req.end(), Lba::new(13));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_panics() {
        IoReq::new(SimTime::ZERO, Lba::new(0), IoMode::Read, 0);
    }

    #[test]
    fn destructive_modes() {
        assert!(!IoMode::Read.is_destructive());
        assert!(IoMode::Write.is_destructive());
        assert!(IoMode::Trim.is_destructive());
    }

    #[test]
    fn display_format() {
        let req = IoReq::read(SimTime::from_secs(1), Lba::new(5));
        assert_eq!(req.to_string(), "[1.000000s R lba:5 x1]");
    }

    #[test]
    fn entropy_stamp_round_trips_and_clamps() {
        let req = IoReq::write(SimTime::ZERO, Lba::new(0)).with_entropy_milli(7950);
        assert_eq!(req.entropy, Some(7950));
        assert_eq!(
            IoReq::write(SimTime::ZERO, Lba::new(0))
                .with_entropy_milli(u16::MAX)
                .entropy,
            Some(ENTROPY_MAX_MILLI)
        );
    }

    #[test]
    fn unstamped_json_stays_compact_and_old_json_loads() {
        // Unstamped requests serialize without the entropy key, so traces
        // written before (or without) stamping are byte-identical.
        let plain = IoReq::write(SimTime::ZERO, Lba::new(3));
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("entropy"), "unexpected key in {json}");
        let back: IoReq = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);

        let stamped = plain.with_entropy_milli(7900);
        let json = serde_json::to_string(&stamped).unwrap();
        assert!(json.contains("entropy"));
        let back: IoReq = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stamped);
    }
}
