//! Error types for NAND operations.

use crate::{Lba, Pba, Ppa};
use std::error::Error;
use std::fmt;

/// Errors returned by [`NandDevice`](crate::NandDevice) operations.
///
/// Each variant names the physical address involved so that an FTL bug
/// (e.g. programming out of order) is immediately attributable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// The page address exceeds the device geometry.
    PpaOutOfRange(Ppa),
    /// The block address exceeds the device geometry.
    PbaOutOfRange(Pba),
    /// Attempted to program a page that is not free (NAND forbids in-place
    /// updates; the page's block must be erased first).
    ProgramNonFree(Ppa),
    /// Attempted to program a page out of the block's in-order sequence.
    ProgramOutOfOrder {
        /// Address that was requested.
        requested: Ppa,
        /// The block's next in-order programmable offset, if any.
        expected_offset: Option<u32>,
    },
    /// Attempted to read a page that has never been programmed since erase.
    ReadUnwritten(Ppa),
    /// The payload exceeds the geometry's page size.
    PayloadTooLarge {
        /// Bytes supplied.
        len: usize,
        /// Page size in bytes.
        page_size: u32,
    },
    /// The block has reached its program/erase endurance limit.
    BlockWornOut(Pba),
    /// A fault injected by a [`FaultPlan`](crate::FaultPlan).
    InjectedFault(&'static str),
    /// Power was cut (by a scheduled [`FaultPlan`](crate::FaultPlan) power
    /// cut): the triggering operation was not applied and the device stays
    /// offline until power-cycled and remounted.
    PowerLoss,
    /// The page's spare-area record fails its CRC: the media no longer
    /// holds what was programmed, and the record names nothing.
    OobCorrupt(Ppa),
    /// A tagged program named a logical page the spare area's 4-byte
    /// address field cannot hold (2³² or more); nothing was programmed.
    LbaOutOfRange(Lba),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::PpaOutOfRange(ppa) => write!(f, "page address {ppa} out of range"),
            NandError::PbaOutOfRange(pba) => write!(f, "block address {pba} out of range"),
            NandError::ProgramNonFree(ppa) => {
                write!(f, "cannot program non-free page {ppa} (erase required)")
            }
            NandError::ProgramOutOfOrder {
                requested,
                expected_offset,
            } => match expected_offset {
                Some(off) => write!(
                    f,
                    "out-of-order program at {requested}; next programmable offset is {off}"
                ),
                None => write!(f, "out-of-order program at {requested}; block is full"),
            },
            NandError::ReadUnwritten(ppa) => write!(f, "read of unwritten page {ppa}"),
            NandError::PayloadTooLarge { len, page_size } => {
                write!(f, "payload of {len} bytes exceeds page size {page_size}")
            }
            NandError::BlockWornOut(pba) => write!(f, "block {pba} exceeded endurance limit"),
            NandError::InjectedFault(what) => write!(f, "injected fault: {what}"),
            NandError::PowerLoss => {
                write!(f, "power loss: device is offline until remounted")
            }
            NandError::OobCorrupt(ppa) => {
                write!(f, "spare-area record of {ppa} fails its crc check")
            }
            NandError::LbaOutOfRange(lba) => {
                write!(f, "{lba} does not fit the spare area's 4-byte address")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let msgs = [
            NandError::PpaOutOfRange(Ppa::new(9)).to_string(),
            NandError::ProgramNonFree(Ppa::new(1)).to_string(),
            NandError::ProgramOutOfOrder {
                requested: Ppa::new(5),
                expected_offset: Some(2),
            }
            .to_string(),
            NandError::ProgramOutOfOrder {
                requested: Ppa::new(5),
                expected_offset: None,
            }
            .to_string(),
            NandError::ReadUnwritten(Ppa::new(3)).to_string(),
            NandError::PayloadTooLarge {
                len: 5000,
                page_size: 4096,
            }
            .to_string(),
            NandError::BlockWornOut(Pba::new(2)).to_string(),
            NandError::InjectedFault("program").to_string(),
            NandError::PowerLoss.to_string(),
            NandError::OobCorrupt(Ppa::new(4)).to_string(),
            NandError::LbaOutOfRange(Lba::new(1 << 32)).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("out"));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NandError>();
    }
}
