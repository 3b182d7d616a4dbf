//! FTL error types.

use insider_nand::{Lba, NandError};
use std::error::Error;
use std::fmt;

/// Errors returned by FTL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// The logical address exceeds the exported capacity.
    LbaOutOfRange {
        /// The offending address.
        lba: Lba,
        /// Number of logical pages exported to the host.
        logical_pages: u64,
    },
    /// The drive is in read-only mode (post-detection lockdown); writes and
    /// trims are rejected.
    ReadOnly,
    /// No reclaimable space is left: every candidate GC victim would yield
    /// zero free pages (e.g. the drive is full of live or protected data).
    NoReclaimableSpace,
    /// A garbage-collection victim hit its endurance limit and was retired
    /// as a bad block (internal control flow; GC retries another victim).
    BadBlockRetired,
    /// Rollback was asked of a drive that retains no old versions (built
    /// with `FtlConfig::protection_window(None)`).
    NoRetention,
    /// An underlying NAND operation failed.
    Nand(NandError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LbaOutOfRange { lba, logical_pages } => write!(
                f,
                "{lba} out of range (device exports {logical_pages} logical pages)"
            ),
            FtlError::ReadOnly => write!(f, "drive is read-only pending recovery"),
            FtlError::NoReclaimableSpace => {
                write!(f, "garbage collection found no reclaimable space")
            }
            FtlError::BadBlockRetired => {
                write!(f, "victim block hit its endurance limit and was retired")
            }
            FtlError::NoRetention => write!(f, "drive retains no old versions to roll back to"),
            FtlError::Nand(e) => write!(f, "nand: {e}"),
        }
    }
}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Nand(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Ppa;

    #[test]
    fn displays_and_sources() {
        let e = FtlError::LbaOutOfRange {
            lba: Lba::new(10),
            logical_pages: 5,
        };
        assert!(e.to_string().contains("lba:10"));
        assert!(e.source().is_none());

        let e = FtlError::from(NandError::ReadUnwritten(Ppa::new(1)));
        assert!(e.to_string().starts_with("nand:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FtlError>();
    }
}
