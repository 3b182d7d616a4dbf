//! Filesystem error types.

use std::error::Error;
use std::fmt;

/// Errors returned by MiniExt operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// Block index beyond the device.
    BlockOutOfRange(u64),
    /// Payload larger than the device's block size.
    PayloadTooLarge {
        /// Bytes supplied.
        len: usize,
        /// Device block size.
        block_size: u32,
    },
    /// The superblock is missing or its magic number is wrong.
    NotAMiniExt,
    /// The device is too small for the requested format parameters.
    DeviceTooSmall {
        /// Blocks required.
        needed: u64,
        /// Blocks available.
        available: u64,
    },
    /// No such file.
    NotFound(String),
    /// A file with that name already exists.
    AlreadyExists(String),
    /// File name is empty or longer than the 24-byte directory slot.
    InvalidName(String),
    /// All inodes are in use.
    NoFreeInodes,
    /// The data region is full.
    NoSpace,
    /// The file needs more blocks than one inode can address.
    FileTooLarge {
        /// Blocks required.
        needed: u64,
        /// Blocks addressable per inode.
        max: u64,
    },
    /// On-disk metadata was unreadable or malformed (e.g. after a crash or
    /// rollback); run [`fsck`](crate::fsck()) to repair.
    Corrupt(&'static str),
    /// An underlying device error, carried as text to keep the trait simple.
    Device(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::BlockOutOfRange(i) => write!(f, "block {i} out of range"),
            FsError::PayloadTooLarge { len, block_size } => {
                write!(f, "payload of {len} bytes exceeds block size {block_size}")
            }
            FsError::NotAMiniExt => write!(f, "device does not hold a miniext filesystem"),
            FsError::DeviceTooSmall { needed, available } => {
                write!(
                    f,
                    "device too small: need {needed} blocks, have {available}"
                )
            }
            FsError::NotFound(name) => write!(f, "file not found: {name}"),
            FsError::AlreadyExists(name) => write!(f, "file already exists: {name}"),
            FsError::InvalidName(name) => write!(f, "invalid file name: {name:?}"),
            FsError::NoFreeInodes => write!(f, "no free inodes"),
            FsError::NoSpace => write!(f, "no free data blocks"),
            FsError::FileTooLarge { needed, max } => {
                write!(
                    f,
                    "file needs {needed} blocks but inodes address at most {max}"
                )
            }
            FsError::Corrupt(what) => write!(f, "corrupt metadata: {what}"),
            FsError::Device(msg) => write!(f, "device error: {msg}"),
        }
    }
}

impl Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let errors = [
            FsError::BlockOutOfRange(3),
            FsError::NotAMiniExt,
            FsError::NotFound("a.txt".into()),
            FsError::AlreadyExists("a.txt".into()),
            FsError::InvalidName(String::new()),
            FsError::NoFreeInodes,
            FsError::NoSpace,
            FsError::FileTooLarge {
                needed: 99,
                max: 10,
            },
            FsError::Corrupt("bitmap"),
            FsError::Device("nand: worn out".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FsError>();
    }
}
