//! On-disk layout: superblock and free-block bitmap.

use crate::{FsError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number identifying a MiniExt superblock.
pub const MAGIC: u64 = 0x4d49_4e49_4558_5431; // "MINIEXT1"

/// Size of one inode record on disk.
pub const INODE_SIZE: usize = 64;

/// Size of one directory entry on disk.
pub const DIRENT_SIZE: usize = 32;

/// Maximum file-name length (bytes) storable in a directory entry.
pub const NAME_MAX: usize = 24;

/// The filesystem superblock (block 0).
///
/// `free_blocks` is the redundant counter that Table II's "wrong free-block
/// count" corruption targets: after a rollback it can disagree with the
/// bitmap, and fsck must reconcile them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Total blocks on the device at format time.
    pub total_blocks: u64,
    /// Number of inodes in the table.
    pub inode_count: u32,
    /// First block of the inode table (always 1).
    pub inode_table_start: u64,
    /// Blocks occupied by the inode table.
    pub inode_table_blocks: u32,
    /// First block of the free-space bitmap.
    pub bitmap_start: u64,
    /// Blocks occupied by the bitmap.
    pub bitmap_blocks: u32,
    /// First data block.
    pub data_start: u64,
    /// Redundant count of free data blocks.
    pub free_blocks: u64,
}

impl Superblock {
    /// Number of data blocks the bitmap covers.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }

    /// Serializes the superblock into one device block.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u64_le(MAGIC);
        buf.put_u64_le(self.total_blocks);
        buf.put_u32_le(self.inode_count);
        buf.put_u64_le(self.inode_table_start);
        buf.put_u32_le(self.inode_table_blocks);
        buf.put_u64_le(self.bitmap_start);
        buf.put_u32_le(self.bitmap_blocks);
        buf.put_u64_le(self.data_start);
        buf.put_u64_le(self.free_blocks);
        buf.freeze()
    }

    /// Parses a superblock from block 0's contents.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotAMiniExt`] if the block is absent, too short,
    /// or carries the wrong magic number.
    pub fn decode(data: Option<&Bytes>) -> Result<Self> {
        let Some(data) = data else {
            return Err(FsError::NotAMiniExt);
        };
        // The superblock occupies exactly 60 encoded bytes.
        if data.len() < 60 {
            return Err(FsError::NotAMiniExt);
        }
        let mut buf = data.clone();
        if buf.get_u64_le() != MAGIC {
            return Err(FsError::NotAMiniExt);
        }
        Ok(Superblock {
            total_blocks: buf.get_u64_le(),
            inode_count: buf.get_u32_le(),
            inode_table_start: buf.get_u64_le(),
            inode_table_blocks: buf.get_u32_le(),
            bitmap_start: buf.get_u64_le(),
            bitmap_blocks: buf.get_u32_le(),
            data_start: buf.get_u64_le(),
            free_blocks: buf.get_u64_le(),
        })
    }
}

/// In-memory free-space bitmap over the data region; bit `i` set means data
/// block `data_start + i` is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    data_blocks: u64,
}

impl Bitmap {
    /// An all-free bitmap covering `data_blocks` blocks.
    pub fn new(data_blocks: u64) -> Self {
        Bitmap {
            bits: vec![0; data_blocks.div_ceil(8) as usize],
            data_blocks,
        }
    }

    /// Rebuilds a bitmap from raw bitmap-block contents.
    pub fn from_bytes(raw: &[u8], data_blocks: u64) -> Self {
        let mut bits = raw.to_vec();
        bits.resize(data_blocks.div_ceil(8) as usize, 0);
        Bitmap { bits, data_blocks }
    }

    /// Raw bytes for persistence.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Number of data blocks covered.
    pub fn len(&self) -> u64 {
        self.data_blocks
    }

    /// Whether the bitmap covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.data_blocks == 0
    }

    /// Whether data block `i` is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.data_blocks, "bitmap index {i} out of range");
        self.bits[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// Marks data block `i` allocated or free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: u64, used: bool) {
        assert!(i < self.data_blocks, "bitmap index {i} out of range");
        let byte = &mut self.bits[(i / 8) as usize];
        if used {
            *byte |= 1 << (i % 8);
        } else {
            *byte &= !(1 << (i % 8));
        }
    }

    /// Index of the first free data block, if any.
    pub fn first_free(&self) -> Option<u64> {
        let byte = self.bits.iter().position(|&b| b != 0xff)?;
        let i = byte as u64 * 8 + self.bits[byte].trailing_ones() as u64;
        // Only the last byte can hold a clear bit that is padding, and then
        // every bit before it is taken.
        (i < self.data_blocks).then_some(i)
    }

    /// Number of free data blocks.
    pub fn free_count(&self) -> u64 {
        self.data_blocks - self.count_ones(|_, b| b)
    }

    /// Number of data blocks on which `self` and `other` disagree.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps cover different numbers of blocks.
    pub fn diff_count(&self, other: &Bitmap) -> u64 {
        assert_eq!(
            self.data_blocks, other.data_blocks,
            "bitmaps of different lengths"
        );
        self.count_ones(|i, b| b ^ other.bits[i])
    }

    /// Population count of `f(byte index, byte)` over the data region. The
    /// padding bits of the last byte are masked off: they carry whatever
    /// [`from_bytes`](Self::from_bytes) was given.
    fn count_ones(&self, f: impl Fn(usize, u8) -> u8) -> u64 {
        let pad = self.bits.len() as u64 * 8 - self.data_blocks;
        let last = self.bits.len().wrapping_sub(1);
        self.bits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mask = if i == last { 0xff >> pad } else { 0xff };
                (f(i, b) & mask).count_ones() as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> Superblock {
        Superblock {
            total_blocks: 1024,
            inode_count: 256,
            inode_table_start: 1,
            inode_table_blocks: 4,
            bitmap_start: 5,
            bitmap_blocks: 1,
            data_start: 6,
            free_blocks: 1018,
        }
    }

    #[test]
    fn superblock_round_trip() {
        let s = sb();
        let encoded = s.encode();
        let decoded = Superblock::decode(Some(&encoded)).unwrap();
        assert_eq!(s, decoded);
        assert_eq!(s.data_blocks(), 1018);
    }

    #[test]
    fn superblock_rejects_garbage() {
        assert_eq!(Superblock::decode(None), Err(FsError::NotAMiniExt));
        assert_eq!(
            Superblock::decode(Some(&Bytes::from_static(b"short"))),
            Err(FsError::NotAMiniExt)
        );
        let mut bad = BytesMut::from(&sb().encode()[..]);
        bad[0] ^= 0xff;
        assert_eq!(
            Superblock::decode(Some(&bad.freeze())),
            Err(FsError::NotAMiniExt)
        );
    }

    #[test]
    fn bitmap_set_get_free_count() {
        let mut b = Bitmap::new(20);
        assert_eq!(b.free_count(), 20);
        b.set(3, true);
        b.set(9, true);
        assert!(b.get(3));
        assert!(!b.get(4));
        assert_eq!(b.free_count(), 18);
        assert_eq!(b.first_free(), Some(0));
        b.set(3, false);
        assert_eq!(b.free_count(), 19);
    }

    #[test]
    fn bitmap_first_free_when_full() {
        let mut b = Bitmap::new(3);
        for i in 0..3 {
            b.set(i, true);
        }
        assert_eq!(b.first_free(), None);
    }

    /// The byte-wise scans against their bit-by-bit definitions, on lengths
    /// around the byte boundary, with the last byte's padding bits (which
    /// `from_bytes` takes from the device as they come) both clear and set.
    #[test]
    fn bitmap_scans_match_bitwise_definition_and_ignore_padding() {
        for len in [1u64, 7, 8, 9, 20] {
            let bytes = len.div_ceil(8) as usize;
            let valid = 0xffu8 >> (bytes as u64 * 8 - len);
            let mut patterns: Vec<Vec<u8>> = vec![vec![0x00; bytes], vec![0xff; bytes]];
            patterns.extend((1..24u32).map(|k| {
                (0..bytes as u32)
                    .map(|i| (k.wrapping_mul(2_654_435_761) >> (8 * (i % 3))) as u8)
                    .collect()
            }));
            let maps: Vec<Bitmap> = patterns
                .iter()
                .flat_map(|raw| {
                    [0x00u8, 0xff].map(|pad| {
                        let mut raw = raw.clone();
                        let last = raw.last_mut().unwrap();
                        *last = (*last & valid) | (pad & !valid);
                        Bitmap::from_bytes(&raw, len)
                    })
                })
                .collect();
            for a in &maps {
                assert_eq!(a.first_free(), (0..len).find(|&i| !a.get(i)), "{a:?}");
                assert_eq!(
                    a.free_count(),
                    (0..len).filter(|&i| !a.get(i)).count() as u64,
                    "{a:?}"
                );
                for b in &maps {
                    assert_eq!(
                        a.diff_count(b),
                        (0..len).filter(|&i| a.get(i) != b.get(i)).count() as u64,
                        "{a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitmap_bytes_round_trip() {
        let mut b = Bitmap::new(20);
        b.set(0, true);
        b.set(13, true);
        let restored = Bitmap::from_bytes(b.as_bytes(), 20);
        assert_eq!(b, restored);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_bounds_checked() {
        Bitmap::new(8).get(8);
    }
}
