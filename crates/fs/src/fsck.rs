//! The consistency checker/repairer — MiniExt's `fsck`.
//!
//! After SSD-Insider rolls the drive back, the filesystem is in the state it
//! had ten seconds earlier *mid-flight*: a file's data may be restored while
//! its inode update survived, the superblock's free counter may disagree
//! with the bitmap, and directory entries may point at freed inodes. The
//! paper (Table II) resolves this exactly like a post-power-loss boot: run
//! fsck, which must leave the filesystem consistent with no files lost.

use crate::blockdev::BlockDev;
use crate::fs::MiniExt;
use crate::inode::{Inode, InodeKind};
use crate::layout::{Bitmap, Superblock};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The corruption classes of the paper's Table II (plus orphaned inodes and
/// dangling directory entries, which complete the repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Superblock free-block counter disagrees with the bitmap.
    WrongFreeBlockCount,
    /// An inode's redundant block count disagrees with its pointer walk.
    WrongInodeBlockCount,
    /// The on-disk free-space bitmap disagrees with the set of blocks
    /// actually referenced by live inodes.
    FreeSpaceBitmap,
    /// A directory entry points at a free or out-of-range inode.
    DanglingDirEntry,
    /// A live file inode unreachable from the root directory.
    OrphanInode,
    /// An inode held a pointer outside the data region.
    InvalidPointer,
    /// Two inodes referenced the same data block (the later reference is
    /// cleared; first wins, as in ext4's fsck).
    DuplicateBlock,
    /// The root-directory inode was not a directory and was repaired.
    RootInode,
}

impl CorruptionKind {
    /// Display name matching Table II's rows.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::WrongFreeBlockCount => "Wrong free-block count",
            CorruptionKind::WrongInodeBlockCount => "Wrong inode-block count",
            CorruptionKind::FreeSpaceBitmap => "Free-space bitmap",
            CorruptionKind::DanglingDirEntry => "Dangling directory entry",
            CorruptionKind::OrphanInode => "Orphan inode",
            CorruptionKind::InvalidPointer => "Invalid block pointer",
            CorruptionKind::DuplicateBlock => "Duplicate block reference",
            CorruptionKind::RootInode => "Root inode repair",
        }
    }
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What fsck found (and fixed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FsckReport {
    /// Superblock free-count mismatches found (0 or 1 per run).
    pub wrong_free_block_count: u64,
    /// Inodes whose block count needed fixing.
    pub wrong_inode_block_count: u64,
    /// Bitmap bits that disagreed with the reachable-block set.
    pub free_space_bitmap: u64,
    /// Directory entries removed.
    pub dangling_dir_entries: u64,
    /// Unreachable live inodes freed.
    pub orphan_inodes: u64,
    /// Out-of-range block pointers cleared.
    pub invalid_pointers: u64,
    /// Cross-inode duplicate block references cleared.
    pub duplicate_blocks: u64,
    /// Root-directory inode repairs (kind forced back to directory).
    pub root_repairs: u64,
}

impl FsckReport {
    /// Whether the filesystem was already fully consistent.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Total corruption findings.
    pub fn total(&self) -> u64 {
        self.wrong_free_block_count
            + self.wrong_inode_block_count
            + self.free_space_bitmap
            + self.dangling_dir_entries
            + self.orphan_inodes
            + self.invalid_pointers
            + self.duplicate_blocks
            + self.root_repairs
    }

    /// Count for one corruption kind.
    pub fn count(&self, kind: CorruptionKind) -> u64 {
        match kind {
            CorruptionKind::WrongFreeBlockCount => self.wrong_free_block_count,
            CorruptionKind::WrongInodeBlockCount => self.wrong_inode_block_count,
            CorruptionKind::FreeSpaceBitmap => self.free_space_bitmap,
            CorruptionKind::DanglingDirEntry => self.dangling_dir_entries,
            CorruptionKind::OrphanInode => self.orphan_inodes,
            CorruptionKind::InvalidPointer => self.invalid_pointers,
            CorruptionKind::DuplicateBlock => self.duplicate_blocks,
            CorruptionKind::RootInode => self.root_repairs,
        }
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        write!(
            f,
            "free-count={} inode-count={} bitmap-bits={} dangling={} orphans={} bad-ptrs={} dup-blocks={} root={}",
            self.wrong_free_block_count,
            self.wrong_inode_block_count,
            self.free_space_bitmap,
            self.dangling_dir_entries,
            self.orphan_inodes,
            self.invalid_pointers,
            self.duplicate_blocks,
            self.root_repairs
        )
    }
}

fn pointer_in_data_region(sb: &Superblock, p: u32) -> bool {
    (p as u64) >= sb.data_start && (p as u64) < sb.total_blocks
}

/// Shifts the pointers that pass `keep` to the front (preserving order),
/// zero-filling the tail — the walk stops at the first zero, so holes in
/// the direct array would orphan everything after them.
fn compact_direct(direct: &mut [u32; crate::inode::DIRECT_PTRS], keep: impl Fn(u32) -> bool) {
    let survivors: Vec<u32> = direct
        .iter()
        .copied()
        .filter(|&p| p != 0 && keep(p))
        .collect();
    direct.fill(0);
    direct[..survivors.len()].copy_from_slice(&survivors);
}

/// Reads the pointer array from an indirect block, dropping out-of-range
/// entries; returns the surviving pointers and how many were dropped.
fn read_indirect_ptrs<D: BlockDev>(
    fs: &mut MiniExt<D>,
    indirect: u64,
) -> crate::Result<(Vec<u32>, u64)> {
    use bytes::Buf;
    let raw = fs.dev.read_block(indirect)?;
    let mut ptrs = Vec::new();
    let mut bad = 0;
    if let Some(mut raw) = raw {
        while raw.remaining() >= 4 {
            let p = raw.get_u32_le();
            if p == 0 {
                break;
            }
            if pointer_in_data_region(&fs.sb, p) {
                ptrs.push(p);
            } else {
                bad += 1;
            }
        }
    }
    Ok((ptrs, bad))
}

/// Rewrites an indirect block with a compacted pointer array.
fn write_indirect_ptrs<D: BlockDev>(
    fs: &mut MiniExt<D>,
    indirect: u64,
    ptrs: &[u32],
) -> crate::Result<()> {
    use bytes::BufMut;
    let mut buf = bytes::BytesMut::new();
    for p in ptrs {
        buf.put_u32_le(*p);
    }
    fs.dev.write_block(indirect, buf.freeze())
}

/// Checks and repairs the filesystem on `dev`, returning what was found.
/// All repairs are written back; a second run returns a clean report.
///
/// # Errors
///
/// Fails with [`FsError::NotAMiniExt`](crate::FsError::NotAMiniExt) when no
/// superblock is present, or on device errors.
pub fn fsck<D: BlockDev>(dev: D) -> Result<(FsckReport, D)> {
    let mut fs = MiniExt::mount(dev)?;
    let mut report = FsckReport::default();

    // Pass 0: the root directory inode must exist and be a directory —
    // everything else hangs off it. Garbage or a Free kind here (a torn
    // inode-table write) is repaired by forcing the kind back to Dir; its
    // pointers are then sanitized by pass 1 like any other inode's.
    if fs.inodes.is_empty() {
        return Err(crate::FsError::Corrupt("inode table is empty"));
    }
    if fs.inodes[0].kind != InodeKind::Dir {
        fs.inodes[0].kind = InodeKind::Dir;
        fs.flush_inode(0)?;
        report.root_repairs += 1;
    }

    // Pass 1: clear invalid pointers so later walks stay in bounds, then
    // compact the direct array (the pointer walk stops at the first zero,
    // so a hole would orphan every pointer after it).
    for idx in 0..fs.inodes.len() {
        if !fs.inodes[idx].is_live() {
            continue;
        }
        let mut inode = fs.inodes[idx];
        let mut dirty = false;
        let bad_direct = inode
            .direct
            .iter()
            .filter(|&&p| p != 0 && !pointer_in_data_region(&fs.sb, p))
            .count();
        // Normalize unconditionally: interior zero holes (torn writes)
        // hide their tail from the stop-at-first-zero walk, so they are a
        // structural corruption even when every pointer is in range.
        let original = inode.direct;
        compact_direct(&mut inode.direct, |p| pointer_in_data_region(&fs.sb, p));
        if inode.direct != original {
            report.invalid_pointers += (bad_direct as u64).max(1); // bad pointers, or 1 for a hole
            dirty = true;
        }
        if inode.indirect != 0 && !pointer_in_data_region(&fs.sb, inode.indirect) {
            inode.indirect = 0;
            report.invalid_pointers += 1;
            dirty = true;
        }
        // Sanitize the pointers stored *inside* the indirect block too,
        // before any pass walks them.
        if inode.indirect != 0 {
            let (ptrs, bad) = read_indirect_ptrs(&mut fs, inode.indirect as u64)?;
            if bad > 0 {
                report.invalid_pointers += bad;
                write_indirect_ptrs(&mut fs, inode.indirect as u64, &ptrs)?;
                dirty = true;
            }
        }
        if dirty {
            fs.inodes[idx] = inode;
            fs.flush_inode(idx as u32)?;
        }
    }

    // Pass 2: directory entries must point at live file inodes, once each,
    // under unique (persistable) names — lossy-decoded corrupt names can
    // clamp to the same bytes, and duplicates would shadow each other.
    let dir = fs.load_dir()?;
    let mut seen = HashSet::new();
    let mut seen_names: HashSet<Vec<u8>> = HashSet::new();
    let mut kept = Vec::with_capacity(dir.len());
    for (name, inode) in dir {
        let valid = (inode as usize) < fs.inodes.len()
            && fs.inodes[inode as usize].kind == InodeKind::File
            && seen_names.insert(crate::fs::clamp_name(&name).to_vec())
            && seen.insert(inode);
        if valid {
            kept.push((name, inode));
        } else {
            report.dangling_dir_entries += 1;
        }
    }
    if report.dangling_dir_entries > 0 {
        fs.save_dir(&kept)?;
    }

    // Pass 3: free orphaned inodes — any live non-root inode unreachable
    // from the directory, including garbage that decoded as a stray Dir
    // (only the root may be a directory in MiniExt).
    for idx in 1..fs.inodes.len() {
        if fs.inodes[idx].is_live() && !seen.contains(&(idx as u32)) {
            fs.inodes[idx] = Inode::default();
            fs.flush_inode(idx as u32)?;
            report.orphan_inodes += 1;
        }
    }

    // Pass 4: no data block may be referenced by two inodes — a state a
    // mid-update rollback can produce (one inode freed its block, another
    // allocated it, and only one of the two inode flushes survived). First
    // reference wins; later ones are cleared.
    {
        let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for idx in 0..fs.inodes.len() {
            if !fs.inodes[idx].is_live() {
                continue;
            }
            let mut inode = fs.inodes[idx];
            let mut dirty = false;
            let mut dup_direct = false;
            for p in &mut inode.direct {
                if *p != 0 {
                    match owner.entry(*p as u64) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(idx);
                        }
                        std::collections::hash_map::Entry::Occupied(_) => {
                            *p = 0;
                            report.duplicate_blocks += 1;
                            dup_direct = true;
                            dirty = true;
                        }
                    }
                }
            }
            if dup_direct {
                // Shift survivors down: the pointer walk stops at the first
                // zero, so a hole would orphan the tail.
                compact_direct(&mut inode.direct, |_| true);
            }
            if inode.indirect != 0 {
                match owner.entry(inode.indirect as u64) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(idx);
                    }
                    std::collections::hash_map::Entry::Occupied(_) => {
                        inode.indirect = 0;
                        report.duplicate_blocks += 1;
                        dirty = true;
                    }
                }
            }
            // Pointers stored inside the indirect block itself.
            if inode.indirect != 0 {
                use bytes::{Buf, BufMut, Bytes, BytesMut};
                let raw = fs.dev.read_block(inode.indirect as u64)?;
                let mut ptrs: Vec<u32> = Vec::new();
                if let Some(mut raw) = raw {
                    while raw.remaining() >= 4 {
                        let p = raw.get_u32_le();
                        if p == 0 {
                            break;
                        }
                        ptrs.push(p);
                    }
                }
                let mut indirect_dirty = false;
                for p in &mut ptrs {
                    match owner.entry(*p as u64) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(idx);
                        }
                        std::collections::hash_map::Entry::Occupied(_) => {
                            *p = 0;
                            report.duplicate_blocks += 1;
                            indirect_dirty = true;
                        }
                    }
                }
                if indirect_dirty {
                    // Compact: pointers after a cleared slot shift down so
                    // the chain stays contiguous.
                    ptrs.retain(|p| *p != 0);
                    let mut buf = BytesMut::new();
                    for p in &ptrs {
                        buf.put_u32_le(*p);
                    }
                    let block: Bytes = buf.freeze();
                    fs.dev.write_block(inode.indirect as u64, block)?;
                    dirty = true;
                }
            }
            if dirty {
                fs.inodes[idx] = inode;
                fs.flush_inode(idx as u32)?;
            }
        }
    }

    // Pass 5: per-inode block counts must match the pointer walk.
    for idx in 0..fs.inodes.len() {
        if !fs.inodes[idx].is_live() {
            continue;
        }
        let actual = fs.collect_blocks(idx as u32)?.len() as u32;
        let cap = actual as u64 * fs.dev.block_size() as u64;
        let count_wrong = fs.inodes[idx].block_count != actual;
        let size_wrong = fs.inodes[idx].size > cap;
        if count_wrong || size_wrong {
            fs.inodes[idx].block_count = actual;
            if size_wrong {
                fs.inodes[idx].size = cap;
            }
            fs.flush_inode(idx as u32)?;
            report.wrong_inode_block_count += 1;
        }
    }

    // Pass 6: rebuild the bitmap from the reachable-block set.
    let mut referenced = HashSet::new();
    for idx in 0..fs.inodes.len() {
        if !fs.inodes[idx].is_live() {
            continue;
        }
        for b in fs.collect_blocks(idx as u32)? {
            referenced.insert(b);
        }
        let ind = fs.inodes[idx].indirect;
        if ind != 0 {
            referenced.insert(ind as u64);
        }
    }
    let mut rebuilt = Bitmap::new(fs.sb.data_blocks());
    for b in &referenced {
        rebuilt.set(b - fs.sb.data_start, true);
    }
    let diff = rebuilt.diff_count(&fs.bitmap);
    if diff > 0 {
        report.free_space_bitmap = diff;
        fs.bitmap = rebuilt;
        fs.flush_bitmap()?;
    }

    // Pass 7: the superblock's redundant free counter.
    let actual_free = fs.bitmap.free_count();
    if fs.sb.free_blocks != actual_free {
        fs.sb.free_blocks = actual_free;
        fs.flush_superblock()?;
        report.wrong_free_block_count = 1;
    }

    Ok((report, fs.into_dev()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::MemDev;
    use crate::fs::FsConfig;
    use bytes::Bytes;

    fn populated() -> MemDev {
        let mut fs = MiniExt::format(MemDev::new(1024, 4096), &FsConfig::default()).unwrap();
        fs.write_file("a.txt", &[1u8; 9000]).unwrap();
        fs.write_file("b.txt", &[2u8; 100]).unwrap();
        fs.write_file("big.bin", &[3u8; 50_000]).unwrap();
        fs.into_dev()
    }

    #[test]
    fn clean_fs_reports_clean() {
        let (report, _) = fsck(populated()).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn fsck_of_blank_device_fails() {
        assert!(fsck(MemDev::new(8, 4096)).is_err());
    }

    #[test]
    fn repairs_wrong_free_block_count() {
        let mut dev = populated();
        // Corrupt the superblock's free counter.
        let mut sb = Superblock::decode(dev.read_block(0).unwrap().as_ref()).unwrap();
        sb.free_blocks += 17;
        dev.write_block(0, sb.encode()).unwrap();

        let (report, dev) = fsck(dev).unwrap();
        assert_eq!(report.wrong_free_block_count, 1);
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean(), "second pass must be clean: {report2}");
    }

    #[test]
    fn repairs_wrong_inode_block_count() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        // Corrupt a live inode's redundant counter directly.
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File)
            .unwrap();
        fs.inodes[idx].block_count += 5;
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.wrong_inode_block_count >= 1);
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn repairs_bitmap_mismatch() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        // Flip bits: mark two used blocks free and one free block used.
        fs.bitmap.set(0, !fs.bitmap.get(0));
        fs.bitmap.set(1, !fs.bitmap.get(1));
        let last = fs.sb.data_blocks() - 1;
        fs.bitmap.set(last, !fs.bitmap.get(last));
        fs.flush_bitmap().unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert_eq!(report.free_space_bitmap, 3);
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn removes_dangling_dir_entries() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        // Point a directory entry at a free inode.
        let mut dir = fs.load_dir().unwrap();
        dir.push(("ghost.txt".to_string(), 200));
        fs.save_dir(&dir).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert_eq!(report.dangling_dir_entries, 1);
        let mut fs = MiniExt::mount(dev).unwrap();
        assert!(!fs.exists("ghost.txt").unwrap());
        assert_eq!(fs.read_file("a.txt").unwrap(), vec![1u8; 9000]);
    }

    #[test]
    fn frees_orphan_inodes() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        // Drop a directory entry but keep its inode live.
        let mut dir = fs.load_dir().unwrap();
        dir.retain(|(n, _)| n != "b.txt");
        fs.save_dir(&dir).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert_eq!(report.orphan_inodes, 1);
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn clears_invalid_pointers() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File)
            .unwrap();
        fs.inodes[idx].direct[0] = u32::MAX; // way out of range
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.invalid_pointers >= 1);
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn survives_garbage_metadata_blocks() {
        let mut dev = populated();
        // Smash one inode-table block with random-looking bytes.
        let sb = Superblock::decode(dev.read_block(0).unwrap().as_ref()).unwrap();
        dev.write_block(sb.inode_table_start + 1, Bytes::from(vec![0xA5u8; 4096]))
            .unwrap();
        // fsck must not panic and must converge.
        let (_, dev) = fsck(dev).unwrap();
        let (report2, _) = fsck(dev).unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn surviving_files_still_readable_after_repair() {
        let mut dev = populated();
        let mut sb = Superblock::decode(dev.read_block(0).unwrap().as_ref()).unwrap();
        sb.free_blocks = 0;
        dev.write_block(0, sb.encode()).unwrap();

        let (_, dev) = fsck(dev).unwrap();
        let mut fs = MiniExt::mount(dev).unwrap();
        assert_eq!(fs.read_file("a.txt").unwrap(), vec![1u8; 9000]);
        assert_eq!(fs.read_file("big.bin").unwrap(), vec![3u8; 50_000]);
        // And the filesystem is fully usable.
        fs.write_file("new.txt", b"post-repair").unwrap();
        assert_eq!(fs.read_file("new.txt").unwrap(), b"post-repair");
    }

    #[test]
    fn report_accessors() {
        let mut r = FsckReport::default();
        assert!(r.is_clean());
        r.free_space_bitmap = 3;
        r.orphan_inodes = 1;
        assert_eq!(r.total(), 4);
        assert_eq!(r.count(CorruptionKind::FreeSpaceBitmap), 3);
        assert_eq!(r.count(CorruptionKind::OrphanInode), 1);
        assert!(r.to_string().contains("bitmap-bits=3"));
        assert_eq!(FsckReport::default().to_string(), "clean");
    }
}

#[cfg(test)]
mod duplicate_block_tests {
    use super::*;
    use crate::blockdev::MemDev;
    use crate::fs::FsConfig;

    fn populated() -> MemDev {
        let mut fs = MiniExt::format(MemDev::new(1024, 4096), &FsConfig::default()).unwrap();
        fs.write_file("a", &[1u8; 9000]).unwrap();
        fs.write_file("b", &[2u8; 9000]).unwrap();
        fs.write_file("big", &[3u8; 4096 * 14]).unwrap(); // uses an indirect block
        fs.into_dev()
    }

    #[test]
    fn clears_cross_inode_duplicate_direct_pointer() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        // Point file b's first block at file a's first block.
        let a_idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File)
            .unwrap();
        let b_idx = fs
            .inodes
            .iter()
            .enumerate()
            .position(|(i, n)| i > a_idx && n.kind == InodeKind::File)
            .unwrap();
        let stolen = fs.inodes[a_idx].direct[0];
        fs.inodes[b_idx].direct[0] = stolen;
        let b32 = b_idx as u32;
        fs.flush_inode(b32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.duplicate_blocks >= 1, "{report}");
        let (second, _) = fsck(dev).unwrap();
        assert!(second.is_clean(), "second pass must be clean: {second}");
    }

    #[test]
    fn clears_duplicate_inside_indirect_block() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let big_idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File && i.indirect != 0)
            .expect("big file has an indirect block");
        // Steal another file's block into the indirect chain.
        let victim_idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File && i.indirect == 0)
            .unwrap();
        let stolen = fs.inodes[victim_idx].direct[0];
        let indirect = fs.inodes[big_idx].indirect as u64;
        let mut raw = fs.dev.read_block(indirect).unwrap().unwrap().to_vec();
        raw[0..4].copy_from_slice(&stolen.to_le_bytes());
        fs.dev
            .write_block(indirect, bytes::Bytes::from(raw))
            .unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.duplicate_blocks >= 1, "{report}");
        let (second, _) = fsck(dev).unwrap();
        assert!(second.is_clean(), "second pass must be clean: {second}");
    }

    #[test]
    fn duplicate_kind_is_reported() {
        let r = FsckReport {
            duplicate_blocks: 2,
            ..Default::default()
        };
        assert_eq!(r.count(CorruptionKind::DuplicateBlock), 2);
        assert!(r.to_string().contains("dup-blocks=2"));
        assert_eq!(
            CorruptionKind::DuplicateBlock.name(),
            "Duplicate block reference"
        );
    }
}

#[cfg(test)]
mod hardening_tests {
    use super::*;
    use crate::blockdev::MemDev;
    use crate::fs::FsConfig;
    use bytes::Bytes;

    fn populated() -> MemDev {
        let mut fs = MiniExt::format(MemDev::new(1024, 4096), &FsConfig::default()).unwrap();
        fs.write_file("a", &[1u8; 9000]).unwrap();
        fs.write_file("b", &[2u8; 4096 * 3]).unwrap();
        fs.write_file("big", &[3u8; 4096 * 14]).unwrap();
        fs.into_dev()
    }

    /// Clearing a mid-array direct pointer must not orphan the tail: the
    /// compaction keeps trailing pointers reachable.
    #[test]
    fn invalid_mid_direct_pointer_keeps_the_tail() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File && i.block_count >= 3)
            .unwrap();
        let tail = fs.inodes[idx].direct[2];
        assert_ne!(tail, 0);
        fs.inodes[idx].direct[1] = u32::MAX; // corrupt the middle pointer
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.invalid_pointers >= 1);
        let fs = MiniExt::mount(dev).unwrap();
        // The tail block is still referenced by the (compacted) inode.
        assert!(fs.inodes[idx].direct.contains(&tail));
        let (second, _) = fsck(fs.into_dev()).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// Garbage inside an indirect block (out-of-range pointers) is repaired
    /// instead of panicking the bitmap rebuild.
    #[test]
    fn garbage_indirect_contents_are_repaired() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File && i.indirect != 0)
            .unwrap();
        let indirect = fs.inodes[idx].indirect as u64;
        let mut raw = fs.dev.read_block(indirect).unwrap().unwrap().to_vec();
        raw[0..4].copy_from_slice(&u32::MAX.to_le_bytes()); // way out of range
        fs.dev.write_block(indirect, Bytes::from(raw)).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.invalid_pointers >= 1, "{report}");
        let (second, _) = fsck(dev).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// A root inode smashed to Free (torn inode-table write) is restored
    /// and no file inode is mass-freed.
    #[test]
    fn smashed_root_inode_is_restored() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let dir_blocks = fs.inodes[0];
        fs.inodes[0] = Inode::default(); // kind = Free, pointers lost
        fs.inodes[0].direct = dir_blocks.direct; // pointers survive the tear
        fs.inodes[0].block_count = dir_blocks.block_count;
        fs.inodes[0].size = dir_blocks.size;
        fs.flush_inode(0).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(!report.is_clean());
        let mut fs = MiniExt::mount(dev).unwrap();
        assert_eq!(fs.inodes[0].kind, InodeKind::Dir);
        // The files are all still reachable.
        assert_eq!(fs.read_file("a").unwrap(), vec![1u8; 9000]);
        assert_eq!(fs.read_file("big").unwrap(), vec![3u8; 4096 * 14]);
        let (second, _) = fsck(fs.into_dev()).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// An impossible size with a *matching* block count is still clamped.
    #[test]
    fn oversized_size_field_is_clamped() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File)
            .unwrap();
        fs.inodes[idx].size = u64::MAX; // block_count untouched (matches walk)
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.wrong_inode_block_count >= 1);
        let (second, _) = fsck(dev).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// A 56–59 byte superblock with valid magic is rejected, not panicked on.
    #[test]
    fn short_superblock_is_not_a_miniext() {
        let mut dev = MemDev::new(16, 4096);
        let full = {
            let fs = MiniExt::format(MemDev::new(16, 4096), &FsConfig { inode_count: 8 }).unwrap();
            let mut d = fs.into_dev();
            d.read_block(0).unwrap().unwrap()
        };
        dev.write_block(0, full.slice(0..58)).unwrap();
        assert!(matches!(
            MiniExt::mount(dev),
            Err(crate::FsError::NotAMiniExt)
        ));
    }
}

#[cfg(test)]
mod second_round_tests {
    use super::*;
    use crate::blockdev::MemDev;
    use crate::fs::FsConfig;

    fn populated() -> MemDev {
        let mut fs = MiniExt::format(MemDev::new(1024, 4096), &FsConfig::default()).unwrap();
        fs.write_file("a", &[1u8; 4096 * 3]).unwrap();
        fs.write_file("b", &[2u8; 4096 * 2]).unwrap();
        fs.into_dev()
    }

    /// An interior zero hole with an in-range tail is a structural
    /// corruption: fsck must normalize it so the tail stays reachable and
    /// its blocks are not simultaneously freed by the bitmap rebuild.
    #[test]
    fn interior_hole_with_in_range_tail_is_normalized() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = fs
            .inodes
            .iter()
            .position(|i| i.kind == InodeKind::File && i.block_count == 3)
            .unwrap();
        let tail = fs.inodes[idx].direct[2];
        fs.inodes[idx].direct[1] = 0; // torn write leaves a hole
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.invalid_pointers >= 1, "{report}");
        let fs = MiniExt::mount(dev).unwrap();
        assert!(
            fs.inodes[idx].direct[..2].contains(&tail),
            "tail block must remain reachable after normalization"
        );
        let (second, _) = fsck(fs.into_dev()).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// Garbage decoding as a stray directory inode is reclaimed like any
    /// other orphan instead of squatting on block ownership forever.
    #[test]
    fn stray_dir_inode_is_orphaned() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let idx = 40;
        fs.inodes[idx] = Inode {
            kind: InodeKind::Dir,
            ..Default::default()
        };
        fs.flush_inode(idx as u32).unwrap();
        let dev = fs.into_dev();

        let (report, dev) = fsck(dev).unwrap();
        assert!(report.orphan_inodes >= 1, "{report}");
        let (second, _) = fsck(dev).unwrap();
        assert!(second.is_clean(), "{second}");
    }

    /// Root repair is attributed to its own report row.
    #[test]
    fn root_repair_is_attributed() {
        let dev = populated();
        let mut fs = MiniExt::mount(dev).unwrap();
        let saved = fs.inodes[0];
        fs.inodes[0].kind = InodeKind::File; // torn kind byte
        fs.inodes[0].direct = saved.direct;
        fs.flush_inode(0).unwrap();
        let dev = fs.into_dev();

        let (report, _) = fsck(dev).unwrap();
        assert_eq!(report.count(CorruptionKind::RootInode), 1, "{report}");
    }

    /// A stale (rolled-back) superblock free counter of zero must not make
    /// allocation underflow.
    #[test]
    fn stale_zero_free_counter_does_not_underflow() {
        let mut dev = populated();
        let mut sb = Superblock::decode(dev.read_block(0).unwrap().as_ref()).unwrap();
        sb.free_blocks = 0; // lies: the bitmap has plenty free
        dev.write_block(0, sb.encode()).unwrap();
        // Mount without fsck (the crash-then-keep-writing scenario).
        let mut fs = MiniExt::mount(dev).unwrap();
        fs.write_file("new", &[9u8; 5000]).unwrap();
        assert_eq!(fs.read_file("new").unwrap(), vec![9u8; 5000]);
        // fsck afterwards reconciles the counter.
        let (report, _) = fsck(fs.into_dev()).unwrap();
        assert_eq!(report.wrong_free_block_count, 1);
    }
}
