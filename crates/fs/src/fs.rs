//! The MiniExt filesystem proper.

use crate::blockdev::BlockDev;
use crate::inode::{Inode, InodeKind, DIRECT_PTRS};
use crate::layout::{Bitmap, Superblock, DIRENT_SIZE, INODE_SIZE, NAME_MAX};
use crate::{FsError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{HashMap, HashSet};

/// Inode index of the root directory.
const ROOT_INODE: u32 = 0;

/// Format-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Number of inodes to provision (including the root directory).
    pub inode_count: u32,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig { inode_count: 256 }
    }
}

/// The root directory as loaded: entries in on-disk order, plus a name index
/// over them. The loader hands out unique names, so the two always have the
/// same length.
#[derive(Debug)]
struct Dir {
    entries: Vec<(String, u32)>,
    by_name: HashMap<String, u32>,
}

impl Dir {
    fn new(entries: Vec<(String, u32)>) -> Self {
        let by_name = entries.iter().cloned().collect();
        Dir { entries, by_name }
    }

    fn push(&mut self, name: &str, inode: u32) {
        self.entries.push((name.to_string(), inode));
        self.by_name.insert(name.to_string(), inode);
    }

    fn position(&self, name: &str) -> usize {
        self.entries
            .iter()
            .position(|(n, _)| n == name)
            .expect("indexed name has an entry")
    }

    fn remove(&mut self, name: &str) {
        self.entries.remove(self.position(name));
        self.by_name.remove(name);
    }

    fn rename(&mut self, from: &str, to: &str) {
        let pos = self.position(from);
        self.entries[pos].0 = to.to_string();
        let inode = self.by_name.remove(from).expect("indexed name");
        self.by_name.insert(to.to_string(), inode);
    }
}

/// A mounted MiniExt filesystem over any [`BlockDev`].
///
/// All metadata updates are write-through: every mutation lands on the
/// device before the call returns, so an abrupt rollback of the underlying
/// device leaves the same kind of partially-updated metadata a power loss
/// would — which is exactly the state [`fsck`](crate::fsck()) repairs.
///
/// # Residency
///
/// Between [`mount`](Self::mount)/[`format`](Self::format) and
/// [`into_dev`](Self::into_dev) the superblock, inode table, bitmap and root
/// directory are authoritative *in memory*: they are read from the device
/// once (the directory by the first call that needs it) and only written
/// afterwards. Whatever changes the device's contents underneath a mount —
/// a rollback, [`fsck`](crate::fsck()), raw writes through
/// [`dev_mut`](Self::dev_mut) — must be followed by `into_dev` and a fresh
/// `mount`, as a host reboots after SSD-Insider rolls its drive back.
#[derive(Debug)]
pub struct MiniExt<D: BlockDev> {
    pub(crate) dev: D,
    pub(crate) sb: Superblock,
    pub(crate) inodes: Vec<Inode>,
    pub(crate) bitmap: Bitmap,
    /// `None` until first needed, and again after a failed directory write,
    /// so the next call reloads from the device instead of trusting an edit
    /// that may not have landed.
    dir: Option<Dir>,
}

impl<D: BlockDev> MiniExt<D> {
    /// Formats `dev` and mounts the fresh filesystem.
    ///
    /// # Errors
    ///
    /// Fails if the device is too small for the inode table, bitmap and at
    /// least one data block, or on device errors.
    pub fn format(dev: D, config: &FsConfig) -> Result<Self> {
        let bs = dev.block_size() as u64;
        let total = dev.block_count();
        let inodes_per_block = bs as usize / INODE_SIZE;
        let inode_table_blocks = (config.inode_count as usize).div_ceil(inodes_per_block) as u32;

        // Fixed-point iteration: the bitmap must cover the data region,
        // whose size depends on the bitmap's own size.
        let meta = 1 + inode_table_blocks as u64;
        let mut bitmap_blocks = 1u64;
        loop {
            let data_blocks =
                total
                    .checked_sub(meta + bitmap_blocks)
                    .ok_or(FsError::DeviceTooSmall {
                        needed: meta + bitmap_blocks + 1,
                        available: total,
                    })?;
            let needed = data_blocks.div_ceil(8).div_ceil(bs).max(1);
            if needed <= bitmap_blocks {
                break;
            }
            bitmap_blocks = needed;
        }
        let data_start = meta + bitmap_blocks;
        if data_start >= total {
            return Err(FsError::DeviceTooSmall {
                needed: data_start + 1,
                available: total,
            });
        }

        let sb = Superblock {
            total_blocks: total,
            inode_count: config.inode_count,
            inode_table_start: 1,
            inode_table_blocks,
            bitmap_start: meta,
            bitmap_blocks: bitmap_blocks as u32,
            data_start,
            free_blocks: total - data_start,
        };

        let mut inodes = vec![Inode::default(); config.inode_count as usize];
        inodes[ROOT_INODE as usize] = Inode {
            kind: InodeKind::Dir,
            ..Default::default()
        };
        let bitmap = Bitmap::new(sb.data_blocks());

        let mut fs = MiniExt {
            dev,
            sb,
            inodes,
            bitmap,
            dir: None,
        };
        fs.flush_superblock()?;
        fs.flush_all_inodes()?;
        fs.flush_bitmap()?;
        Ok(fs)
    }

    /// Mounts an existing filesystem from `dev`.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::NotAMiniExt`] if block 0 holds no valid
    /// superblock, or on device errors.
    pub fn mount(mut dev: D) -> Result<Self> {
        let raw = dev.read_block(0)?;
        let sb = Superblock::decode(raw.as_ref())?;
        let inodes = read_inode_table(&mut dev, &sb)?;
        let bitmap = read_bitmap(&mut dev, &sb)?;
        Ok(MiniExt {
            dev,
            sb,
            inodes,
            bitmap,
            dir: None,
        })
    }

    /// The superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Unmounts and returns the device.
    pub fn into_dev(self) -> D {
        self.dev
    }

    /// Mutable access to the device: inspecting it, advancing its clock and
    /// arming fault plans are fine under a live mount. Changing block
    /// contents is not — the mount would keep serving its resident metadata
    /// (see [Residency](Self#residency)); remount after doing so.
    pub fn dev_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    // ---- metadata write-through ----

    pub(crate) fn flush_superblock(&mut self) -> Result<()> {
        self.dev.write_block(0, self.sb.encode())
    }

    pub(crate) fn flush_inode(&mut self, idx: u32) -> Result<()> {
        let per_block = self.dev.block_size() as usize / INODE_SIZE;
        let table_block = idx as usize / per_block;
        let first = table_block * per_block;
        let mut buf = BytesMut::with_capacity(per_block * INODE_SIZE);
        for i in first..(first + per_block).min(self.inodes.len()) {
            self.inodes[i].encode_into(&mut buf);
        }
        self.dev
            .write_block(self.sb.inode_table_start + table_block as u64, buf.freeze())
    }

    fn flush_all_inodes(&mut self) -> Result<()> {
        let per_block = self.dev.block_size() as usize / INODE_SIZE;
        for tb in 0..self.sb.inode_table_blocks as usize {
            let first = tb * per_block;
            if first >= self.inodes.len() {
                break;
            }
            self.flush_inode(first as u32)?;
        }
        Ok(())
    }

    pub(crate) fn flush_bitmap(&mut self) -> Result<()> {
        for b in 0..self.sb.bitmap_blocks as u64 {
            self.flush_bitmap_block(b)?;
        }
        Ok(())
    }

    /// Writes one block of the bitmap (allocation touches a single bit, so
    /// flushing only the covering block keeps per-alloc I/O constant).
    fn flush_bitmap_block(&mut self, b: u64) -> Result<()> {
        let bs = self.dev.block_size() as usize;
        let raw = self.bitmap.as_bytes();
        let lo = (b as usize * bs).min(raw.len());
        let hi = ((b as usize + 1) * bs).min(raw.len());
        self.dev.write_block(
            self.sb.bitmap_start + b,
            Bytes::copy_from_slice(&raw[lo..hi]),
        )
    }

    /// Bitmap block covering data-region bit `i`.
    fn bitmap_block_of(&self, i: u64) -> u64 {
        i / 8 / self.dev.block_size() as u64
    }

    // ---- block allocation ----

    fn alloc_block(&mut self) -> Result<u64> {
        let i = self.bitmap.first_free().ok_or(FsError::NoSpace)?;
        self.bitmap.set(i, true);
        // The counter is advisory (fsck reconciles it); a rolled-back
        // superblock can lag the bitmap, so never underflow here.
        self.sb.free_blocks = self.sb.free_blocks.saturating_sub(1);
        self.flush_bitmap_block(self.bitmap_block_of(i))?;
        self.flush_superblock()?;
        Ok(self.sb.data_start + i)
    }

    fn free_block(&mut self, abs: u64) -> Result<()> {
        // A pointer outside the data region can only come from corrupt
        // metadata (e.g. a mount skipped fsck after a crash); surface it
        // instead of underflowing into the bitmap.
        if abs < self.sb.data_start || abs >= self.sb.total_blocks {
            return Err(FsError::Corrupt("block pointer outside the data region"));
        }
        let i = abs - self.sb.data_start;
        if self.bitmap.get(i) {
            self.bitmap.set(i, false);
            self.sb.free_blocks += 1;
        }
        self.dev.trim_block(abs)?;
        self.flush_bitmap_block(self.bitmap_block_of(i))?;
        self.flush_superblock()?;
        Ok(())
    }

    // ---- inode data plumbing ----

    fn ptrs_per_indirect(&self) -> usize {
        self.dev.block_size() as usize / 4
    }

    /// All data-block pointers of an inode, in file order.
    pub(crate) fn collect_blocks(&mut self, idx: u32) -> Result<Vec<u64>> {
        let inode = self.inodes[idx as usize];
        let mut blocks: Vec<u64> = inode
            .direct
            .iter()
            .take_while(|&&p| p != 0)
            .map(|&p| p as u64)
            .collect();
        if inode.indirect != 0 {
            let raw = self.dev.read_block(inode.indirect as u64)?;
            if let Some(mut raw) = raw {
                while raw.remaining() >= 4 {
                    let p = raw.get_u32_le();
                    if p == 0 {
                        break;
                    }
                    blocks.push(p as u64);
                }
            }
        }
        Ok(blocks)
    }

    /// Rewrites inode `idx`'s content to `data`, reusing existing blocks
    /// in place (so overwriting a file overwrites the same LBAs — the
    /// pattern SSD-Insider watches for).
    ///
    /// The payload travels as a refcounted `Bytes`: each block's page is a
    /// zero-copy [`slice`](Bytes::slice) of the file buffer, so the whole
    /// host→NAND path moves one allocation by reference.
    fn write_inode_data(&mut self, idx: u32, data: Bytes) -> Result<()> {
        let bs = self.dev.block_size() as usize;
        let needed = data.len().div_ceil(bs) as u64;
        let max = DIRECT_PTRS as u64 + self.ptrs_per_indirect() as u64;
        if needed > max {
            return Err(FsError::FileTooLarge { needed, max });
        }

        let mut blocks = self.collect_blocks(idx)?;
        // Grow: allocate the missing tail blocks.
        while (blocks.len() as u64) < needed {
            blocks.push(self.alloc_block()?);
        }
        // Shrink: release surplus tail blocks.
        while (blocks.len() as u64) > needed {
            let b = blocks.pop().expect("surplus block exists");
            self.free_block(b)?;
        }

        // Write the content, one extent per contiguous run of blocks (a
        // file's blocks are usually sequential on a fresh format, so this
        // is typically a single multi-block request).
        for (pos, len) in contiguous_runs(&blocks) {
            let payloads: Vec<Bytes> = (pos..pos + len)
                .map(|i| {
                    let lo = i * bs;
                    let hi = ((i + 1) * bs).min(data.len());
                    data.slice(lo..hi)
                })
                .collect();
            self.dev.write_blocks(blocks[pos], &payloads)?;
        }

        // Update pointers.
        let inode = &mut self.inodes[idx as usize];
        let mut direct = [0u32; DIRECT_PTRS];
        for (i, b) in blocks.iter().take(DIRECT_PTRS).enumerate() {
            direct[i] = *b as u32;
        }
        inode.direct = direct;
        inode.size = data.len() as u64;
        inode.block_count = blocks.len() as u32;
        let old_indirect = inode.indirect;

        if blocks.len() > DIRECT_PTRS {
            // (Re)write the indirect block.
            let indirect = if old_indirect != 0 {
                old_indirect as u64
            } else {
                let b = self.alloc_block()?;
                self.inodes[idx as usize].indirect = b as u32;
                b
            };
            let mut buf = BytesMut::new();
            for b in &blocks[DIRECT_PTRS..] {
                buf.put_u32_le(*b as u32);
            }
            self.dev.write_block(indirect, buf.freeze())?;
        } else if old_indirect != 0 {
            self.inodes[idx as usize].indirect = 0;
            self.free_block(old_indirect as u64)?;
        }

        self.flush_inode(idx)
    }

    /// Reads inode `idx`'s full content. Blocks that read back `None`
    /// (trimmed or rolled back) are treated as zero-filled.
    fn read_inode_data(&mut self, idx: u32) -> Result<Vec<u8>> {
        let bs = self.dev.block_size() as usize;
        let size = self.inodes[idx as usize].size as usize;
        let blocks = self.collect_blocks(idx)?;
        let mut out = vec![0u8; blocks.len() * bs];
        for (pos, len) in contiguous_runs(&blocks) {
            let payloads = self.dev.read_blocks(blocks[pos], len as u64)?;
            for (i, data) in payloads.into_iter().enumerate() {
                if let Some(data) = data {
                    let lo = (pos + i) * bs;
                    out[lo..lo + data.len()].copy_from_slice(&data);
                }
            }
        }
        out.truncate(size);
        Ok(out)
    }

    fn release_inode_blocks(&mut self, idx: u32) -> Result<()> {
        let blocks = self.collect_blocks(idx)?;
        for b in blocks {
            self.free_block(b)?;
        }
        let indirect = self.inodes[idx as usize].indirect;
        if indirect != 0 {
            self.free_block(indirect as u64)?;
        }
        Ok(())
    }

    // ---- directory ----

    pub(crate) fn load_dir(&mut self) -> Result<Vec<(String, u32)>> {
        let raw = self.read_inode_data(ROOT_INODE)?;
        let mut entries: Vec<(String, u32)> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for chunk in raw.chunks_exact(DIRENT_SIZE) {
            let mut buf = chunk;
            let mut name = [0u8; NAME_MAX];
            buf.copy_to_slice(&mut name);
            let inode = buf.get_u32_le();
            let flags = buf.get_u32_le();
            if flags & 1 == 0 {
                continue;
            }
            let end = name.iter().position(|&b| b == 0).unwrap_or(NAME_MAX);
            // Sanitize at the boundary: corrupt name bytes lossy-decode to
            // replacement chars that can exceed the on-disk slot and can
            // collide once clamped. Clamp here and uniquify collisions with
            // the (unique) inode number so every in-memory name is valid,
            // persistable and distinct — ordinary names pass unchanged.
            let lossy = String::from_utf8_lossy(&name[..end]);
            let mut clean = String::from_utf8_lossy(clamp_name(&lossy)).into_owned();
            if !seen.insert(clean.clone()) {
                let suffix = format!("~{inode}");
                let keep = NAME_MAX - suffix.len();
                let mut base_end = clean.len().min(keep);
                while base_end > 0 && !clean.is_char_boundary(base_end) {
                    base_end -= 1;
                }
                clean.truncate(base_end);
                clean.push_str(&suffix);
                seen.insert(clean.clone());
            }
            entries.push((clean, inode));
        }
        Ok(entries)
    }

    /// Rewrites the whole directory. The resident copy is dropped; a caller
    /// that knows `entries` is what it holds puts it back on success.
    pub(crate) fn save_dir(&mut self, entries: &[(String, u32)]) -> Result<()> {
        self.dir = None;
        let mut buf = BytesMut::with_capacity(entries.len() * DIRENT_SIZE);
        for (name, inode) in entries {
            // Names longer than the slot can only come from corrupt
            // directory blocks (lossy UTF-8 decoding expands garbage bytes
            // to 3-byte replacement chars); clamp on a char boundary so
            // fsck can persist its repairs instead of underflowing the pad.
            let bytes = clamp_name(name);
            buf.put_slice(bytes);
            buf.put_bytes(0, NAME_MAX - bytes.len());
            buf.put_u32_le(*inode);
            buf.put_u32_le(1);
        }
        self.write_inode_data(ROOT_INODE, buf.freeze())
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || name.len() > NAME_MAX || name.bytes().any(|b| b == 0) {
            return Err(FsError::InvalidName(name.to_string()));
        }
        Ok(())
    }

    /// The resident directory, loaded from the device on first use.
    fn dir(&mut self) -> Result<&Dir> {
        if self.dir.is_none() {
            let entries = self.load_dir()?;
            self.dir = Some(Dir::new(entries));
        }
        Ok(self.dir.as_ref().expect("filled above"))
    }

    /// Applies `edit` to the resident directory and writes the whole
    /// directory through. The copy is out of its slot while the device is
    /// written and goes back only on success.
    fn update_dir(&mut self, edit: impl FnOnce(&mut Dir)) -> Result<()> {
        self.dir()?;
        let mut dir = self.dir.take().expect("filled above");
        edit(&mut dir);
        self.save_dir(&dir.entries)?;
        self.dir = Some(dir);
        Ok(())
    }

    fn lookup(&mut self, name: &str) -> Result<Option<u32>> {
        Ok(self.dir()?.by_name.get(name).copied())
    }

    /// Gives `name` — valid and not taken — a fresh inode and a directory
    /// entry, returning the inode index.
    fn create_entry(&mut self, name: &str) -> Result<u32> {
        let idx = self
            .inodes
            .iter()
            .position(|i| !i.is_live())
            .ok_or(FsError::NoFreeInodes)? as u32;
        self.inodes[idx as usize] = Inode::empty_file();
        self.flush_inode(idx)?;
        self.update_dir(|dir| dir.push(name, idx))?;
        Ok(idx)
    }

    // ---- public file API ----

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// Fails if the name is invalid or taken, or no inode is free.
    pub fn create(&mut self, name: &str) -> Result<()> {
        Self::validate_name(name)?;
        if self.lookup(name)?.is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        self.create_entry(name).map(drop)
    }

    /// Writes `data` as the full content of `name`, creating the file if
    /// needed. Existing blocks are overwritten in place.
    ///
    /// Copies `data` into one owned buffer up front, then delegates to the
    /// zero-copy [`write_file_bytes`](Self::write_file_bytes) — callers that
    /// already hold a [`Bytes`] should use that directly and skip the copy.
    ///
    /// # Errors
    ///
    /// Fails on invalid names, exhausted inodes/space, or device errors.
    pub fn write_file(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.write_file_bytes(name, Bytes::copy_from_slice(data))
    }

    /// Zero-copy variant of [`write_file`](Self::write_file): the payload is
    /// a refcounted [`Bytes`] and every block written is a
    /// [`slice`](Bytes::slice) of it, so no byte of file content is copied
    /// between here and the NAND page it lands on.
    ///
    /// # Errors
    ///
    /// Fails on invalid names, exhausted inodes/space, or device errors.
    pub fn write_file_bytes(&mut self, name: &str, data: Bytes) -> Result<()> {
        Self::validate_name(name)?;
        let idx = match self.lookup(name)? {
            Some(idx) => idx,
            None => self.create_entry(name)?,
        };
        self.write_inode_data(idx, data)
    }

    /// Reads the full content of `name`.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::NotFound`] if the file does not exist.
    pub fn read_file(&mut self, name: &str) -> Result<Vec<u8>> {
        let idx = self
            .lookup(name)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        self.read_inode_data(idx)
    }

    /// Deletes `name`, releasing its inode and blocks.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::NotFound`] if the file does not exist.
    pub fn delete(&mut self, name: &str) -> Result<()> {
        let idx = self
            .lookup(name)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        self.update_dir(|dir| dir.remove(name))?;
        self.release_inode_blocks(idx)?;
        self.inodes[idx as usize] = Inode::default();
        self.flush_inode(idx)
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::NotFound`] if `from` does not exist,
    /// [`FsError::AlreadyExists`] if `to` is taken, or
    /// [`FsError::InvalidName`] if `to` is not a valid name.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        Self::validate_name(to)?;
        if from == to {
            // POSIX: renaming a file to itself succeeds as a no-op.
            return match self.lookup(from)? {
                Some(_) => Ok(()),
                None => Err(FsError::NotFound(from.to_string())),
            };
        }
        if self.lookup(to)?.is_some() {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        if self.lookup(from)?.is_none() {
            return Err(FsError::NotFound(from.to_string()));
        }
        self.update_dir(|dir| dir.rename(from, to))
    }

    /// Names of all files, in directory order.
    ///
    /// # Errors
    ///
    /// Fails only on device errors.
    pub fn list(&mut self) -> Result<Vec<String>> {
        Ok(self.dir()?.entries.iter().map(|(n, _)| n.clone()).collect())
    }

    /// Whether `name` exists.
    ///
    /// # Errors
    ///
    /// Fails only on device errors.
    pub fn exists(&mut self, name: &str) -> Result<bool> {
        Ok(self.lookup(name)?.is_some())
    }

    /// The inode backing `name`.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::NotFound`] if the file does not exist.
    pub fn stat(&mut self, name: &str) -> Result<Inode> {
        let idx = self
            .lookup(name)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        Ok(self.inodes[idx as usize])
    }

    /// Free data blocks according to the (redundant) superblock counter.
    pub fn free_blocks(&self) -> u64 {
        self.sb.free_blocks
    }
}

/// Truncates a name to at most [`NAME_MAX`] bytes on a char boundary.
pub(crate) fn clamp_name(name: &str) -> &[u8] {
    let mut end = name.len().min(NAME_MAX);
    while end > 0 && !name.is_char_boundary(end) {
        end -= 1;
    }
    &name.as_bytes()[..end]
}

/// Reads the full inode table from a device.
fn read_inode_table<D: BlockDev>(dev: &mut D, sb: &Superblock) -> Result<Vec<Inode>> {
    let per_block = dev.block_size() as usize / INODE_SIZE;
    let mut inodes = Vec::with_capacity(sb.inode_count as usize);
    'outer: for tb in 0..sb.inode_table_blocks as u64 {
        let raw = dev.read_block(sb.inode_table_start + tb)?;
        for i in 0..per_block {
            if inodes.len() >= sb.inode_count as usize {
                break 'outer;
            }
            match &raw {
                Some(data) if data.len() >= (i + 1) * INODE_SIZE => {
                    let mut slice = &data[i * INODE_SIZE..(i + 1) * INODE_SIZE];
                    inodes.push(Inode::decode_from(&mut slice));
                }
                // A missing or short table block reads as free inodes —
                // fsck will reconcile.
                _ => inodes.push(Inode::default()),
            }
        }
    }
    inodes.resize(sb.inode_count as usize, Inode::default());
    Ok(inodes)
}

/// Splits a block list into maximal runs of consecutive indices, returned
/// as `(position, length)` pairs into the input slice. File data then moves
/// as one extent per run instead of one request per block; indirect-pointer
/// files whose blocks are scattered simply yield more, shorter runs.
pub(crate) fn contiguous_runs(blocks: &[u64]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=blocks.len() {
        if i == blocks.len() || blocks[i] != blocks[i - 1] + 1 {
            runs.push((start, i - start));
            start = i;
        }
    }
    runs
}

/// Reads the free-space bitmap from a device.
fn read_bitmap<D: BlockDev>(dev: &mut D, sb: &Superblock) -> Result<Bitmap> {
    let mut raw = Vec::new();
    for b in 0..sb.bitmap_blocks as u64 {
        match dev.read_block(sb.bitmap_start + b)? {
            Some(data) => raw.extend_from_slice(&data),
            None => raw.extend(std::iter::repeat_n(0u8, dev.block_size() as usize)),
        }
    }
    Ok(Bitmap::from_bytes(&raw, sb.data_blocks()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::MemDev;

    fn fresh() -> MiniExt<MemDev> {
        MiniExt::format(MemDev::new(1024, 4096), &FsConfig::default()).unwrap()
    }

    #[test]
    fn contiguous_runs_split_on_gaps() {
        assert_eq!(contiguous_runs(&[]), vec![]);
        assert_eq!(contiguous_runs(&[5]), vec![(0, 1)]);
        assert_eq!(contiguous_runs(&[5, 6, 7]), vec![(0, 3)]);
        assert_eq!(
            contiguous_runs(&[5, 6, 9, 10, 11, 3]),
            vec![(0, 2), (2, 3), (5, 1)]
        );
        assert_eq!(contiguous_runs(&[2, 2, 3]), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn format_and_mount_round_trip() {
        let fs = fresh();
        let sb = *fs.superblock();
        let dev = fs.into_dev();
        let fs2 = MiniExt::mount(dev).unwrap();
        assert_eq!(*fs2.superblock(), sb);
    }

    #[test]
    fn mount_of_blank_device_fails() {
        assert!(matches!(
            MiniExt::mount(MemDev::new(16, 4096)),
            Err(FsError::NotAMiniExt)
        ));
    }

    #[test]
    fn tiny_device_is_rejected() {
        assert!(matches!(
            MiniExt::format(MemDev::new(4, 4096), &FsConfig::default()),
            Err(FsError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn write_read_small_file() {
        let mut fs = fresh();
        fs.write_file("a.txt", b"hello world").unwrap();
        assert_eq!(fs.read_file("a.txt").unwrap(), b"hello world");
        assert_eq!(fs.list().unwrap(), vec!["a.txt"]);
        assert!(fs.exists("a.txt").unwrap());
    }

    #[test]
    fn write_read_multi_block_file() {
        let mut fs = fresh();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        fs.write_file("big.bin", &data).unwrap();
        assert_eq!(fs.read_file("big.bin").unwrap(), data);
        let st = fs.stat("big.bin").unwrap();
        assert_eq!(st.size, 20_000);
        assert_eq!(st.block_count, 5);
    }

    #[test]
    fn write_read_indirect_file() {
        let mut fs = fresh();
        // > 10 blocks forces the indirect path: 60 KiB = 15 blocks.
        let data: Vec<u8> = (0..60_000).map(|i| (i % 13) as u8).collect();
        fs.write_file("huge.bin", &data).unwrap();
        assert_eq!(fs.read_file("huge.bin").unwrap(), data);
        let st = fs.stat("huge.bin").unwrap();
        assert_eq!(st.block_count, 15);
        assert_ne!(st.indirect, 0);
    }

    #[test]
    fn overwrite_reuses_blocks_in_place() {
        let mut fs = fresh();
        fs.write_file("doc", &[1u8; 9000]).unwrap();
        let before = fs.stat("doc").unwrap().direct;
        fs.write_file("doc", &[2u8; 9000]).unwrap();
        let after = fs.stat("doc").unwrap().direct;
        assert_eq!(before, after, "same-size overwrite must reuse blocks");
        assert_eq!(fs.read_file("doc").unwrap(), vec![2u8; 9000]);
    }

    #[test]
    fn shrink_releases_blocks() {
        let mut fs = fresh();
        fs.write_file("f", &[0u8; 40_000]).unwrap();
        let free_small = {
            fs.write_file("f", &[0u8; 100]).unwrap();
            fs.free_blocks()
        };
        assert_eq!(fs.stat("f").unwrap().block_count, 1);
        fs.write_file("f", &[0u8; 40_000]).unwrap();
        assert!(fs.free_blocks() < free_small);
    }

    #[test]
    fn grow_through_indirect_boundary_and_back() {
        let mut fs = fresh();
        fs.write_file("f", &[7u8; 4096 * 5]).unwrap();
        assert_eq!(fs.stat("f").unwrap().indirect, 0);
        fs.write_file("f", &[8u8; 4096 * 14]).unwrap();
        assert_ne!(fs.stat("f").unwrap().indirect, 0);
        assert_eq!(fs.read_file("f").unwrap(), vec![8u8; 4096 * 14]);
        fs.write_file("f", &[9u8; 4096 * 2]).unwrap();
        assert_eq!(fs.stat("f").unwrap().indirect, 0);
        assert_eq!(fs.read_file("f").unwrap(), vec![9u8; 4096 * 2]);
    }

    #[test]
    fn delete_frees_space_and_name() {
        let mut fs = fresh();
        let before = fs.free_blocks();
        fs.write_file("tmp", &[0u8; 20_000]).unwrap();
        assert!(fs.free_blocks() < before);
        fs.delete("tmp").unwrap();
        assert_eq!(fs.free_blocks(), before);
        assert!(!fs.exists("tmp").unwrap());
        assert!(matches!(fs.read_file("tmp"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn create_duplicate_fails() {
        let mut fs = fresh();
        fs.create("x").unwrap();
        assert!(matches!(fs.create("x"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut fs = fresh();
        assert!(matches!(fs.create(""), Err(FsError::InvalidName(_))));
        let long = "x".repeat(NAME_MAX + 1);
        assert!(matches!(fs.create(&long), Err(FsError::InvalidName(_))));
        assert!(matches!(fs.create("a\0b"), Err(FsError::InvalidName(_))));
    }

    #[test]
    fn file_too_large_rejected() {
        let mut fs = fresh();
        let max_blocks = DIRECT_PTRS + 4096 / 4;
        let data = vec![0u8; (max_blocks + 1) * 4096];
        assert!(matches!(
            fs.write_file("f", &data),
            Err(FsError::FileTooLarge { .. })
        ));
    }

    #[test]
    fn many_files_coexist() {
        let mut fs = fresh();
        for i in 0..50 {
            fs.write_file(&format!("file{i}"), format!("content {i}").as_bytes())
                .unwrap();
        }
        for i in 0..50 {
            assert_eq!(
                fs.read_file(&format!("file{i}")).unwrap(),
                format!("content {i}").as_bytes()
            );
        }
        assert_eq!(fs.list().unwrap().len(), 50);
    }

    #[test]
    fn rename_moves_name_not_data() {
        let mut fs = fresh();
        fs.write_file("old.txt", b"contents").unwrap();
        let blocks_before = fs.stat("old.txt").unwrap().direct;
        fs.rename("old.txt", "new.txt").unwrap();
        assert!(!fs.exists("old.txt").unwrap());
        assert_eq!(fs.read_file("new.txt").unwrap(), b"contents");
        assert_eq!(fs.stat("new.txt").unwrap().direct, blocks_before);
    }

    #[test]
    fn rename_errors() {
        let mut fs = fresh();
        fs.write_file("a", b"1").unwrap();
        fs.write_file("b", b"2").unwrap();
        assert!(matches!(
            fs.rename("missing", "c"),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(
            fs.rename("a", "b"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(fs.rename("a", ""), Err(FsError::InvalidName(_))));
        // Self-rename is a POSIX no-op.
        fs.rename("a", "a").unwrap();
        assert!(matches!(
            fs.rename("ghost", "ghost"),
            Err(FsError::NotFound(_))
        ));
        // Original still intact after failed renames.
        assert_eq!(fs.read_file("a").unwrap(), b"1");
    }

    #[test]
    fn state_survives_remount() {
        let mut fs = fresh();
        fs.write_file("persist", b"across mounts").unwrap();
        let dev = fs.into_dev();
        let mut fs2 = MiniExt::mount(dev).unwrap();
        assert_eq!(fs2.read_file("persist").unwrap(), b"across mounts");
    }

    #[test]
    fn inode_exhaustion_reported() {
        let mut fs =
            MiniExt::format(MemDev::new(1024, 4096), &FsConfig { inode_count: 4 }).unwrap();
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        fs.create("c").unwrap(); // root takes inode 0
        assert!(matches!(fs.create("d"), Err(FsError::NoFreeInodes)));
    }

    #[test]
    fn space_exhaustion_reported() {
        let mut fs = MiniExt::format(MemDev::new(16, 4096), &FsConfig { inode_count: 64 }).unwrap();
        let mut wrote = 0;
        let err = loop {
            match fs.write_file(&format!("f{wrote}"), &[0u8; 4096]) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert!(wrote > 0);
        assert_eq!(err, FsError::NoSpace);
    }
}

#[cfg(test)]
mod corrupt_name_tests {
    use super::*;
    use crate::blockdev::MemDev;
    use bytes::Bytes;

    /// Two directory entries whose corrupt names lossy-decode (and clamp)
    /// identically must surface as distinct, individually addressable
    /// files — and stay distinct across the next directory mutation.
    #[test]
    fn colliding_corrupt_names_are_uniquified() {
        let mut fs =
            MiniExt::format(MemDev::new(256, 4096), &FsConfig { inode_count: 16 }).unwrap();
        fs.write_file("a", b"alpha").unwrap();
        fs.write_file("b", b"beta").unwrap();

        // Smash both name fields with invalid UTF-8 that clamps identically
        // — on the unmounted device: a live mount serves its resident copy.
        let dir_block = fs.inodes[0].direct[0] as u64;
        let mut dev = fs.into_dev();
        let mut raw = dev.read_block(dir_block).unwrap().unwrap().to_vec();
        raw[0..NAME_MAX].fill(0xFF);
        raw[DIRENT_SIZE..DIRENT_SIZE + NAME_MAX].fill(0xFF);
        raw[DIRENT_SIZE + NAME_MAX - 1] = b'x';
        dev.write_block(dir_block, Bytes::from(raw)).unwrap();
        let mut fs = MiniExt::mount(dev).unwrap();

        let names = fs.list().unwrap();
        assert_eq!(names.len(), 2);
        assert!(!names.contains(&"a".to_string()), "{names:?}");
        assert_ne!(
            names[0], names[1],
            "collision must be uniquified: {names:?}"
        );
        for name in &names {
            assert!(name.len() <= NAME_MAX);
        }

        // A mutation persists the uniquified names; both files remain
        // individually deletable.
        fs.write_file("c", b"gamma").unwrap();
        let names = fs.list().unwrap();
        assert_eq!(names.len(), 3);
        fs.delete(&names[0]).unwrap();
        let after = fs.list().unwrap();
        assert_eq!(after.len(), 2);
        assert!(!after.contains(&names[0]));
        assert!(after.contains(&names[1]), "the sibling must survive");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::blockdev::MemDev;

    /// Fails the `fail_at`-th `write_block` (1-based) and remembers which
    /// block it was aimed at; every other call passes through.
    struct FailNthWrite {
        inner: MemDev,
        writes: u64,
        fail_at: u64,
        failed_block: Option<u64>,
    }

    impl BlockDev for FailNthWrite {
        fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
            self.inner.read_block(index)
        }

        fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
            self.writes += 1;
            if self.writes == self.fail_at {
                self.failed_block = Some(index);
                return Err(FsError::Device("injected write fault".into()));
            }
            self.inner.write_block(index, data)
        }

        fn trim_block(&mut self, index: u64) -> Result<()> {
            self.inner.trim_block(index)
        }

        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }

        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
    }

    /// A device error anywhere inside `create`, `delete` or `rename` must
    /// drop the resident directory, not leave it half-edited: afterwards the
    /// mount lists what the device holds.
    ///
    /// 256-byte blocks make the 40-entry directory five full blocks, so the
    /// create also allocates (bitmap and superblock writes in the middle of
    /// the directory rewrite), and put four inodes in a table block, so a
    /// write to the root's table block (the files touched have inodes >= 4)
    /// can only be the root-inode flush. A failure of that one flush leaves
    /// the in-memory inode table ahead of the device — all metadata flushes
    /// behave so, it is not the directory's doing — so there, and only
    /// there, a fresh mount may list something else.
    #[test]
    fn failed_directory_update_drops_the_resident_copy() {
        let mut fs =
            MiniExt::format(MemDev::new(1024, 256), &FsConfig { inode_count: 64 }).unwrap();
        for i in 0..40 {
            fs.write_file(&format!("f{i:02}"), &[i as u8; 300]).unwrap();
        }
        let root_table_block = fs.sb.inode_table_start;
        let image = fs.into_dev();

        type Op = fn(&mut MiniExt<FailNthWrite>) -> Result<()>;
        let ops: [(&str, Op); 3] = [
            ("create", |fs| fs.create("new")),
            ("delete", |fs| fs.delete("f17")),
            ("rename", |fs| fs.rename("f23", "renamed")),
        ];
        for (what, op) in ops {
            let mut completed = false;
            for fail_at in 1..200 {
                let dev = FailNthWrite {
                    inner: image.clone(),
                    writes: 0,
                    fail_at,
                    failed_block: None,
                };
                let mut fs = MiniExt::mount(dev).unwrap();
                assert_eq!(fs.list().unwrap().len(), 40);

                let result = op(&mut fs);
                let Some(failed_block) = fs.dev.failed_block else {
                    result.unwrap();
                    completed = true;
                    break;
                };
                assert!(
                    matches!(result, Err(FsError::Device(_))),
                    "{what}, write {fail_at}: {result:?}"
                );

                let listed = fs.list().unwrap();
                let on_device: Vec<String> =
                    fs.load_dir().unwrap().into_iter().map(|(n, _)| n).collect();
                assert_eq!(listed, on_device, "{what}, write {fail_at}");
                if failed_block != root_table_block {
                    let fresh = MiniExt::mount(fs.dev.inner.clone())
                        .unwrap()
                        .list()
                        .unwrap();
                    assert_eq!(listed, fresh, "{what}, write {fail_at}");
                }
            }
            assert!(completed, "{what} never ran out of writes to fail");
        }
    }
}
