//! A write-back block buffer cache (ISSUE 8 tentpole, part 3).
//!
//! [`BlockCache`] wraps any [`BlockDev`] and absorbs reads and writes in an
//! LRU-bounded DRAM buffer, the classic buffer cache between a filesystem
//! and its device:
//!
//! * **Reads** hit the cache when the block is resident; misses fetch from
//!   the inner device and (for present blocks) populate the cache.
//! * **Writes** land in the cache *dirty* and are acknowledged immediately —
//!   they reach the device only when evicted under capacity pressure or on
//!   an explicit [`flush`](BlockCache::flush).
//! * **Flush** is the durability boundary: it writes every dirty block back
//!   in ascending order, batching contiguous runs through
//!   [`write_blocks`](BlockDev::write_blocks) so an extent-capable device
//!   (the SSD-Insider bridge) sees multi-block requests instead of a scalar
//!   dribble.
//! * **Trims** drop the cached copy (dirty or not — the trim supersedes it)
//!   and pass through, keeping the device authoritative for absence.
//!
//! Crash semantics follow from write-back: data not yet flushed or evicted
//! is lost with power, so the acknowledged-durable set at any instant is
//! exactly "everything as of the last flush, plus whatever eviction wrote
//! back since". The crash-consistency test in the bench crate drives this
//! contract through the power-loss sweep harness with flush as the ack
//! boundary.

use crate::{BlockDev, FsError, Result};
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};

/// Counters describing cache effectiveness. Monotone over the cache's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache without touching the device.
    pub hits: u64,
    /// Reads that had to consult the inner device.
    pub misses: u64,
    /// Dirty blocks written back to the device (evictions and flushes).
    pub writebacks: u64,
    /// Cache entries discarded to make room (clean or dirty).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of reads served from the cache; 1.0 when no reads occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// "No slot": the end of the recency list in either direction.
const NIL: u32 = u32::MAX;

/// One resident block, threaded into the recency list by slot number.
#[derive(Debug)]
struct Slot {
    block: u64,
    data: Bytes,
    /// Mirrors membership of `block` in [`BlockCache::dirty`], so eviction
    /// and re-dirtying need no set lookup.
    dirty: bool,
    /// Neighbour towards `oldest`.
    prev: u32,
    /// Neighbour towards `newest`.
    next: u32,
}

/// A write-back LRU block cache over any [`BlockDev`].
///
/// The wrapper is itself a [`BlockDev`], so `MiniExt` mounts on it
/// unchanged. Capacity is counted in blocks. Resident blocks live in a slab
/// of slots linked into one recency list, found through one `block → slot`
/// index; dirty blocks are additionally members of an ordered set. The work
/// per block is constant whatever the capacity:
///
/// * a **read hit** is one index probe, a splice of the slot to the `newest`
///   end (skipped when it is already there) and a reference-counted clone;
/// * a **write** to a resident block replaces the slot's payload in place; a
///   write to a new block takes a slot from the free list or the slab's end;
/// * an **eviction** unlinks `oldest`.
///
/// [`flush`](Self::flush) visits only the dirty set, which is already in the
/// ascending order the write-back runs are built in, so its cost follows the
/// number of dirty blocks and not the number resident.
#[derive(Debug)]
pub struct BlockCache<D: BlockDev> {
    inner: D,
    capacity: usize,
    slots: Vec<Slot>,
    /// Slots released by [`trim_block`](BlockDev::trim_block), reused before
    /// the slab grows.
    free: Vec<u32>,
    index: HashMap<u64, u32>,
    oldest: u32,
    newest: u32,
    dirty: BTreeSet<u64>,
    stats: CacheStats,
}

impl<D: BlockDev> BlockCache<D> {
    /// Wraps `inner` with a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing cannot
    /// honor write-back acknowledgement.
    pub fn new(inner: D, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least one block");
        BlockCache {
            inner,
            // Slot numbers are `u32` with `NIL` reserved; four billion
            // resident blocks is beyond any DRAM this could run in.
            capacity: capacity.min(NIL as usize),
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            oldest: NIL,
            newest: NIL,
            dirty: BTreeSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of blocks currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of resident blocks with unwritten modifications.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, mutably. Bypassing the cache for *writes*
    /// invalidates its contents; intended for inspection and maintenance
    /// calls (e.g. the bridge's power-cycle hooks) after a [`flush`].
    ///
    /// [`flush`]: BlockCache::flush
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Flushes all dirty blocks and returns the wrapped device.
    ///
    /// # Errors
    ///
    /// Fails if the final flush fails; the cache is consumed either way.
    pub fn into_inner(mut self) -> Result<D> {
        self.flush()?;
        Ok(self.inner)
    }

    /// Returns the wrapped device *without* flushing — every dirty block
    /// still resident is lost, exactly as a power cut vaporises DRAM. This
    /// is the crash-model counterpart of [`into_inner`](Self::into_inner);
    /// tests use it to assert that only data flushed (or evicted) before
    /// the cut survives on the device.
    pub fn into_inner_discarding(self) -> D {
        self.inner
    }

    /// Writes every dirty block back to the device, lowest index first,
    /// batching contiguous runs into single [`write_blocks`] requests. The
    /// cache stays populated (entries become clean) — flushing is a
    /// durability point, not an invalidation.
    ///
    /// [`write_blocks`]: BlockDev::write_blocks
    ///
    /// # Errors
    ///
    /// Fails when the device rejects a write-back; already-flushed runs
    /// stay clean, the failing run's blocks stay dirty.
    pub fn flush(&mut self) -> Result<()> {
        let dirty: Vec<(u64, u32)> = self.dirty.iter().map(|&b| (b, self.index[&b])).collect();
        let mut i = 0;
        while i < dirty.len() {
            // Extend the run while indices stay contiguous.
            let mut j = i + 1;
            while j < dirty.len() && dirty[j].0 == dirty[j - 1].0 + 1 {
                j += 1;
            }
            let run: Vec<Bytes> = dirty[i..j]
                .iter()
                .map(|&(_, slot)| self.slots[slot as usize].data.clone())
                .collect();
            if let Err(e) = self.inner.write_blocks(dirty[i].0, &run) {
                self.dirty = self.dirty.split_off(&dirty[i].0);
                return Err(e);
            }
            for &(_, slot) in &dirty[i..j] {
                self.slots[slot as usize].dirty = false;
                self.stats.writebacks += 1;
            }
            i = j;
        }
        self.dirty.clear();
        Ok(())
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.oldest = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.newest = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends an unlinked `slot` at the most-recently-used end.
    fn link_newest(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = self.newest;
        s.next = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n as usize].next = slot,
        }
        self.newest = slot;
    }

    /// Makes a resident `slot` the most recently used.
    fn promote(&mut self, slot: u32) {
        if slot != self.newest {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Makes a non-resident `block` resident as the most recently used,
    /// evicting the least recently used block first when at capacity. A
    /// dirty victim is written back *before* it is let go: if the device
    /// refuses, the victim stays resident and dirty (the cache may hold the
    /// only copy of an acknowledged write), `block` is not admitted and
    /// nothing is counted.
    fn admit(&mut self, block: u64, data: Bytes, dirty: bool) -> Result<()> {
        let entry = Slot {
            block,
            data,
            dirty,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.index.len() == self.capacity {
            let slot = self.oldest;
            let victim = &self.slots[slot as usize];
            let victim_block = victim.block;
            if victim.dirty {
                self.inner.write_block(victim_block, victim.data.clone())?;
                self.stats.writebacks += 1;
                self.dirty.remove(&victim_block);
            }
            self.stats.evictions += 1;
            self.index.remove(&victim_block);
            self.unlink(slot);
            self.slots[slot as usize] = entry;
            slot
        } else if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = entry;
            slot
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        };
        self.link_newest(slot);
        self.index.insert(block, slot);
        if dirty {
            self.dirty.insert(block);
        }
        Ok(())
    }
}

impl<D: BlockDev> BlockDev for BlockCache<D> {
    fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
        if let Some(&slot) = self.index.get(&index) {
            self.stats.hits += 1;
            self.promote(slot);
            return Ok(Some(self.slots[slot as usize].data.clone()));
        }
        self.stats.misses += 1;
        let fetched = self.inner.read_block(index)?;
        // Absent blocks are not cached: a `None` carries no payload worth a
        // slot, and trim-volatile devices may legitimately flip absence.
        if let Some(data) = &fetched {
            self.admit(index, data.clone(), false)?;
        }
        Ok(fetched)
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
        // Write-back defers the device write, so its validation must run
        // now — a flush-time error could not name the guilty caller.
        if index >= self.inner.block_count() {
            return Err(FsError::BlockOutOfRange(index));
        }
        if data.len() > self.inner.block_size() as usize {
            return Err(FsError::PayloadTooLarge {
                len: data.len(),
                block_size: self.inner.block_size(),
            });
        }
        let Some(&slot) = self.index.get(&index) else {
            return self.admit(index, data, true);
        };
        let entry = &mut self.slots[slot as usize];
        entry.data = data;
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.insert(index);
        }
        self.promote(slot);
        Ok(())
    }

    fn trim_block(&mut self, index: u64) -> Result<()> {
        if let Some(slot) = self.index.remove(&index) {
            self.unlink(slot);
            let entry = &mut self.slots[slot as usize];
            // The slot waits on the free list; its payload need not.
            entry.data = Bytes::new();
            if std::mem::take(&mut entry.dirty) {
                self.dirty.remove(&index);
            }
            self.free.push(slot);
        }
        self.inner.trim_block(index)
    }

    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDev;

    fn cached(capacity: usize) -> BlockCache<MemDev> {
        BlockCache::new(MemDev::new(64, 32), capacity)
    }

    #[test]
    fn read_write_round_trip_through_cache() {
        let mut c = cached(4);
        assert_eq!(c.read_block(0).unwrap(), None);
        c.write_block(0, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(c.read_block(0).unwrap().unwrap().as_ref(), b"hello");
        // The inner device has not seen the write yet (write-back).
        assert_eq!(c.inner.blocks_snapshot(0), None);
        c.flush().unwrap();
        assert_eq!(c.inner.blocks_snapshot(0).unwrap().as_ref(), b"hello");
    }

    impl MemDev {
        /// Test-only peek at raw device state without disturbing counters.
        fn blocks_snapshot(&mut self, index: u64) -> Option<Bytes> {
            self.read_block(index).unwrap()
        }
    }

    #[test]
    fn lru_eviction_writes_back_dirty_victim() {
        let mut c = cached(2);
        c.write_block(0, Bytes::from_static(b"a")).unwrap();
        c.write_block(1, Bytes::from_static(b"b")).unwrap();
        // Touch 0 so 1 becomes LRU, then insert 2: block 1 must be evicted
        // and written back.
        c.read_block(0).unwrap();
        c.write_block(2, Bytes::from_static(b"c")).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.inner.blocks_snapshot(1).unwrap().as_ref(), b"b");
        assert_eq!(c.inner.blocks_snapshot(0), None, "mru block not evicted");
        assert_eq!(c.len(), 2);
        // Evicted block re-reads through the device correctly.
        assert_eq!(c.read_block(1).unwrap().unwrap().as_ref(), b"b");
    }

    #[test]
    fn reread_workload_hits_cache() {
        let mut c = cached(8);
        for i in 0..8u64 {
            c.write_block(i, Bytes::from(format!("{i}"))).unwrap();
        }
        for _ in 0..9 {
            for i in 0..8u64 {
                assert!(c.read_block(i).unwrap().is_some());
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 0, "resident working set must not miss");
        assert_eq!(s.hits, 72);
        assert!(s.hit_rate() > 0.95);
    }

    #[test]
    fn flush_batches_contiguous_runs_and_cleans() {
        let mut c = cached(16);
        for i in [3u64, 4, 5, 9, 11, 12] {
            c.write_block(i, Bytes::from(format!("{i}"))).unwrap();
        }
        assert_eq!(c.dirty_blocks(), 6);
        c.flush().unwrap();
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.stats().writebacks, 6);
        for i in [3u64, 4, 5, 9, 11, 12] {
            assert_eq!(
                c.inner.blocks_snapshot(i).unwrap(),
                Bytes::from(format!("{i}"))
            );
        }
        // A second flush with nothing dirty is free.
        c.flush().unwrap();
        assert_eq!(c.stats().writebacks, 6);
    }

    #[test]
    fn trim_drops_cached_copy_and_passes_through() {
        let mut c = cached(4);
        c.write_block(1, Bytes::from_static(b"doomed")).unwrap();
        c.trim_block(1).unwrap();
        assert_eq!(c.read_block(1).unwrap(), None, "trimmed block resurfaced");
        c.flush().unwrap();
        assert_eq!(c.inner.blocks_snapshot(1), None);
    }

    #[test]
    fn validation_errors_surface_at_write_time() {
        let mut c = cached(4);
        assert!(matches!(
            c.write_block(64, Bytes::new()),
            Err(FsError::BlockOutOfRange(64))
        ));
        assert!(matches!(
            c.write_block(0, Bytes::from(vec![0u8; 33])),
            Err(FsError::PayloadTooLarge { .. })
        ));
        assert!(c.is_empty(), "rejected writes must not populate the cache");
    }

    /// A [`MemDev`] whose `fail_at`-th write (counting from zero) is refused.
    struct FaultyDev {
        inner: MemDev,
        writes: usize,
        fail_at: Option<usize>,
    }

    impl BlockDev for FaultyDev {
        fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
            self.inner.read_block(index)
        }

        fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
            let nth = self.writes;
            self.writes += 1;
            if self.fail_at == Some(nth) {
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

    #[test]
    fn failed_eviction_writeback_keeps_the_dirty_victim() {
        let dev = FaultyDev {
            inner: MemDev::new(64, 32),
            writes: 0,
            fail_at: Some(1),
        };
        let mut c = BlockCache::new(dev, 2);
        c.write_block(0, Bytes::from_static(b"a")).unwrap();
        c.write_block(1, Bytes::from_static(b"b")).unwrap();
        // Device write 0: block 0 is evicted and written back.
        c.write_block(2, Bytes::from_static(b"c")).unwrap();
        let before = c.stats();
        assert_eq!((before.evictions, before.writebacks), (1, 1));
        // Device write 1 is refused: block 1 cannot leave, block 3 cannot
        // enter, on the write path and on the read-miss path alike.
        assert!(matches!(
            c.write_block(3, Bytes::from_static(b"d")),
            Err(FsError::Device(_))
        ));
        c.inner.fail_at = Some(2);
        assert!(matches!(c.read_block(0), Err(FsError::Device(_))));
        assert_eq!((c.len(), c.dirty_blocks()), (2, 2));
        assert_eq!(
            (c.stats().evictions, c.stats().writebacks),
            (before.evictions, before.writebacks)
        );
        assert_eq!(c.read_block(1).unwrap().unwrap().as_ref(), b"b");
        assert_eq!(c.inner.inner.blocks_snapshot(1), None);
        assert_eq!(c.inner.inner.blocks_snapshot(3), None);
        // The fault clears; nothing acknowledged was lost.
        c.flush().unwrap();
        assert_eq!(c.inner.inner.blocks_snapshot(1).unwrap().as_ref(), b"b");
        assert_eq!(c.inner.inner.blocks_snapshot(2).unwrap().as_ref(), b"c");
    }

    #[test]
    fn failed_flush_leaves_exactly_the_unwritten_runs_dirty() {
        let dev = FaultyDev {
            inner: MemDev::new(64, 32),
            writes: 0,
            fail_at: Some(3),
        };
        let mut c = BlockCache::new(dev, 16);
        for i in [3u64, 4, 5, 9, 11, 12] {
            c.write_block(i, Bytes::from(format!("{i}"))).unwrap();
        }
        // Runs are [3, 4, 5], [9], [11, 12]; the fourth device write is 9.
        assert!(c.flush().is_err());
        assert_eq!(c.dirty_blocks(), 3);
        assert_eq!(c.stats().writebacks, 3);
        c.flush().unwrap();
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.stats().writebacks, 6);
        for i in [9u64, 11, 12] {
            assert_eq!(
                c.inner.inner.blocks_snapshot(i).unwrap(),
                Bytes::from(format!("{i}"))
            );
        }
    }

    #[test]
    fn trimmed_slots_are_reused() {
        let mut c = cached(4);
        for round in 0..10u64 {
            for i in 0..4 {
                c.write_block(round * 4 + i, Bytes::from_static(b"x"))
                    .unwrap();
            }
            for i in 0..4 {
                c.trim_block(round * 4 + i).unwrap();
            }
        }
        assert!(c.is_empty());
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.slots.len(), 4, "the slab grew past capacity");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn into_inner_flushes() {
        let mut c = cached(4);
        c.write_block(7, Bytes::from_static(b"last")).unwrap();
        let mut dev = c.into_inner().unwrap();
        assert_eq!(dev.read_block(7).unwrap().unwrap().as_ref(), b"last");
    }

    #[test]
    fn minixext_mounts_on_cache() {
        use crate::{FsConfig, MiniExt};
        let dev = BlockCache::new(MemDev::new(256, 512), 32);
        let mut fs = MiniExt::format(dev, &FsConfig::default()).unwrap();
        fs.write_file("a.txt", b"buffered").unwrap();
        fs.dev_mut().flush().unwrap();
        assert_eq!(fs.read_file("a.txt").unwrap(), b"buffered");
        let stats = fs.dev_mut().stats();
        assert!(stats.hits > 0, "metadata re-reads should hit the cache");
    }
}
