//! The counting table: run-length tracking of reads and overwrites.
//!
//! Each [`Entry`] describes one contiguous LBA range that was read recently
//! (`rl` blocks starting at `start`) together with the number of overwrites
//! that followed those reads (`wl`), and the time slice it was last touched.
//!
//! The table implements the five primitives of the paper's Fig. 3(b):
//! *NewEntry* (a read to an uncovered, non-adjacent LBA), *UpdateEntryR*
//! (a read extending a run), *MergeEntry* (a read joining two runs),
//! *UpdateEntryW* (a write landing inside a read run — an overwrite), and
//! eviction of entries untouched for a full window (*sliding* the table).
//!
//! # Interval index
//!
//! The paper budgets per-LBA hash slots (Table III), which makes every
//! operation O(blocks). This implementation instead keys a
//! [`BTreeMap`]`<Lba, EntryId>` by **run start** and answers coverage with a
//! predecessor lookup (`range(..=lba).next_back()`), so the whole-request
//! primitives [`record_read_range`](CountingTable::record_read_range) and
//! [`record_write_range`](CountingTable::record_write_range) cost
//! O(log runs + runs touched) per *request*, independent of request length,
//! and memory is O(runs) instead of O(covered blocks). Eviction is
//! slice-bucketed: each entry lives in the bucket of its last-touch slice,
//! so a window slide pops whole stale buckets instead of scanning the
//! table. The per-LBA layout it replaced lives on only as the private
//! reference of the `differential_table` test in `insider-bench`, which
//! replays identical request streams through both and compares them
//! operation by operation.

use insider_nand::Lba;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One counting-table record: a contiguous read run and its overwrite count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Time slice at which the entry was created or last updated.
    pub slice: u64,
    /// First LBA of the read run.
    pub start: Lba,
    /// Read run length in blocks (`RL` in the paper). Saturates at
    /// `u32::MAX`; blocks beyond a saturated run are treated as uncovered.
    pub rl: u32,
    /// Number of overwrites that hit the run (`WL` in the paper).
    pub wl: u32,
}

impl Entry {
    /// Exclusive end LBA of the run.
    pub fn end(&self) -> Lba {
        self.start.offset(self.rl as u64)
    }

    /// Whether `lba` falls inside the read run.
    pub fn covers(&self, lba: Lba) -> bool {
        self.start <= lba && lba < self.end()
    }
}

type EntryId = u64;

/// Run-length counting table with an interval index keyed by run start.
///
/// # Example
///
/// ```rust
/// use insider_detect::CountingTable;
/// use insider_nand::Lba;
///
/// let mut table = CountingTable::new();
/// // One 256-block read is a single O(log runs) operation:
/// table.record_read_range(Lba::new(1000), 256, 0);
/// assert_eq!(table.len(), 1);
/// // A write overlapping the run counts only the covered blocks:
/// assert_eq!(table.record_write_range(Lba::new(1200), 100, 0), 56);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CountingTable {
    entries: HashMap<EntryId, Entry>,
    /// Run start → entry id. Runs are disjoint and never adjacent (reads
    /// eagerly merge), so a predecessor lookup fully answers coverage.
    index: BTreeMap<Lba, EntryId>,
    /// Last-touch slice → ids touched in that slice. Entries move buckets
    /// on every touch; eviction pops whole buckets below the cutoff.
    buckets: BTreeMap<u64, HashSet<EntryId>>,
    /// Total blocks covered (sum of `rl`), maintained incrementally.
    covered: u64,
    /// Total overwrites (sum of `wl`), maintained incrementally.
    wl_total: u64,
    next_id: EntryId,
}

impl CountingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (runs) currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of LBAs covered by tracked runs.
    pub fn indexed_blocks(&self) -> usize {
        self.covered as usize
    }

    /// Number of interval-index nodes (one per run).
    pub fn index_nodes(&self) -> usize {
        self.index.len()
    }

    /// The id of the run covering `lba`, via predecessor lookup.
    fn run_covering(&self, lba: Lba) -> Option<EntryId> {
        let (_, &id) = self.index.range(..=lba).next_back()?;
        self.entries[&id].covers(lba).then_some(id)
    }

    /// Moves `id` into `slice`'s bucket and stamps the entry.
    fn touch(&mut self, id: EntryId, slice: u64) {
        let e = self.entries.get_mut(&id).expect("touched entry exists");
        if e.slice != slice {
            let old = e.slice;
            e.slice = slice;
            if let Some(bucket) = self.buckets.get_mut(&old) {
                bucket.remove(&id);
                if bucket.is_empty() {
                    self.buckets.remove(&old);
                }
            }
            self.buckets.entry(slice).or_default().insert(id);
        }
    }

    fn insert_entry(&mut self, entry: Entry) -> EntryId {
        let id = self.next_id;
        self.next_id += 1;
        self.index.insert(entry.start, id);
        self.buckets.entry(entry.slice).or_default().insert(id);
        self.covered += entry.rl as u64;
        self.wl_total += entry.wl as u64;
        self.entries.insert(id, entry);
        id
    }

    fn remove_entry(&mut self, id: EntryId) -> Entry {
        let e = self.entries.remove(&id).expect("removed entry exists");
        self.index.remove(&e.start);
        if let Some(bucket) = self.buckets.get_mut(&e.slice) {
            bucket.remove(&id);
            if bucket.is_empty() {
                self.buckets.remove(&e.slice);
            }
        }
        self.covered -= e.rl as u64;
        self.wl_total -= e.wl as u64;
        e
    }

    /// Records a read of `lba` during `slice` (single-block convenience).
    pub fn record_read(&mut self, lba: Lba, slice: u64) {
        self.record_read_range(lba, 1, slice);
    }

    /// Records a read of `len` blocks starting at `lba` during `slice`.
    ///
    /// All runs overlapping or adjacent to the extent collapse into one
    /// (NewEntry / UpdateEntryR / MergeEntry in a single pass); their `wl`
    /// counts are conserved. O(log runs + runs absorbed).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn record_read_range(&mut self, lba: Lba, len: u32, slice: u64) {
        assert!(len >= 1, "a read covers at least one block");
        let end = lba.index().saturating_add(len as u64);

        // Fast path: the extent sits wholly inside one run — refresh only.
        // (Runs are never adjacent, so nothing else could merge.)
        if let Some(id) = self.run_covering(lba) {
            let e = self.entries[&id];
            if e.end().index() >= end {
                self.touch(id, slice);
                return;
            }
        }

        // Absorb every run overlapping or adjacent to [lba, end):
        // the predecessor (if it reaches lba) plus all runs starting
        // within the extent or exactly at its end.
        let mut absorbed: Vec<EntryId> = Vec::new();
        if let Some((_, &id)) = self.index.range(..lba).next_back() {
            if self.entries[&id].end() >= lba {
                absorbed.push(id);
            }
        }
        absorbed.extend(self.index.range(lba..=Lba::new(end)).map(|(_, &id)| id));

        let mut start = lba;
        let mut stop = end;
        let mut wl: u64 = 0;
        for id in absorbed {
            let e = self.remove_entry(id);
            start = start.min(e.start);
            stop = stop.max(e.end().index());
            wl += e.wl as u64;
        }
        let span = stop - start.index();
        self.insert_entry(Entry {
            slice,
            start,
            rl: u32::try_from(span).unwrap_or(u32::MAX),
            wl: u32::try_from(wl).unwrap_or(u32::MAX),
        });
    }

    /// Records a write of `lba` during `slice` (single-block convenience).
    /// Returns `true` when the write is an overwrite (UpdateEntryW).
    pub fn record_write(&mut self, lba: Lba, slice: u64) -> bool {
        self.record_write_range(lba, 1, slice) == 1
    }

    /// Records a write of `len` blocks starting at `lba` during `slice`,
    /// counting only the blocks covered by read runs as overwrites
    /// (UpdateEntryW — a write spanning a run boundary must not over-count).
    /// Returns the number of overwritten blocks. O(log runs + runs touched).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn record_write_range(&mut self, lba: Lba, len: u32, slice: u64) -> u32 {
        self.record_write_extent(lba, len, slice, &mut |_, _| {})
    }

    /// [`record_write_range`](Self::record_write_range) with a callback per
    /// contiguous overwritten sub-range (used by the feature engine to
    /// maintain its distinct-overwrite set without per-block iteration).
    pub fn record_write_extent(
        &mut self,
        lba: Lba,
        len: u32,
        slice: u64,
        on_overwrite: &mut dyn FnMut(Lba, u32),
    ) -> u32 {
        assert!(len >= 1, "a write covers at least one block");
        let end = lba.index().saturating_add(len as u64);

        let mut hit: Vec<EntryId> = Vec::new();
        if let Some((_, &id)) = self.index.range(..=lba).next_back() {
            if self.entries[&id].end() > lba {
                hit.push(id);
            }
        }
        hit.extend(
            self.index
                .range((
                    std::ops::Bound::Excluded(lba),
                    std::ops::Bound::Excluded(Lba::new(end)),
                ))
                .map(|(_, &id)| id),
        );

        let mut total: u32 = 0;
        for id in hit {
            let e = self.entries.get_mut(&id).expect("hit entry exists");
            let ov_start = e.start.max(lba);
            let ov_end = e.end().index().min(end);
            let n = (ov_end - ov_start.index()) as u32;
            let before = e.wl;
            e.wl = e.wl.saturating_add(n);
            self.wl_total += (e.wl - before) as u64;
            self.touch(id, slice);
            on_overwrite(ov_start, n);
            total += n;
        }
        total
    }

    /// Drops entries last touched before `cutoff_slice` (window slide) by
    /// popping whole stale slice buckets — O(evicted), no table scan.
    /// Returns how many entries were evicted.
    pub fn evict_older_than(&mut self, cutoff_slice: u64) -> usize {
        let mut evicted = 0;
        while let Some((&slice, _)) = self.buckets.first_key_value() {
            if slice >= cutoff_slice {
                break;
            }
            let (_, ids) = self.buckets.pop_first().expect("checked non-empty");
            for id in ids {
                let e = self.entries.remove(&id).expect("bucketed entry exists");
                self.index.remove(&e.start);
                self.covered -= e.rl as u64;
                self.wl_total -= e.wl as u64;
                evicted += 1;
            }
        }
        evicted
    }

    /// Mean `WL` over all entries (`AVGWIO`'s numerator); 0.0 when empty.
    pub fn avg_wl(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.wl_total as f64 / self.entries.len() as f64
        }
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// The entry covering `lba`, if any (one predecessor lookup).
    pub fn entry_covering(&self, lba: Lba) -> Option<&Entry> {
        self.run_covering(lba).map(|id| &self.entries[&id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> Lba {
        Lba::new(i)
    }

    #[test]
    fn new_entry_per_isolated_read() {
        let mut t = CountingTable::new();
        t.record_read(l(10), 0);
        t.record_read(l(20), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.entry_covering(l(10)).unwrap().rl, 1);
    }

    #[test]
    fn sequential_reads_extend_one_run() {
        let mut t = CountingTable::new();
        for i in 0..5 {
            t.record_read(l(100 + i), 0);
        }
        assert_eq!(t.len(), 1);
        let e = t.entry_covering(l(102)).unwrap();
        assert_eq!(e.start, l(100));
        assert_eq!(e.rl, 5);
    }

    #[test]
    fn reverse_sequential_reads_prepend() {
        let mut t = CountingTable::new();
        for i in (0..5).rev() {
            t.record_read(l(100 + i), 0);
        }
        assert_eq!(t.len(), 1);
        let e = t.entry_covering(l(100)).unwrap();
        assert_eq!(e.start, l(100));
        assert_eq!(e.rl, 5);
    }

    #[test]
    fn bridging_read_merges_two_runs() {
        let mut t = CountingTable::new();
        t.record_read(l(100), 0);
        t.record_read(l(102), 0);
        assert_eq!(t.len(), 2);
        t.record_read(l(101), 1); // bridges the gap
        assert_eq!(t.len(), 1);
        let e = t.entry_covering(l(100)).unwrap();
        assert_eq!(e.rl, 3);
        assert_eq!(e.slice, 1);
    }

    #[test]
    fn merge_preserves_overwrite_counts() {
        let mut t = CountingTable::new();
        t.record_read(l(100), 0);
        t.record_read(l(102), 0);
        assert!(t.record_write(l(100), 0));
        assert!(t.record_write(l(102), 0));
        t.record_read(l(101), 0);
        let e = t.entry_covering(l(101)).unwrap();
        assert_eq!(e.wl, 2);
    }

    #[test]
    fn write_inside_run_is_overwrite() {
        let mut t = CountingTable::new();
        for i in 0..3 {
            t.record_read(l(i), 0);
        }
        assert!(t.record_write(l(1), 0));
        assert_eq!(t.entry_covering(l(1)).unwrap().wl, 1);
    }

    #[test]
    fn write_outside_any_run_is_plain() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0);
        assert!(!t.record_write(l(5), 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn repeated_overwrites_accumulate_wl() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0);
        for _ in 0..7 {
            assert!(t.record_write(l(0), 0)); // DoD-style 7-pass wipe
        }
        assert_eq!(t.entry_covering(l(0)).unwrap().wl, 7);
    }

    #[test]
    fn rereading_refreshes_timestamp() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0);
        t.record_read(l(0), 5);
        assert_eq!(t.entry_covering(l(0)).unwrap().slice, 5);
    }

    #[test]
    fn eviction_drops_stale_entries_and_index() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0);
        t.record_read(l(10), 8);
        assert_eq!(t.evict_older_than(5), 1);
        assert_eq!(t.len(), 1);
        assert!(t.entry_covering(l(0)).is_none());
        assert!(t.entry_covering(l(10)).is_some());
        // The evicted range no longer counts writes as overwrites.
        assert!(!t.record_write(l(0), 9));
        assert_eq!(t.indexed_blocks(), 1);
        assert_eq!(t.index_nodes(), 1);
    }

    #[test]
    fn avg_wl_over_all_entries() {
        let mut t = CountingTable::new();
        assert_eq!(t.avg_wl(), 0.0);
        t.record_read(l(0), 0);
        t.record_read(l(10), 0);
        t.record_write(l(0), 0);
        t.record_write(l(0), 0);
        // Runs: wl=2 and wl=0 → average 1.0.
        assert!((t.avg_wl() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overwrite_touch_keeps_entry_alive() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0);
        t.record_write(l(0), 9); // touched at slice 9
        assert_eq!(t.evict_older_than(5), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn dram_accounting_scales_with_contents() {
        let mut t = CountingTable::new();
        for i in 0..10 {
            t.record_read(l(i), 0);
        }
        // One run of 10 blocks: one entry and one index node, which the
        // Table III bill (`ssd_insider::dram`) charges — the per-LBA layout
        // needed 10 index slots for the same coverage.
        assert_eq!(t.len(), 1);
        assert_eq!(t.indexed_blocks(), 10);
        assert_eq!(t.index_nodes(), 1);
    }

    #[test]
    fn merge_at_zero_boundary_is_safe() {
        let mut t = CountingTable::new();
        t.record_read(l(0), 0); // no lba -1 underflow
        t.record_read(l(1), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn range_read_is_one_run() {
        let mut t = CountingTable::new();
        t.record_read_range(l(1000), 256, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.indexed_blocks(), 256);
        assert_eq!(t.index_nodes(), 1);
        let e = t.entry_covering(l(1100)).unwrap();
        assert_eq!(e.start, l(1000));
        assert_eq!(e.rl, 256);
    }

    #[test]
    fn range_read_absorbs_contained_and_adjacent_runs() {
        let mut t = CountingTable::new();
        t.record_read_range(l(90), 10, 0); // ends exactly at 100: adjacent
        t.record_read(l(105), 0); // strictly inside
        t.record_read_range(l(120), 5, 0); // starts exactly at end: adjacent
        t.record_write(l(105), 0);
        t.record_read_range(l(100), 20, 3);
        assert_eq!(t.len(), 1);
        let e = t.entry_covering(l(100)).unwrap();
        assert_eq!(e.start, l(90));
        assert_eq!(e.rl, 35);
        assert_eq!(e.wl, 1, "absorbed run's overwrite count is conserved");
        assert_eq!(e.slice, 3);
    }

    #[test]
    fn range_read_skips_non_adjacent_neighbors() {
        let mut t = CountingTable::new();
        t.record_read_range(l(0), 8, 0); // ends at 8, gap at 8
        t.record_read(l(30), 0); // gap after 20
        t.record_read_range(l(9), 11, 1); // [9, 20)
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn range_write_counts_only_covered_blocks() {
        // Regression: a write spanning a run boundary must count only the
        // covered blocks as overwrites (paper's UpdateEntryW).
        let mut t = CountingTable::new();
        t.record_read_range(l(10), 10, 0); // run [10, 20)
        assert_eq!(t.record_write_range(l(15), 10, 0), 5); // [15, 25) → 5 in-run
        assert_eq!(t.entry_covering(l(15)).unwrap().wl, 5);
        // Fully outside: plain write.
        assert_eq!(t.record_write_range(l(40), 4, 0), 0);
        // Spanning two runs and the gap between them.
        t.record_read_range(l(30), 2, 0); // [30, 32)
        assert_eq!(t.record_write_range(l(18), 14, 0), 2 + 2); // [18,20)+[30,32)
    }

    #[test]
    fn range_write_reports_contiguous_subranges() {
        let mut t = CountingTable::new();
        t.record_read_range(l(10), 4, 0); // [10, 14)
        t.record_read_range(l(20), 4, 0); // [20, 24)
        let mut seen = Vec::new();
        let n = t.record_write_extent(l(12), 10, 0, &mut |s, n| seen.push((s.index(), n)));
        assert_eq!(n, 4);
        assert_eq!(seen, vec![(12, 2), (20, 2)]);
    }

    #[test]
    fn accounting_counters_stay_consistent() {
        let mut t = CountingTable::new();
        t.record_read_range(l(0), 100, 0);
        t.record_read_range(l(200), 50, 1);
        t.record_write_range(l(220), 10, 1); // touches only the second run
        let rl_sum: u64 = t.iter().map(|e| e.rl as u64).sum();
        let wl_sum: u64 = t.iter().map(|e| e.wl as u64).sum();
        assert_eq!(t.indexed_blocks() as u64, rl_sum);
        assert!((t.avg_wl() - wl_sum as f64 / t.len() as f64).abs() < 1e-12);
        t.evict_older_than(1);
        assert_eq!(t.indexed_blocks(), 50);
        assert_eq!(t.len(), 1);
    }
}
