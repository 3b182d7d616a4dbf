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
//! operation O(blocks). This implementation instead keeps the entries in
//! one [`BTreeMap`]`<Lba, Entry>` keyed by **run start** and answers
//! coverage with a predecessor lookup (`range(..=lba).next_back()`), so the
//! whole-request primitives
//! [`record_read_range`](CountingTable::record_read_range) and
//! [`record_write_range`](CountingTable::record_write_range) cost
//! O(log runs + runs touched) per *request*, independent of request length,
//! and memory is O(runs) instead of O(covered blocks). A refresh or an
//! overwrite edits its run in place, so neither allocates. Eviction is one
//! `retain` pass per slice close: O(runs), and a run is visited at most
//! `window` times before it is evicted. The per-LBA layout it replaced
//! lives on only as the private reference of the `differential_table` test
//! in `insider-bench`, which replays identical request streams through both
//! and compares them operation by operation.

use insider_nand::Lba;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

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
    /// Run start → entry. Runs are disjoint and never adjacent (reads
    /// eagerly merge), so a predecessor lookup fully answers coverage.
    runs: BTreeMap<Lba, Entry>,
    /// Total blocks covered (sum of `rl`), maintained incrementally.
    covered: u64,
    /// Total overwrites (sum of `wl`), maintained incrementally.
    wl_total: u64,
}

impl CountingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (runs) currently tracked.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of LBAs covered by tracked runs.
    pub fn indexed_blocks(&self) -> usize {
        self.covered as usize
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

        // The run that survives: the predecessor if it reaches `lba` (and
        // if it already covers the whole extent, a refresh is all there is
        // to do — runs are never adjacent, so nothing else could merge),
        // else a run starting at `lba`.
        let start = match self.runs.range_mut(..=lba).next_back() {
            Some((_, e)) if e.end().index() >= end && e.end() > lba => {
                e.slice = slice;
                return;
            }
            Some((&s, e)) if e.end() >= lba => s,
            _ => lba,
        };

        // Absorb every other run starting inside the extent or exactly at
        // its end, conserving their overwrite counts.
        let (mut stop, mut wl) = (end, 0u64);
        let absorbed = (Excluded(start), Included(Lba::new(end)));
        while let Some((&s, e)) = self.runs.range(absorbed).next() {
            stop = stop.max(e.end().index());
            wl += e.wl as u64;
            self.covered -= e.rl as u64;
            self.wl_total -= e.wl as u64;
            self.runs.remove(&s);
        }

        let e = self.runs.entry(start).or_insert(Entry {
            slice,
            start,
            rl: 0,
            wl: 0,
        });
        let (rl_before, wl_before) = (e.rl, e.wl);
        e.slice = slice;
        e.rl = u32::try_from(stop.max(e.end().index()) - start.index()).unwrap_or(u32::MAX);
        e.wl = u32::try_from(wl + wl_before as u64).unwrap_or(u32::MAX);
        self.covered += (e.rl - rl_before) as u64;
        self.wl_total += (e.wl - wl_before) as u64;
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

        // The hit runs: the predecessor if it reaches past `lba`, plus every
        // run starting inside the extent.
        let from = match self.runs.range(..=lba).next_back() {
            Some((&s, e)) if e.end() > lba => s,
            _ => lba,
        };
        let mut total: u32 = 0;
        for (_, e) in self.runs.range_mut(from..Lba::new(end)) {
            let ov_start = e.start.max(lba);
            let n = (e.end().index().min(end) - ov_start.index()) as u32;
            let before = e.wl;
            e.wl = e.wl.saturating_add(n);
            self.wl_total += (e.wl - before) as u64;
            e.slice = slice;
            on_overwrite(ov_start, n);
            total += n;
        }
        total
    }

    /// Drops entries last touched before `cutoff_slice` (window slide) in
    /// one pass over the table. Returns how many entries were evicted.
    pub fn evict_older_than(&mut self, cutoff_slice: u64) -> usize {
        let before = self.runs.len();
        self.runs.retain(|_, e| {
            let keep = e.slice >= cutoff_slice;
            if !keep {
                self.covered -= e.rl as u64;
                self.wl_total -= e.wl as u64;
            }
            keep
        });
        before - self.runs.len()
    }

    /// Mean `WL` over all entries (`AVGWIO`'s numerator); 0.0 when empty.
    pub fn avg_wl(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.wl_total as f64 / self.runs.len() as f64
        }
    }

    /// Iterates over all entries in ascending run-start order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.runs.values()
    }

    /// The entry covering `lba`, if any (one predecessor lookup).
    pub fn entry_covering(&self, lba: Lba) -> Option<&Entry> {
        let (_, e) = self.runs.range(..=lba).next_back()?;
        e.covers(lba).then_some(e)
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
        // One run of 10 blocks: one entry, which the Table III bill
        // (`ssd_insider::dram`) charges — the per-LBA layout needed 10
        // index slots for the same coverage.
        assert_eq!(t.len(), 1);
        assert_eq!(t.indexed_blocks(), 10);
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
