//! A coalescing set of LBA ranges, used for distinct-overwrite accounting.
//!
//! `OWST` needs the number of *distinct* overwritten blocks per slice.
//! With range-vectored ingest, tracking that with a
//! `HashSet<Lba>` would reintroduce the per-block cost the interval index
//! removed, so the feature engine keeps an [`LbaRangeSet`] instead: disjoint
//! half-open runs in a `BTreeMap`, coalesced on insert, with the covered
//! block count maintained incrementally. Inserting a run is
//! O(log runs + runs absorbed); the distinct count is O(1).

use insider_nand::Lba;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

/// A set of LBAs stored as disjoint, coalesced half-open runs.
///
/// # Example
///
/// ```rust
/// use insider_detect::LbaRangeSet;
/// use insider_nand::Lba;
///
/// let mut set = LbaRangeSet::new();
/// set.insert_run(Lba::new(10), 4); // [10, 14)
/// set.insert_run(Lba::new(12), 6); // overlaps → [10, 18)
/// assert_eq!(set.block_count(), 8);
/// assert_eq!(set.run_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LbaRangeSet {
    /// Run start index → exclusive end index. Runs are disjoint and never
    /// adjacent (inserts coalesce).
    runs: BTreeMap<u64, u64>,
    /// Total covered blocks, maintained incrementally.
    blocks: u64,
}

impl LbaRangeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks in the set.
    pub fn block_count(&self) -> u64 {
        self.blocks
    }

    /// Number of disjoint runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Removes all runs.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.blocks = 0;
    }

    /// Whether `lba` is in the set.
    pub fn contains(&self, lba: Lba) -> bool {
        let i = lba.index();
        self.runs
            .range(..=i)
            .next_back()
            .is_some_and(|(_, &end)| end > i)
    }

    /// Inserts `len` consecutive blocks starting at `lba`, coalescing with
    /// any overlapping or adjacent runs. A run the set already covers
    /// writes nothing, and a predecessor that reaches `lba` is extended in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn insert_run(&mut self, lba: Lba, len: u32) {
        assert!(len >= 1, "a run covers at least one block");
        let start = lba.index();
        let mut end = start.saturating_add(len as u64);

        // The run that survives: the predecessor if it reaches (or touches)
        // `start`, else a new run at `start`.
        let keep = match self.runs.range(..=start).next_back() {
            Some((_, &e)) if e >= end => return,
            Some((&s, &e)) if e >= start => s,
            _ => start,
        };
        // Absorb every other run starting inside or exactly at the new end.
        while let Some((&s, &e)) = self.runs.range((Excluded(keep), Included(end))).next() {
            end = end.max(e);
            self.runs.remove(&s);
            self.blocks -= e - s;
        }

        let e = self.runs.entry(keep).or_insert(keep);
        if end > *e {
            self.blocks += end - *e;
            *e = end;
        }
    }

    /// Number of blocks of `[lba, lba + len)` already covered by the set,
    /// without modifying it. O(log runs + runs overlapped).
    pub fn overlap_blocks(&self, lba: Lba, len: u32) -> u64 {
        let start = lba.index();
        let end = start.saturating_add(len as u64);
        let mut covered = 0;
        // The predecessor run may extend into the query range…
        if let Some((&s, &e)) = self.runs.range(..start).next_back() {
            if e > start {
                covered += e.min(end) - s.max(start);
            }
        }
        // …plus every run starting inside it.
        for (&s, &e) in self.runs.range(start..end) {
            covered += e.min(end) - s;
        }
        covered
    }

    /// Iterates over the disjoint runs as `(start, exclusive end)` indices.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|(&s, &e)| (s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> Lba {
        Lba::new(i)
    }

    #[test]
    fn inserts_count_distinct_blocks() {
        let mut s = LbaRangeSet::new();
        s.insert_run(l(0), 4);
        s.insert_run(l(0), 4); // duplicate: no change
        assert_eq!(s.block_count(), 4);
        assert_eq!(s.run_count(), 1);
        assert!(s.contains(l(3)));
        assert!(!s.contains(l(4)));
    }

    #[test]
    fn adjacent_and_overlapping_runs_coalesce() {
        let mut s = LbaRangeSet::new();
        s.insert_run(l(10), 4); // [10,14)
        s.insert_run(l(14), 4); // adjacent → [10,18)
        s.insert_run(l(16), 8); // overlapping → [10,24)
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.block_count(), 14);
    }

    #[test]
    fn bridging_insert_absorbs_multiple_runs() {
        let mut s = LbaRangeSet::new();
        s.insert_run(l(0), 2);
        s.insert_run(l(10), 2);
        s.insert_run(l(20), 2);
        assert_eq!(s.run_count(), 3);
        s.insert_run(l(1), 20); // spans all three
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.block_count(), 22);
    }

    #[test]
    fn overlap_counts_covered_blocks_only() {
        let mut s = LbaRangeSet::new();
        s.insert_run(l(10), 4); // [10,14)
        s.insert_run(l(20), 4); // [20,24)
        assert_eq!(s.overlap_blocks(l(0), 5), 0);
        assert_eq!(s.overlap_blocks(l(10), 4), 4);
        assert_eq!(s.overlap_blocks(l(12), 4), 2); // tail of the first run
        assert_eq!(s.overlap_blocks(l(8), 20), 8); // spans both runs
        assert_eq!(s.overlap_blocks(l(13), 8), 2); // overhang + second run's head
        assert_eq!(s.overlap_blocks(l(14), 6), 0); // exactly between runs
    }

    #[test]
    fn clear_resets_counts() {
        let mut s = LbaRangeSet::new();
        s.insert_run(l(5), 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.block_count(), 0);
    }
}
