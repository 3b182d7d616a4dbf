//! Per-block counts and flags, the incremental victim index built from
//! them, greedy victim selection and its debug-build reconcile.

use super::InsiderFtl;
use crate::stats::GcVictim;
use insider_nand::{Geometry, Pba};
use std::collections::BTreeSet;

/// Incrementally maintained GC victim candidates, bucketed by reclaimable
/// page count (`invalid − protected`).
///
/// Every closed in-service block with a non-zero reclaimable count sits in
/// `buckets[chip][reclaimable]`, ordered by raw block index, which
/// reproduces the scan oracle's first-strict-max order. Candidates are
/// bucketed *per chip* because an erased block refills that chip's free
/// pool alone, so selection needs to know which die a candidate is on: each
/// chip reports the head of its highest non-empty bucket (O(1) amortized
/// via the lazily lowered `max_r` hint), and [`InsiderFtl::select_victim`]
/// takes the most reclaimable on the device, using free-pool depth only
/// between equal counts. Updates (re-filing one block) are O(log B) —
/// versus a full scan's O(B) per selection, with B = total blocks.
#[derive(Debug)]
struct VictimIndex {
    /// `buckets[chip][reclaimable]` → candidate blocks on that chip.
    buckets: Vec<Vec<BTreeSet<u32>>>,
    /// For indexed blocks, the reclaimable count they are filed under.
    slot: Vec<Option<u32>>,
    /// Per-chip upper bound on the highest non-empty bucket, lowered lazily.
    max_r: Vec<usize>,
    blocks_per_chip: u32,
}

impl VictimIndex {
    fn new(total_blocks: usize, pages_per_block: usize, blocks_per_chip: u32) -> Self {
        let chips = total_blocks / blocks_per_chip as usize;
        VictimIndex {
            buckets: vec![vec![BTreeSet::new(); pages_per_block + 1]; chips],
            slot: vec![None; total_blocks],
            max_r: vec![0; chips],
            blocks_per_chip,
        }
    }

    fn chip_of(&self, raw: u32) -> usize {
        (raw / self.blocks_per_chip) as usize
    }

    /// Files candidate `raw` under `reclaimable`, dropping it when zero.
    fn update(&mut self, raw: u32, reclaimable: u32) {
        if reclaimable > 0 && self.slot[raw as usize] == Some(reclaimable) {
            return;
        }
        self.remove(raw);
        if reclaimable > 0 {
            let chip = self.chip_of(raw);
            self.buckets[chip][reclaimable as usize].insert(raw);
            self.slot[raw as usize] = Some(reclaimable);
            self.max_r[chip] = self.max_r[chip].max(reclaimable as usize);
        }
    }

    fn remove(&mut self, raw: u32) {
        if let Some(r) = self.slot[raw as usize].take() {
            let chip = self.chip_of(raw);
            self.buckets[chip][r as usize].remove(&raw);
        }
    }

    /// Most reclaimable pages on `chip`, lowest block index on ties, as
    /// `(block, reclaimable)`.
    fn best(&mut self, chip: usize) -> Option<(u32, u32)> {
        while self.max_r[chip] > 0 && self.buckets[chip][self.max_r[chip]].is_empty() {
            self.max_r[chip] -= 1;
        }
        let r = self.max_r[chip];
        self.buckets[chip][r].first().map(|&raw| (raw, r as u32))
    }
}

/// Per-block state, indexed by raw block number, and the victim index
/// kept from it. One field of [`InsiderFtl`], so retirement can release
/// protections from inside the recovery queue's closure while the queue
/// itself is borrowed.
#[derive(Debug)]
pub(super) struct Blocks {
    /// Mirror of free-pool membership, for O(1) lookups.
    pub(super) free: Vec<bool>,
    /// Blocks retired after hitting their endurance limit; never selected
    /// as GC victims and never returned to the free pool.
    pub(super) bad: Vec<bool>,
    /// Mirror of the active blocks, replacing O(chips) probes on the
    /// selection paths.
    pub(super) active: Vec<bool>,
    /// Invalid-page count per block, maintained incrementally.
    pub(super) invalid: Vec<u32>,
    /// Per-block count of pages the recovery queue currently protects —
    /// the only per-block count there is: the queue keeps a page index and
    /// every protection change passes through here, so victim scoring
    /// never polls it. Debug builds recount it from the queue at every
    /// selection.
    pub(super) protected: Vec<u32>,
    /// Incremental victim index; debug builds assert every pick against a
    /// full-device scan (see [`InsiderFtl::select_victim`]).
    index: VictimIndex,
}

impl Blocks {
    /// Every block in service, none free, bad or active, none indexed.
    pub(super) fn new(g: &Geometry) -> Self {
        let n = g.total_blocks() as usize;
        Blocks {
            free: vec![false; n],
            bad: vec![false; n],
            active: vec![false; n],
            invalid: vec![0; n],
            protected: vec![0; n],
            index: VictimIndex::new(n, g.pages_per_block() as usize, g.blocks_per_chip()),
        }
    }

    /// Re-files a block in the victim index after any state transition
    /// touching its candidacy or reclaimable count.
    pub(super) fn refresh(&mut self, raw: u32) {
        let i = raw as usize;
        if self.free[i] || self.bad[i] || self.active[i] {
            self.index.remove(raw);
            return;
        }
        let invalid = self.invalid[i];
        let protected = self.protected[i];
        debug_assert!(
            protected <= invalid,
            "protected pages must be invalid (block {raw}: {protected} > {invalid})"
        );
        self.index.update(raw, invalid - protected);
    }

    /// Ends the protection of one page of block `raw`: it has one
    /// protected page less and one reclaimable page more.
    pub(super) fn unprotect(&mut self, raw: u32) {
        self.protected[raw as usize] -= 1;
        self.refresh(raw);
    }

    /// Zeroes every protected count. Rollback drains the whole queue up
    /// front (see [`RecoveryQueue::take_all`]) and must release the counts
    /// *before* rewinding mappings: revalidating an old version decrements
    /// its block's invalid count, which may never drop below the protected
    /// count.
    ///
    /// [`RecoveryQueue::take_all`]: crate::RecoveryQueue::take_all
    pub(super) fn clear_protected(&mut self) {
        for raw in 0..self.protected.len() {
            if self.protected[raw] != 0 {
                self.protected[raw] = 0;
                self.refresh(raw as u32);
            }
        }
    }
}

impl InsiderFtl {
    /// Appends a selection event to the victim log when
    /// `FtlConfig::record_gc_victims` is on.
    pub(super) fn log_victim(&mut self, pba: Pba) {
        if self.config.gc_victim_recording() {
            let raw = pba.index() as usize;
            self.victim_log.push(GcVictim {
                block: pba.index(),
                reclaimable: self.blocks.invalid[raw] - self.blocks.protected[raw],
            });
        }
    }

    /// Picks the victim with the most reclaimable pages (excluding free,
    /// active and retired-bad blocks), or `None` when nothing is
    /// reclaimable — the paper prototype's greedy rule (§V-C).
    ///
    /// **Reclaimable first, die second**: the most reclaimable block on the
    /// whole device wins; between equal counts, the one on the die with the
    /// fewest free blocks, then the lowest block index. The die matters
    /// because an erased victim refills only its own chip's free pool —
    /// programs cannot cross dies — and a die that never gets a free block
    /// drops out of the allocator's striping. It may only break ties,
    /// though. Ordering chips driest-first and picking within the first one
    /// was measured to starve dies instead: with the default reserve nearly
    /// every die has zero free blocks when GC runs, the lowest chip index
    /// won, and GC ground through that die's almost-valid blocks while the
    /// others' garbage was never collected (`dev-churn-gc`: 2.2 of 64 pages
    /// freed per erase and `nand.die_util` 0.40, against 45 and 0.99 with
    /// this rule; DESIGN.md §13).
    ///
    /// Debug builds also reconcile the whole index against a recount of
    /// the protected pages (see
    /// [`reconcile_victim_index`](Self::reconcile_victim_index)), then run
    /// the full-device scan on that recount and assert it agrees with the
    /// index — the in-process differential oracle.
    pub(super) fn select_victim(&mut self) -> Option<Pba> {
        let indexed = self.select_victim_indexed();
        #[cfg(debug_assertions)]
        {
            let protected = self.reconcile_victim_index();
            let scanned = self.select_victim_scan(&protected);
            assert_eq!(indexed, scanned, "victim selectors diverged");
        }
        indexed
    }

    /// Debug-build check of everything the victim index is built from.
    /// The protected pages per block are recounted from the pages the
    /// recovery queue's entries hold, and must equal the FTL's counts.
    /// Every block's index slot must be exactly what its flags and
    /// `invalid − protected` imply, each filed slot must be in its bucket,
    /// and the buckets must hold nothing else. The selector comparison
    /// alone only sees the blocks that win; a missed refresh on any other
    /// block shows up here at the next selection (and the mount runs it
    /// once the queue is rebuilt). Returns the recount, for the selector
    /// scan.
    #[cfg(debug_assertions)]
    pub(super) fn reconcile_victim_index(&self) -> Vec<u32> {
        let g = self.config.geometry();
        let blocks = &self.blocks;
        let mut recount = vec![0u32; g.total_blocks() as usize];
        for ppa in self.queue.iter().filter_map(|e| e.old) {
            recount[ppa.block(g).index() as usize] += 1;
        }
        assert_eq!(
            blocks.protected, recount,
            "protected counts diverged from the recovery queue"
        );
        let bpc = g.blocks_per_chip();
        let mut filed = 0;
        for raw in 0..g.total_blocks() {
            let i = raw as usize;
            let candidate = !(blocks.free[i] || blocks.bad[i] || blocks.active[i]);
            let reclaimable = blocks.invalid[i] - recount[i];
            let want = (candidate && reclaimable > 0).then_some(reclaimable);
            assert_eq!(
                blocks.index.slot[i], want,
                "victim index slot for block {raw} is stale"
            );
            if let Some(r) = want {
                assert!(
                    blocks.index.buckets[(raw / bpc) as usize][r as usize].contains(&raw),
                    "block {raw} is missing from its bucket"
                );
                filed += 1;
            }
        }
        let held: usize = blocks
            .index
            .buckets
            .iter()
            .flatten()
            .map(BTreeSet::len)
            .sum();
        assert_eq!(held, filed, "victim index holds blocks no slot names");
        recount
    }

    /// Index-backed victim selection: each chip's best candidate (O(1)
    /// amortized), then the best of those by `(reclaimable, fewest free
    /// blocks, lowest chip)`.
    fn select_victim_indexed(&mut self) -> Option<Pba> {
        let mut best: Option<(u32, u32, usize)> = None;
        for (chip, pool) in self.free.iter().enumerate() {
            let Some((raw, r)) = self.blocks.index.best(chip) else {
                continue;
            };
            if best.is_none_or(|(_, br, free)| r > br || (r == br && pool.len() < free)) {
                best = Some((raw, r, pool.len()));
            }
        }
        best.map(|(raw, ..)| Pba::new(raw))
    }

    /// O(total-blocks) scan — the debug-build differential oracle for the
    /// index, stating the rule flat: one pass in block order keeping the
    /// first strict maximum of `(reclaimable, fewest free blocks on its
    /// chip)`. Protected counts are the recount from the queue's entries
    /// (not the FTL's own), so the two selectors have independent inputs.
    #[cfg(debug_assertions)]
    fn select_victim_scan(&self, protected: &[u32]) -> Option<Pba> {
        let g = self.config.geometry();
        let bpc = g.blocks_per_chip();
        let blocks = &self.blocks;
        let mut best: Option<(Pba, u32, usize)> = None;
        for raw in 0..g.total_blocks() {
            let i = raw as usize;
            if blocks.active[i] || blocks.free[i] || blocks.bad[i] {
                continue;
            }
            let reclaimable = blocks.invalid[i] - protected[i];
            if reclaimable == 0 {
                continue;
            }
            let free = self.free[(raw / bpc) as usize].len();
            if best.is_none_or(|(_, r, f)| reclaimable > r || (reclaimable == r && free < f)) {
                best = Some((Pba::new(raw), reclaimable, free));
            }
        }
        best.map(|(pba, ..)| pba)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{churn, drive, ftl, put, secs};
    use super::super::InsiderFtl;
    use crate::FtlConfig;
    use bytes::Bytes;
    use insider_nand::{Geometry, Lba, SimTime};

    #[test]
    fn protected_overwrite_keeps_the_slot_and_retirement_moves_it_by_one() {
        let mut f = ftl();
        // Fill block 0, close it by writing one page into block 1, then
        // overwrite lba 0 and retire every entry so block 0 is a candidate
        // (r = 1).
        let page = Bytes::from_static(b"v1");
        f.program_extent_mapped(Lba::new(0), &vec![page.clone(); 17], SimTime::ZERO)
            .unwrap();
        put(&mut f, Lba::new(0), page.clone());
        f.tick(secs(11));
        assert!(f.queue.is_empty());
        let before = f.blocks.index.slot[0];
        assert_eq!(before, Some(1));

        // A protected overwrite raises invalid and protected together.
        f.program_extent_mapped(Lba::new(1), &[page], secs(11))
            .unwrap();
        assert_eq!(f.blocks.invalid[0], 2);
        assert_eq!(f.blocks.protected[0], 1);
        assert_eq!(
            f.blocks.index.slot[0], before,
            "net-zero change must not re-file"
        );

        // Retiring the entry releases the page: one more reclaimable page.
        f.tick(secs(22));
        assert!(f.queue.is_empty());
        assert_eq!(f.blocks.protected[0], 0);
        assert_eq!(f.blocks.index.slot[0], Some(2));
    }

    #[test]
    fn victim_log_records_reclaims_when_enabled() {
        let mut f = InsiderFtl::new(
            FtlConfig::new(Geometry::tiny())
                .protection_window(None)
                .record_gc_victims(true),
        );
        churn(&mut f, 16 * 16 * 2);
        let log = &f.victim_log;
        assert!(!log.is_empty());
        assert_eq!(log.len() as u64, f.stats.gc_invocations);
    }

    #[test]
    fn victim_log_stays_empty_by_default() {
        let mut f = drive(None);
        churn(&mut f, 16 * 16 * 2);
        assert!(f.stats.gc_invocations > 0);
        assert!(f.victim_log.is_empty());
    }
}
