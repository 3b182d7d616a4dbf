//! The recovery queue: SSD-Insider's delayed-deletion backup log.
//!
//! Every host write that supersedes an existing mapping (and every trim)
//! appends a [`BackupEntry`] recording the logical address, the physical page
//! that held the *previous* version, and a timestamp. While an entry is in
//! the queue, its old physical page is **protected**: garbage collection must
//! migrate it instead of discarding it. Entries older than the protection
//! window are retired, releasing their pages for normal reclamation.

use insider_nand::{Lba, Ppa, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a page number with one folded 64 × 64 → 128-bit multiply: the
/// high and low halves of the product XORed, so every input bit reaches
/// the low bits the table indexes by. The keys are physical pages the
/// FTL's allocator chose, never values a host can pick, so the collision
/// resistance of the SipHash that `HashMap` defaults to buys nothing here,
/// and it cost a measurable share of every protected overwrite.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// Protected page → sequence number of the entry that protects it.
type PageIndex = HashMap<Ppa, u64, BuildHasherDefault<PageHasher>>;

/// One backup record in the recovery queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackupEntry {
    /// The logical page that was overwritten or trimmed.
    pub lba: Lba,
    /// Physical page holding the previous version, or `None` if the logical
    /// page had never been mapped (a first write — rollback unmaps it).
    pub old: Option<Ppa>,
    /// When the superseding operation happened.
    pub stamp: SimTime,
}

/// Time-ordered queue of [`BackupEntry`] records with an index from protected
/// physical pages back to their entries.
///
/// Entries live in a `VecDeque` in insertion (= time) order; a monotonically
/// increasing sequence number addresses them stably across front retirement
/// (`index = seq − front_seq`), so push, retire and the protected-page
/// lookup are all O(1) — this sits on the write hot path.
///
/// # Example
///
/// ```rust
/// use insider_ftl::RecoveryQueue;
/// use insider_nand::{Lba, Ppa, SimTime};
///
/// let mut q = RecoveryQueue::new();
/// q.push(Lba::new(7), Some(Ppa::new(21)), SimTime::from_secs(3));
/// assert!(q.is_protected(Ppa::new(21)));
///
/// // 10 s later the entry retires and the old page becomes reclaimable.
/// // Each retired entry is handed to the caller, which releases the
/// // protected-page count it keeps for the page's block.
/// let mut released = Vec::new();
/// q.retire_before(SimTime::from_secs(13), |e| released.extend(e.old));
/// assert_eq!(released, [Ppa::new(21)]);
/// assert!(!q.is_protected(Ppa::new(21)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecoveryQueue {
    entries: VecDeque<BackupEntry>,
    by_old_ppa: PageIndex,
    /// Sequence number of the entry currently at the front of the deque.
    front_seq: u64,
    next_seq: u64,
}

impl RecoveryQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a backup entry.
    ///
    /// # Panics
    ///
    /// Panics if `old` is already protected by another entry — a physical
    /// page can be the pre-image of at most one overwrite, so a duplicate
    /// indicates an FTL accounting bug.
    pub fn push(&mut self, lba: Lba, old: Option<Ppa>, stamp: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(ppa) = old {
            let prev = self.by_old_ppa.insert(ppa, seq);
            assert!(
                prev.is_none(),
                "physical page {ppa} already protected by another backup entry"
            );
        }
        self.entries.push_back(BackupEntry { lba, old, stamp });
    }

    /// Appends one backup entry per page of an extent write in a single
    /// vectorized pass: `olds[i]` is the pre-image of `lba + i`, and every
    /// entry carries the same request timestamp.
    ///
    /// # Panics
    ///
    /// Panics like [`push`](Self::push) if any pre-image is already
    /// protected.
    pub fn push_extent(&mut self, lba: Lba, olds: &[Option<Ppa>], stamp: SimTime) {
        self.entries.reserve(olds.len());
        for (i, &old) in olds.iter().enumerate() {
            self.push(lba.offset(i as u64), old, stamp);
        }
    }

    /// Whether `ppa` holds a protected old version.
    pub fn is_protected(&self, ppa: Ppa) -> bool {
        self.by_old_ppa.contains_key(&ppa)
    }

    /// Number of protected physical pages.
    pub fn protected_count(&self) -> usize {
        self.by_old_ppa.len()
    }

    /// Redirects the protection of a migrated old version: garbage collection
    /// moved the page at `from` to `to`, so the backup entry must now point
    /// at `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not protected, or if `to` is already protected.
    pub fn relocate(&mut self, from: Ppa, to: Ppa) {
        // Cannot fire from the FTL: GC relocates only pages `is_protected` names.
        let seq = self
            .by_old_ppa
            .remove(&from)
            .unwrap_or_else(|| panic!("relocating unprotected page {from}"));
        let idx = (seq - self.front_seq) as usize;
        // Cannot fire: retirement and `take_all` drop a seq from `by_old_ppa`.
        let entry = self
            .entries
            .get_mut(idx)
            .expect("index points at live entry");
        entry.old = Some(to);
        let prev = self.by_old_ppa.insert(to, seq);
        assert!(prev.is_none(), "relocation target {to} already protected");
    }

    /// Retires (drops) all entries with `stamp < cutoff`, releasing their
    /// protected pages, and hands each retired entry to `retired` in
    /// retirement (= time) order. The caller that counts protected pages
    /// per block (the FTL's victim index) releases each page as it comes,
    /// with nothing collected in between.
    pub fn retire_before(&mut self, cutoff: SimTime, mut retired: impl FnMut(BackupEntry)) {
        while let Some(&entry) = self.entries.front() {
            if entry.stamp >= cutoff {
                break;
            }
            if let Some(ppa) = entry.old {
                self.by_old_ppa.remove(&ppa);
            }
            self.entries.pop_front();
            self.front_seq += 1;
            retired(entry);
        }
    }

    /// Drains every entry (oldest first), releasing all protections in one
    /// step — the bulk form of [`retire_before`](Self::retire_before) used
    /// by rollback, which must release every protection *before* it starts
    /// rewinding mappings so protected counts never exceed invalid counts
    /// mid-rewind.
    pub fn take_all(&mut self) -> Vec<BackupEntry> {
        self.front_seq = self.next_seq;
        self.by_old_ppa.clear();
        self.entries.drain(..).collect()
    }

    /// Iterates entries from newest to oldest — the scan order of the
    /// paper's Fig. 5 recovery process.
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &BackupEntry> {
        self.entries.iter().rev()
    }

    /// Iterates entries from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &BackupEntry> {
        self.entries.iter()
    }

    /// Removes every entry and protection. Used after rollback completes.
    pub fn clear(&mut self) {
        self.front_seq = self.next_seq;
        self.entries.clear();
        self.by_old_ppa.clear();
    }

    /// Bytes of DRAM an on-device implementation would need per entry
    /// (LBA + PPA + timestamp packed as in the paper's Table III).
    pub const ENTRY_BYTES: usize = 12;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(lba: u64, old: Option<u64>, secs: u64) -> (Lba, Option<Ppa>, SimTime) {
        (Lba::new(lba), old.map(Ppa::new), SimTime::from_secs(secs))
    }

    #[test]
    fn push_protects_old_pages() {
        let mut q = RecoveryQueue::new();
        let (l, o, t) = e(1, Some(10), 0);
        q.push(l, o, t);
        assert_eq!(q.len(), 1);
        assert!(q.is_protected(Ppa::new(10)));
        assert_eq!(q.protected_count(), 1);
    }

    #[test]
    fn first_writes_protect_nothing() {
        let mut q = RecoveryQueue::new();
        let (l, o, t) = e(1, None, 0);
        q.push(l, o, t);
        assert_eq!(q.len(), 1);
        assert_eq!(q.protected_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already protected")]
    fn duplicate_protection_panics() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::ZERO);
        q.push(Lba::new(2), Some(Ppa::new(10)), SimTime::ZERO);
    }

    #[test]
    fn retire_releases_only_expired() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::from_secs(0));
        q.push(Lba::new(2), Some(Ppa::new(11)), SimTime::from_secs(5));
        q.push(Lba::new(3), Some(Ppa::new(12)), SimTime::from_secs(9));
        let mut retired = Vec::new();
        q.retire_before(SimTime::from_secs(5), |e| retired.push(e));
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].lba, Lba::new(1));
        assert_eq!(retired[0].old, Some(Ppa::new(10)));
        assert!(!q.is_protected(Ppa::new(10)));
        assert!(q.is_protected(Ppa::new(11)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn retire_with_equal_stamp_keeps_entry() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::from_secs(5));
        q.retire_before(SimTime::from_secs(5), |e| panic!("retired {e:?}"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn retire_reports_released_ppas_in_time_order() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(0)), SimTime::from_secs(0));
        q.push(Lba::new(2), None, SimTime::from_secs(1));
        q.push(Lba::new(3), Some(Ppa::new(5)), SimTime::from_secs(2));
        let mut olds = Vec::new();
        q.retire_before(SimTime::from_secs(10), |e| olds.push(e.old));
        assert_eq!(olds, vec![Some(Ppa::new(0)), None, Some(Ppa::new(5))]);
        assert_eq!(q.protected_count(), 0);
    }

    #[test]
    fn take_all_drains_and_releases_everything() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::from_secs(1));
        q.push(Lba::new(2), Some(Ppa::new(3)), SimTime::from_secs(2));
        let entries = q.take_all();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lba, Lba::new(1), "oldest first");
        assert!(q.is_empty());
        assert_eq!(q.protected_count(), 0);
        // The queue keeps working after the drain.
        q.push(Lba::new(5), Some(Ppa::new(10)), SimTime::from_secs(3));
        q.relocate(Ppa::new(10), Ppa::new(11));
        assert!(q.is_protected(Ppa::new(11)));
    }

    #[test]
    fn relocate_moves_protection() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::ZERO);
        q.relocate(Ppa::new(10), Ppa::new(99));
        assert!(!q.is_protected(Ppa::new(10)));
        assert!(q.is_protected(Ppa::new(99)));
        let entry = q.iter().next().unwrap();
        assert_eq!(entry.old, Some(Ppa::new(99)));
    }

    #[test]
    #[should_panic(expected = "relocating unprotected")]
    fn relocate_unprotected_panics() {
        RecoveryQueue::new().relocate(Ppa::new(1), Ppa::new(2));
    }

    #[test]
    fn newest_first_iteration_order() {
        let mut q = RecoveryQueue::new();
        for i in 0..4u64 {
            q.push(Lba::new(i), Some(Ppa::new(100 + i)), SimTime::from_secs(i));
        }
        let lbas: Vec<u64> = q.iter_newest_first().map(|e| e.lba.index()).collect();
        assert_eq!(lbas, vec![3, 2, 1, 0]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::ZERO);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.protected_count(), 0);
    }

    #[test]
    fn push_extent_appends_in_lba_order_with_one_stamp() {
        let mut q = RecoveryQueue::new();
        let olds = [Some(Ppa::new(30)), None, Some(Ppa::new(32))];
        q.push_extent(Lba::new(4), &olds, SimTime::from_secs(7));
        assert_eq!(q.len(), 3);
        assert_eq!(q.protected_count(), 2);
        let entries: Vec<&BackupEntry> = q.iter().collect();
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry.lba, Lba::new(4 + i as u64));
            assert_eq!(entry.stamp, SimTime::from_secs(7));
        }
        assert!(q.is_protected(Ppa::new(30)));
        assert!(q.is_protected(Ppa::new(32)));
    }

    #[test]
    fn same_lba_multiple_overwrites_coexist() {
        let mut q = RecoveryQueue::new();
        q.push(Lba::new(1), Some(Ppa::new(10)), SimTime::from_secs(1));
        q.push(Lba::new(1), Some(Ppa::new(11)), SimTime::from_secs(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.protected_count(), 2);
    }
}
