//! The FTL's two per-page tables: the logical-to-physical mapping table and
//! the physical-to-logical reverse map, both 4 bytes an entry.

use insider_nand::{Lba, Ppa};
use std::num::NonZeroU32;

/// One table entry: a page index in 4 bytes, stored as index + 1 so that the
/// all-zero bit pattern — what a fresh allocation holds — reads as "none".
/// So a new table is allocated zeroed, and clearing one is a memset.
type Slot = Option<NonZeroU32>;

/// Page counts a [`Slot`] can index: every index up to `u32::MAX - 1`, since
/// index + 1 must fit. [`FtlConfig`](crate::FtlConfig) refuses larger
/// geometries, so the conversions below are plain casts.
pub(crate) const MAX_PAGES: u64 = u32::MAX as u64;

fn to_slot(index: Option<u64>) -> Slot {
    index.and_then(|i| {
        debug_assert!(i < MAX_PAGES, "page index {i} does not fit a 4-byte slot");
        NonZeroU32::new(i as u32 + 1)
    })
}

fn from_slot(slot: Slot) -> Option<u64> {
    slot.map(|n| u64::from(n.get() - 1))
}

/// Page-level logical-to-physical mapping table.
///
/// A dense array indexed by LBA, one 4-byte entry per logical page (real
/// page-level firmware spends the same); an unmapped entry (never written,
/// trimmed, or unmapped by rollback) is all-zero. Physical page indices
/// must be below the bound [`FtlConfig`](crate::FtlConfig) enforces on the
/// geometry, fewer than 2³² pages.
///
/// # Example
///
/// ```rust
/// use insider_ftl::MappingTable;
/// use insider_nand::{Lba, Ppa};
///
/// let mut map = MappingTable::new(8);
/// assert_eq!(map.set(Lba::new(3), Some(Ppa::new(40))), None);
/// assert_eq!(map.get(Lba::new(3)), Some(Ppa::new(40)));
/// assert_eq!(map.set(Lba::new(3), None), Some(Ppa::new(40)));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    entries: Vec<Slot>,
    mapped: u64,
}

impl MappingTable {
    /// An empty table covering `logical_pages` logical pages.
    pub fn new(logical_pages: u64) -> Self {
        MappingTable {
            entries: vec![None; logical_pages as usize],
            mapped: 0,
        }
    }

    /// Number of logical pages the table covers.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Whether the table covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `lba` falls within the table.
    pub fn contains(&self, lba: Lba) -> bool {
        (lba.index() as usize) < self.entries.len()
    }

    /// Current physical location of `lba`, if mapped.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range; callers validate against
    /// [`MappingTable::contains`] (the FTL front-ends do).
    pub fn get(&self, lba: Lba) -> Option<Ppa> {
        from_slot(self.entries[lba.index() as usize]).map(Ppa::new)
    }

    /// Points `lba` at `ppa` (or unmaps it with `None`), returning the
    /// previous mapping.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn set(&mut self, lba: Lba, ppa: Option<Ppa>) -> Option<Ppa> {
        let slot = &mut self.entries[lba.index() as usize];
        let old = std::mem::replace(slot, to_slot(ppa.map(Ppa::index)));
        match (old.is_some(), ppa.is_some()) {
            (false, true) => self.mapped += 1,
            (true, false) => self.mapped -= 1,
            _ => {}
        }
        from_slot(old).map(Ppa::new)
    }

    /// Unmaps every logical page in place, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.fill(None);
        self.mapped = 0;
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped
    }

    /// Fraction of logical pages currently mapped.
    pub fn utilization(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.mapped as f64 / self.entries.len() as f64
        }
    }

    /// Iterates over `(lba, ppa)` pairs for all mapped pages.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, Ppa)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, &slot)| from_slot(slot).map(|ppa| (Lba::new(i as u64), Ppa::new(ppa))))
    }
}

/// Physical-to-logical reverse map, one 4-byte entry per physical page,
/// standing in for the out-of-band (OOB) metadata real firmware writes next
/// to each page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReverseMap {
    entries: Vec<Slot>,
}

impl ReverseMap {
    /// A map covering `physical_pages` pages, none reverse-mapped.
    pub(crate) fn new(physical_pages: u64) -> Self {
        ReverseMap {
            entries: vec![None; physical_pages as usize],
        }
    }

    /// The logical page `ppa` holds a version of, if any.
    pub(crate) fn get(&self, ppa: Ppa) -> Option<Lba> {
        from_slot(self.entries[ppa.index() as usize]).map(Lba::new)
    }

    /// Records (or with `None` forgets) the logical page `ppa` holds.
    pub(crate) fn set(&mut self, ppa: Ppa, lba: Option<Lba>) {
        self.entries[ppa.index() as usize] = to_slot(lba.map(Lba::index));
    }

    /// Forgets every page in place, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut m = MappingTable::new(4);
        assert_eq!(m.get(Lba::new(0)), None);
        assert_eq!(m.set(Lba::new(0), Some(Ppa::new(9))), None);
        assert_eq!(m.get(Lba::new(0)), Some(Ppa::new(9)));
        assert_eq!(m.set(Lba::new(0), Some(Ppa::new(11))), Some(Ppa::new(9)));
    }

    #[test]
    fn mapped_count_tracks_transitions() {
        let mut m = MappingTable::new(4);
        m.set(Lba::new(0), Some(Ppa::new(1)));
        m.set(Lba::new(1), Some(Ppa::new(2)));
        assert_eq!(m.mapped_count(), 2);
        m.set(Lba::new(0), Some(Ppa::new(3))); // remap, no change
        assert_eq!(m.mapped_count(), 2);
        m.set(Lba::new(0), None);
        assert_eq!(m.mapped_count(), 1);
        m.set(Lba::new(0), None); // unmapping twice is a no-op
        assert_eq!(m.mapped_count(), 1);
        assert!((m.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_only_mapped() {
        let mut m = MappingTable::new(4);
        m.set(Lba::new(1), Some(Ppa::new(5)));
        m.set(Lba::new(3), Some(Ppa::new(7)));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(
            pairs,
            vec![(Lba::new(1), Ppa::new(5)), (Lba::new(3), Ppa::new(7))]
        );
    }

    #[test]
    fn contains_checks_bounds() {
        let m = MappingTable::new(4);
        assert!(m.contains(Lba::new(3)));
        assert!(!m.contains(Lba::new(4)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        MappingTable::new(2).get(Lba::new(2));
    }

    /// Index 0 sits next to the all-zero "unmapped" pattern: page 0 must
    /// still read back as mapped, in both tables and in either role.
    #[test]
    fn page_zero_is_mapped() {
        let mut m = MappingTable::new(4);
        assert_eq!(m.set(Lba::new(0), Some(Ppa::new(0))), None);
        assert_eq!(m.get(Lba::new(0)), Some(Ppa::new(0)));
        assert_eq!(m.mapped_count(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), [(Lba::new(0), Ppa::new(0))]);
        assert_eq!(m.set(Lba::new(0), None), Some(Ppa::new(0)));
        assert_eq!(m.mapped_count(), 0);

        let mut r = ReverseMap::new(4);
        r.set(Ppa::new(0), Some(Lba::new(0)));
        assert_eq!(r.get(Ppa::new(0)), Some(Lba::new(0)));
        r.set(Ppa::new(0), None);
        assert_eq!(r.get(Ppa::new(0)), None);
    }

    /// The largest index a slot holds round-trips through both tables. The
    /// tables are only as long as the test needs; the stored value carries
    /// the edge.
    #[test]
    fn last_page_index_round_trips() {
        let last = MAX_PAGES - 1;
        let mut m = MappingTable::new(2);
        m.set(Lba::new(1), Some(Ppa::new(last)));
        assert_eq!(m.get(Lba::new(1)), Some(Ppa::new(last)));
        let mut r = ReverseMap::new(2);
        r.set(Ppa::new(1), Some(Lba::new(last)));
        assert_eq!(r.get(Ppa::new(1)), Some(Lba::new(last)));
    }

    #[test]
    fn clear_unmaps_everything() {
        let mut m = MappingTable::new(4);
        m.set(Lba::new(0), Some(Ppa::new(0)));
        m.set(Lba::new(3), Some(Ppa::new(2)));
        m.clear();
        assert_eq!(m.len(), 4);
        assert_eq!(m.mapped_count(), 0);
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.get(Lba::new(0)), None);

        let mut r = ReverseMap::new(4);
        r.set(Ppa::new(3), Some(Lba::new(0)));
        r.clear();
        assert_eq!(r, ReverseMap::new(4));
    }

    /// Pins the entry width: widening a slot must fail here, not only in
    /// the benchmark's resident-memory figure.
    #[test]
    fn a_slot_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 4);
    }
}
