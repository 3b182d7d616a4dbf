//! Erase blocks: in-order page storage with wear tracking.
//!
//! A block stores its pages struct-of-arrays, and only the programmed
//! ones: one state byte, one 24-byte spare-area record and one payload
//! handle per page below the write pointer. The three vectors are sized to
//! the block on its first program and keep that capacity across erases,
//! so steady churn allocates nothing and a block never programmed holds no
//! heap at all.

use crate::oob::{CrcMismatch, OobRecord, RawOob};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Lifecycle state of a NAND page.
///
/// A page moves `Free → Valid → Invalid → (erase) → Free`. The `Invalid`
/// transition is driven by the FTL above (the device itself only knows
/// free/programmed); the simulator tracks it so garbage-collection policies
/// and SSD-Insider's delayed-deletion protection can be audited at the
/// device level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PageState {
    /// Erased and programmable.
    #[default]
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; reclaimable once the block is erased
    /// (unless protected by a recovery-queue reference).
    Invalid,
}

/// Summary state of a block, derived from its pages and write pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockState {
    /// All pages free; nothing programmed since the last erase.
    Free,
    /// Some pages programmed, some still free — the block can accept writes.
    Open,
    /// Every page programmed; only erasure can make it writable again.
    Full,
}

/// An erase block: a fixed number of pages that must be programmed in
/// order and can only be freed all at once by an erase.
///
/// Pages at or past the write pointer are free, hold nothing and read as
/// [`PageState::Free`] with no payload and no record.
#[derive(Debug, Clone)]
pub struct Block {
    /// Per programmed page, in offset order: the state, the spare area and
    /// the payload. The three always have the write pointer's length.
    states: Vec<PageState>,
    oob: Vec<RawOob>,
    data: Vec<Bytes>,
    pages: u32,
    erase_count: u32,
}

impl Block {
    /// An erased block of `pages_per_block` pages, holding no heap.
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            states: Vec::new(),
            oob: Vec::new(),
            data: Vec::new(),
            pages: pages_per_block,
            erase_count: 0,
        }
    }

    /// Number of pages in the block.
    pub fn len(&self) -> u32 {
        self.pages
    }

    /// Whether the block holds zero pages (never true for real geometries).
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Pages programmed since the last erase.
    fn programmed(&self) -> u32 {
        self.states.len() as u32
    }

    /// The state of the page at `offset`; `Free` at or past the write
    /// pointer.
    pub fn page_state(&self, offset: u32) -> PageState {
        self.states
            .get(offset as usize)
            .copied()
            .unwrap_or(PageState::Free)
    }

    /// The payload of the page at `offset`, if it was programmed since the
    /// last erase.
    pub fn data(&self, offset: u32) -> Option<&Bytes> {
        self.data.get(offset as usize)
    }

    /// The decoded out-of-band record of the page at `offset`: `None` for a
    /// free page or one programmed without a tag.
    ///
    /// # Errors
    ///
    /// [`CrcMismatch`] when the stored record fails its CRC; the device
    /// names the page in [`NandError::OobCorrupt`](crate::NandError::OobCorrupt).
    #[inline]
    pub fn oob(&self, offset: u32) -> Result<Option<OobRecord>, CrcMismatch> {
        self.oob
            .get(offset as usize)
            .map_or(Ok(None), OobRecord::decode)
    }

    /// The next in-order programmable page offset, or `None` if full.
    pub fn write_ptr(&self) -> Option<u32> {
        let wp = self.programmed();
        (wp < self.pages).then_some(wp)
    }

    /// How many times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Programs the page at the write pointer. The caller checked that the
    /// block is not full. The first program after the block was created
    /// sizes the three vectors to the block, once.
    #[inline]
    pub(crate) fn program(&mut self, data: Bytes, oob: RawOob) {
        debug_assert!(self.write_ptr().is_some(), "programming a full block");
        if self.states.capacity() == 0 {
            self.allocate();
        }
        self.states.push(PageState::Valid);
        self.oob.push(oob);
        self.data.push(data);
    }

    /// Sizes the three vectors to the block, on its first program.
    #[cold]
    fn allocate(&mut self) {
        let pages = self.pages as usize;
        self.states.reserve_exact(pages);
        self.oob.reserve_exact(pages);
        self.data.reserve_exact(pages);
    }

    /// Moves the page at `offset` from state `from` to `to`; any other
    /// page, free ones included, is left as it is.
    pub(crate) fn transition(&mut self, offset: u32, from: PageState, to: PageState) {
        if let Some(state) = self.states.get_mut(offset as usize) {
            if *state == from {
                *state = to;
            }
        }
    }

    /// Degrades every `Valid` page to `Invalid`: page validity is DRAM
    /// state that a power cut loses.
    pub(crate) fn power_cut(&mut self) {
        for state in &mut self.states {
            if *state == PageState::Valid {
                *state = PageState::Invalid;
            }
        }
    }

    /// Number of pages in each state `(free, valid, invalid)`.
    pub fn page_counts(&self) -> (u32, u32, u32) {
        let valid = self
            .states
            .iter()
            .filter(|&&s| s == PageState::Valid)
            .count() as u32;
        let invalid = self.programmed() - valid;
        (self.pages - valid - invalid, valid, invalid)
    }

    /// Number of invalid (reclaimable) pages.
    pub fn invalid_pages(&self) -> u32 {
        self.page_counts().2
    }

    /// Number of valid (live) pages.
    pub fn valid_pages(&self) -> u32 {
        self.page_counts().1
    }

    /// Summary state.
    pub fn state(&self) -> BlockState {
        match self.write_ptr() {
            Some(0) => BlockState::Free,
            Some(_) => BlockState::Open,
            None => BlockState::Full,
        }
    }

    /// Frees every page. The vectors keep their capacity for the next
    /// round of programs.
    pub(crate) fn erase(&mut self) {
        self.states.clear();
        self.oob.clear();
        self.data.clear();
        self.erase_count += 1;
    }

    /// Heap bytes the block's page storage holds.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.states.capacity() * size_of::<PageState>()
            + self.oob.capacity() * size_of::<RawOob>()
            + self.data.capacity() * size_of::<Bytes>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oob::{OobTag, UNTAGGED};
    use crate::{Lba, SimTime};

    fn programmed_block(n: u32, programmed: u32) -> Block {
        let mut b = Block::new(n);
        for _ in 0..programmed {
            b.program(Bytes::from_static(b"d"), UNTAGGED);
        }
        b
    }

    #[test]
    fn fresh_block_is_free() {
        let b = Block::new(8);
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.write_ptr(), Some(0));
        assert_eq!(b.page_counts(), (8, 0, 0));
        assert_eq!(b.erase_count(), 0);
    }

    #[test]
    fn partially_programmed_block_is_open() {
        let b = programmed_block(8, 3);
        assert_eq!(b.state(), BlockState::Open);
        assert_eq!(b.write_ptr(), Some(3));
        assert_eq!(b.page_counts(), (5, 3, 0));
    }

    #[test]
    fn fully_programmed_block_is_full() {
        let b = programmed_block(8, 8);
        assert_eq!(b.state(), BlockState::Full);
        assert_eq!(b.write_ptr(), None);
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = programmed_block(8, 8);
        b.transition(2, PageState::Valid, PageState::Invalid);
        b.erase();
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.page_counts(), (8, 0, 0));
        assert_eq!(b.erase_count(), 1);
        b.erase();
        assert_eq!(b.erase_count(), 2);
    }

    #[test]
    fn invalid_page_accounting() {
        let mut b = programmed_block(8, 4);
        b.transition(0, PageState::Valid, PageState::Invalid);
        b.transition(1, PageState::Valid, PageState::Invalid);
        assert_eq!(b.invalid_pages(), 2);
        assert_eq!(b.valid_pages(), 2);
    }

    #[test]
    fn default_state_is_free() {
        assert_eq!(PageState::default(), PageState::Free);
    }

    #[test]
    fn lifecycle_free_valid_invalid_free() {
        let mut b = Block::new(4);
        assert_eq!(b.page_state(0), PageState::Free);
        assert!(b.data(0).is_none());
        assert_eq!(b.oob(0), Ok(None));

        let tag = OobTag::live(Lba::new(4), SimTime::ZERO);
        b.program(Bytes::from_static(b"x"), OobRecord::encode(tag, 4, 1));
        assert_eq!(b.page_state(0), PageState::Valid);
        assert_eq!(b.data(0).unwrap().as_ref(), b"x");
        assert_eq!(b.oob(0).unwrap().unwrap().lba, Lba::new(4));

        b.transition(0, PageState::Valid, PageState::Invalid);
        assert_eq!(b.page_state(0), PageState::Invalid);
        // Invalid pages still hold their data and OOB (delayed deletion).
        assert_eq!(b.data(0).unwrap().as_ref(), b"x");
        assert!(b.oob(0).unwrap().is_some());

        b.erase();
        assert_eq!(b.page_state(0), PageState::Free);
        assert!(b.data(0).is_none());
        assert_eq!(b.oob(0), Ok(None));
    }

    #[test]
    fn corrupt_record_fails_its_check() {
        let mut b = Block::new(4);
        b.program(Bytes::from_static(b"a"), UNTAGGED);
        let mut raw = UNTAGGED;
        raw[7] ^= 0x40;
        b.program(Bytes::from_static(b"b"), raw);
        assert_eq!(b.oob(0), Ok(None));
        assert_eq!(b.oob(1), Err(CrcMismatch));
    }

    #[test]
    fn never_programmed_block_holds_no_heap() {
        let b = Block::new(64);
        assert_eq!(b.heap_bytes(), 0);
    }

    #[test]
    fn full_block_holds_57_bytes_a_page_and_keeps_them_across_erase() {
        let ppb = 64;
        let mut b = programmed_block(ppb, ppb);
        let bound = ppb as usize * 57;
        assert!(b.heap_bytes() <= bound, "{} > {bound}", b.heap_bytes());
        assert!(
            std::mem::size_of::<Block>() <= 3 * std::mem::size_of::<Vec<u8>>() + 16,
            "three vector headers and three `u32`s"
        );
        let held = b.heap_bytes();
        b.erase();
        assert_eq!(b.heap_bytes(), held, "erase keeps the capacity");
        b.program(Bytes::from_static(b"d"), UNTAGGED);
        assert_eq!(b.heap_bytes(), held, "reprogramming allocates nothing");
    }
}
