//! Erase blocks: ordered page containers with wear tracking.

use crate::page::{Page, PageState};
use serde::{Deserialize, Serialize};

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

/// An erase block: a fixed array of pages that must be programmed in order
/// and can only be freed all at once by an erase.
#[derive(Debug, Clone)]
pub struct Block {
    pages: Vec<Page>,
    /// Next in-order page offset to program.
    write_ptr: u32,
    erase_count: u32,
}

impl Block {
    /// Creates an erased block with `pages_per_block` pages.
    pub fn new(pages_per_block: u32) -> Self {
        Block {
            pages: vec![Page::erased(); pages_per_block as usize],
            write_ptr: 0,
            erase_count: 0,
        }
    }

    /// Number of pages in the block.
    pub fn len(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Whether the block holds zero pages (never true for real geometries).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The page at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn page(&self, offset: u32) -> &Page {
        &self.pages[offset as usize]
    }

    pub(crate) fn page_mut(&mut self, offset: u32) -> &mut Page {
        &mut self.pages[offset as usize]
    }

    /// The next in-order programmable page offset, or `None` if full.
    pub fn write_ptr(&self) -> Option<u32> {
        if self.write_ptr < self.len() {
            Some(self.write_ptr)
        } else {
            None
        }
    }

    pub(crate) fn advance_write_ptr(&mut self) {
        self.write_ptr += 1;
    }

    /// How many times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// The pages below the write pointer. Programs go in order and only an
    /// erase frees a page, so every page at or above it is `Free`: sweeps
    /// over page states visit this prefix alone.
    pub(crate) fn programmed_mut(&mut self) -> &mut [Page] {
        &mut self.pages[..self.write_ptr as usize]
    }

    /// Number of pages in each state `(free, valid, invalid)`.
    pub fn page_counts(&self) -> (u32, u32, u32) {
        let mut valid = 0;
        let mut invalid = 0;
        for p in &self.pages[..self.write_ptr as usize] {
            match p.state() {
                PageState::Valid => valid += 1,
                PageState::Invalid => invalid += 1,
                PageState::Free => {}
            }
        }
        (self.len() - valid - invalid, valid, invalid)
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
        if self.write_ptr == 0 {
            BlockState::Free
        } else if self.write_ptr < self.len() {
            BlockState::Open
        } else {
            BlockState::Full
        }
    }

    pub(crate) fn erase(&mut self) {
        for p in &mut self.pages {
            p.erase();
        }
        self.write_ptr = 0;
        self.erase_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn programmed_block(n: u32, programmed: u32) -> Block {
        let mut b = Block::new(n);
        for i in 0..programmed {
            b.page_mut(i).program(Bytes::from_static(b"d"), None);
            b.advance_write_ptr();
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
        b.page_mut(2).invalidate();
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
        b.page_mut(0).invalidate();
        b.page_mut(1).invalidate();
        assert_eq!(b.invalid_pages(), 2);
        assert_eq!(b.valid_pages(), 2);
    }
}
