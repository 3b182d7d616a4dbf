//! Typed physical addresses.
//!
//! Physical page addresses ([`Ppa`]) and physical block addresses ([`Pba`])
//! are newtypes over flat indices so that they cannot be confused with each
//! other or with logical block addresses in the layers above.

use crate::Geometry;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A physical page address: a flat index into the device's page array.
///
/// Pages are numbered block-major: page `i` lives in block `i / pages_per_block`
/// at offset `i % pages_per_block`.
///
/// # Example
///
/// ```rust
/// use insider_nand::{Geometry, Ppa};
///
/// let g = Geometry::tiny(); // 16 pages per block
/// let ppa = Ppa::new(35);
/// assert_eq!(ppa.block(&g).index(), 2);
/// assert_eq!(ppa.page_offset(&g), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ppa(u64);

impl Ppa {
    /// Creates a physical page address from a flat page index.
    pub const fn new(index: u64) -> Self {
        Ppa(index)
    }

    /// The flat page index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The block this page belongs to under geometry `g`.
    pub fn block(self, g: &Geometry) -> Pba {
        Pba::new((self.0 / g.pages_per_block() as u64) as u32)
    }

    /// The page offset within its block under geometry `g`.
    pub fn page_offset(self, g: &Geometry) -> u32 {
        (self.0 % g.pages_per_block() as u64) as u32
    }

    /// Whether this address is within the bounds of geometry `g`.
    pub fn is_valid(self, g: &Geometry) -> bool {
        self.0 < g.total_pages()
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppa:{}", self.0)
    }
}

impl From<u64> for Ppa {
    fn from(v: u64) -> Self {
        Ppa(v)
    }
}

/// A physical block address: a flat index into the device's block array.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Pba(u32);

impl Pba {
    /// Creates a physical block address from a flat block index.
    pub const fn new(index: u32) -> Self {
        Pba(index)
    }

    /// The flat block index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The first page of this block under geometry `g`.
    pub fn first_page(self, g: &Geometry) -> Ppa {
        Ppa::new(self.0 as u64 * g.pages_per_block() as u64)
    }

    /// The page at `offset` within this block under geometry `g`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= g.pages_per_block()`.
    pub fn page(self, g: &Geometry, offset: u32) -> Ppa {
        // Cannot fire from host input: hosts address logical pages, and
        // every physical offset comes from a walk below `pages_per_block`
        // or a block's write pointer. A caller bug that got past it would
        // silently name a page of the next block, so it stays a panic.
        assert!(
            offset < g.pages_per_block(),
            "page offset {offset} out of range for block with {} pages",
            g.pages_per_block()
        );
        Ppa::new(self.first_page(g).index() + offset as u64)
    }

    /// Whether this address is within the bounds of geometry `g`.
    pub fn is_valid(self, g: &Geometry) -> bool {
        self.0 < g.total_blocks()
    }

    /// The channel this block's chip hangs off, for interleaving decisions.
    pub fn channel(self, g: &Geometry) -> u32 {
        (self.0 / g.blocks_per_chip()) % g.channels()
    }
}

impl fmt::Display for Pba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pba:{}", self.0)
    }
}

impl From<u32> for Pba {
    fn from(v: u32) -> Self {
        Pba(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppa_decomposition_round_trips() {
        let g = Geometry::tiny();
        for raw in [0u64, 1, 15, 16, 17, 255] {
            let ppa = Ppa::new(raw);
            let block = ppa.block(&g);
            let off = ppa.page_offset(&g);
            assert_eq!(block.page(&g, off), ppa);
        }
    }

    #[test]
    fn ppa_bounds() {
        let g = Geometry::tiny();
        assert!(Ppa::new(255).is_valid(&g));
        assert!(!Ppa::new(256).is_valid(&g));
    }

    #[test]
    fn pba_bounds() {
        let g = Geometry::tiny();
        assert!(Pba::new(15).is_valid(&g));
        assert!(!Pba::new(16).is_valid(&g));
    }

    #[test]
    fn first_page_of_block() {
        let g = Geometry::tiny();
        assert_eq!(Pba::new(0).first_page(&g), Ppa::new(0));
        assert_eq!(Pba::new(3).first_page(&g), Ppa::new(48));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_offset_out_of_range_panics() {
        let g = Geometry::tiny();
        Pba::new(0).page(&g, 16);
    }

    #[test]
    fn channel_assignment_cycles() {
        let g = Geometry::builder()
            .channels(2)
            .chips_per_channel(1)
            .blocks_per_chip(4)
            .build();
        assert_eq!(Pba::new(0).channel(&g), 0);
        assert_eq!(Pba::new(4).channel(&g), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ppa::new(7).to_string(), "ppa:7");
        assert_eq!(Pba::new(7).to_string(), "pba:7");
    }
}
