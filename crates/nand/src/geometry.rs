//! Physical geometry of the simulated NAND device.

use serde::{Deserialize, Serialize};

/// Physical layout of a NAND device: how many channels, chips, blocks and
/// pages it has, and how large each page is.
///
/// The geometry is immutable after construction; every address computation in
/// the simulator derives from it.
///
/// # Example
///
/// ```rust
/// use insider_nand::Geometry;
///
/// let g = Geometry::builder()
///     .channels(8)
///     .chips_per_channel(8)
///     .blocks_per_chip(128)
///     .pages_per_block(64)
///     .page_size(4096)
///     .build();
/// assert_eq!(g.total_blocks(), 8 * 8 * 128);
/// assert_eq!(g.total_pages(), g.total_blocks() as u64 * 64);
/// assert_eq!(g.capacity_bytes(), g.total_pages() as u64 * 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    channels: u32,
    chips_per_channel: u32,
    blocks_per_chip: u32,
    pages_per_block: u32,
    page_size: u32,
}

impl Geometry {
    /// Starts building a geometry. All dimensions default to a small test
    /// device (1 channel, 1 chip, 16 blocks, 16 pages, 4096-byte pages).
    pub fn builder() -> GeometryBuilder {
        GeometryBuilder::default()
    }

    /// A small geometry suitable for unit tests: 1x1 chips, 16 blocks of
    /// 16 pages, 4096-byte pages (1 MiB total).
    pub fn tiny() -> Self {
        Self::builder().build()
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Number of chips (ways) attached to each channel.
    pub fn chips_per_channel(&self) -> u32 {
        self.chips_per_channel
    }

    /// Number of erase blocks per chip.
    pub fn blocks_per_chip(&self) -> u32 {
        self.blocks_per_chip
    }

    /// Number of pages in each erase block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Size of a page in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Total number of chips in the device.
    pub fn total_chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// Total number of erase blocks in the device.
    pub fn total_blocks(&self) -> u32 {
        self.total_chips() * self.blocks_per_chip
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() as u64 * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::tiny()
    }
}

/// Builder for [`Geometry`].
///
/// Produced by [`Geometry::builder`]; finished with [`GeometryBuilder::build`].
#[derive(Debug, Clone)]
pub struct GeometryBuilder {
    channels: u32,
    chips_per_channel: u32,
    blocks_per_chip: u32,
    pages_per_block: u32,
    page_size: u32,
}

impl Default for GeometryBuilder {
    fn default() -> Self {
        Self {
            channels: 1,
            chips_per_channel: 1,
            blocks_per_chip: 16,
            pages_per_block: 16,
            page_size: 4096,
        }
    }
}

impl GeometryBuilder {
    /// Sets the number of channels.
    ///
    /// # Panics
    ///
    /// `build` panics if set to zero.
    pub fn channels(&mut self, n: u32) -> &mut Self {
        self.channels = n;
        self
    }

    /// Sets the number of chips (ways) per channel.
    pub fn chips_per_channel(&mut self, n: u32) -> &mut Self {
        self.chips_per_channel = n;
        self
    }

    /// Sets the number of erase blocks per chip.
    pub fn blocks_per_chip(&mut self, n: u32) -> &mut Self {
        self.blocks_per_chip = n;
        self
    }

    /// Sets the number of pages per erase block.
    pub fn pages_per_block(&mut self, n: u32) -> &mut Self {
        self.pages_per_block = n;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_size(&mut self, bytes: u32) -> &mut Self {
        self.page_size = bytes;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if the chip or block count does not
    /// fit a `u32`, or if the capacity in bytes does not fit a `u64`: every
    /// accessor of [`Geometry`] then computes without overflow.
    pub fn build(&self) -> Geometry {
        assert!(self.channels > 0, "geometry must have at least one channel");
        assert!(
            self.chips_per_channel > 0,
            "geometry must have at least one chip per channel"
        );
        assert!(
            self.blocks_per_chip > 0,
            "geometry must have at least one block per chip"
        );
        assert!(
            self.pages_per_block > 0,
            "geometry must have at least one page per block"
        );
        assert!(self.page_size > 0, "page size must be non-zero");
        let chips = self.channels.checked_mul(self.chips_per_channel);
        assert!(
            chips.is_some(),
            "geometry overflows: the chip count must fit a u32"
        );
        let blocks = chips.and_then(|c| c.checked_mul(self.blocks_per_chip));
        assert!(
            blocks.is_some(),
            "geometry overflows: the block count must fit a u32"
        );
        // The page count, a product of two `u32`s, always fits a `u64`.
        let bytes = blocks
            .and_then(|b| u64::from(b).checked_mul(u64::from(self.pages_per_block)))
            .and_then(|pages| pages.checked_mul(u64::from(self.page_size)));
        assert!(
            bytes.is_some(),
            "geometry overflows: the capacity in bytes must fit a u64"
        );
        Geometry {
            channels: self.channels,
            chips_per_channel: self.chips_per_channel,
            blocks_per_chip: self.blocks_per_chip,
            pages_per_block: self.pages_per_block,
            page_size: self.page_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_geometry_dimensions() {
        let g = Geometry::tiny();
        assert_eq!(g.channels(), 1);
        assert_eq!(g.chips_per_channel(), 1);
        assert_eq!(g.total_blocks(), 16);
        assert_eq!(g.total_pages(), 256);
        assert_eq!(g.capacity_bytes(), 256 * 4096);
    }

    #[test]
    fn builder_sets_all_dimensions() {
        let g = Geometry::builder()
            .channels(8)
            .chips_per_channel(8)
            .blocks_per_chip(128)
            .pages_per_block(64)
            .page_size(2048)
            .build();
        assert_eq!(g.total_chips(), 64);
        assert_eq!(g.total_blocks(), 8192);
        assert_eq!(g.total_pages(), 8192 * 64);
        assert_eq!(g.page_size(), 2048);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        Geometry::builder().channels(0).build();
    }

    #[test]
    #[should_panic(expected = "page size must be non-zero")]
    fn zero_page_size_panics() {
        Geometry::builder().page_size(0).build();
    }

    /// Unchecked, 2¹⁶ × 2¹⁶ chips wraps to 0 in release builds, and a
    /// geometry of 0 pages passes every later check.
    #[test]
    #[should_panic(expected = "geometry overflows: the chip count must fit a u32")]
    fn chip_count_overflow_panics() {
        Geometry::builder()
            .channels(1 << 16)
            .chips_per_channel(1 << 16)
            .build();
    }

    #[test]
    #[should_panic(expected = "geometry overflows: the block count must fit a u32")]
    fn block_count_overflow_panics() {
        Geometry::builder()
            .channels(1 << 8)
            .chips_per_channel(1 << 8)
            .blocks_per_chip(1 << 16)
            .build();
    }

    #[test]
    #[should_panic(expected = "geometry overflows: the capacity in bytes must fit a u64")]
    fn capacity_overflow_panics() {
        Geometry::builder()
            .blocks_per_chip(u32::MAX)
            .pages_per_block(u32::MAX)
            .page_size(u32::MAX)
            .build();
    }

    #[test]
    fn default_equals_tiny() {
        assert_eq!(Geometry::default(), Geometry::tiny());
    }

    #[test]
    fn capacity_does_not_overflow_for_large_devices() {
        // A 512 GB device comparable to the paper's prototype card.
        let g = Geometry::builder()
            .channels(8)
            .chips_per_channel(8)
            .blocks_per_chip(2048)
            .pages_per_block(256)
            .page_size(16384)
            .build();
        assert_eq!(g.capacity_bytes(), 512 * 1024 * 1024 * 1024);
    }
}
