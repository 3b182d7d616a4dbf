//! FTL configuration.

use crate::mapping::MAX_PAGES;
use insider_nand::{Geometry, NandConfig, SimTime};

/// Free blocks garbage collection keeps in reserve: a write of `n` pages
/// collects while the pool is below this plus `⌈n / pages_per_block⌉`.
pub const GC_RESERVE_BLOCKS: u32 = 2;

/// Configuration of the one FTL, [`InsiderFtl`](crate::InsiderFtl). Its
/// protection window is the drive's retention policy: `Some(t)` keeps
/// pre-overwrite versions recoverable for `t` (the SSD-Insider drive),
/// `None` keeps nothing (the paper's conventional baseline).
///
/// # Example
///
/// ```rust
/// use insider_ftl::FtlConfig;
/// use insider_nand::{Geometry, SimTime};
///
/// let cfg = FtlConfig::new(Geometry::tiny())
///     .over_provisioning(0.10)
///     .protection_window(SimTime::from_secs(10));
/// assert!(cfg.logical_pages() < Geometry::tiny().total_pages());
/// ```
#[derive(Debug, Clone)]
pub struct FtlConfig {
    nand: NandConfig,
    over_provisioning: f64,
    protection_window: Option<SimTime>,
    record_gc_victims: bool,
}

impl FtlConfig {
    /// Configuration with default NAND timings, 7 % over-provisioning,
    /// a 2-block GC reserve and the paper's 10 s protection window.
    ///
    /// # Panics
    ///
    /// Panics like [`with_nand`](Self::with_nand) on a geometry of 2³²
    /// pages or more.
    pub fn new(geometry: Geometry) -> Self {
        Self::with_nand(NandConfig::new(geometry))
    }

    /// Configuration over an explicit NAND configuration (custom latencies,
    /// endurance, fault plans are installed on the device afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the geometry has 2³² pages or more: the mapping table and
    /// the reverse map hold a page index in 4 bytes. The logical page count
    /// never exceeds the physical one, so this bounds both tables.
    pub fn with_nand(nand: NandConfig) -> Self {
        let pages = nand.geometry().total_pages();
        assert!(
            pages <= MAX_PAGES,
            "{pages} physical pages do not fit the FTL's 4-byte page tables (at most {MAX_PAGES})"
        );
        FtlConfig {
            nand,
            over_provisioning: 0.07,
            protection_window: Some(SimTime::from_secs(10)),
            record_gc_victims: false,
        }
    }

    /// Sets the over-provisioning ratio (fraction of raw capacity hidden
    /// from the host).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= ratio < 1.0`.
    pub fn over_provisioning(mut self, ratio: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&ratio),
            "over-provisioning ratio must be in [0, 1)"
        );
        self.over_provisioning = ratio;
        self
    }

    /// Sets the delayed-deletion protection window (how long pre-overwrite
    /// versions are kept recoverable). The paper uses 10 seconds. `None`
    /// retains nothing: overwritten pages are reclaimable at once and
    /// rollback is refused — the paper's conventional baseline.
    pub fn protection_window(mut self, window: impl Into<Option<SimTime>>) -> Self {
        self.protection_window = window.into();
        self
    }

    /// Records every GC victim in an in-memory log
    /// (see `gc_victims` on the FTLs). Off by default; the differential
    /// GC tests turn it on to compare and pin victim sequences.
    pub fn record_gc_victims(mut self, enabled: bool) -> Self {
        self.record_gc_victims = enabled;
        self
    }

    /// Whether GC victim recording is enabled.
    pub fn gc_victim_recording(&self) -> bool {
        self.record_gc_victims
    }

    /// Records every scheduled NAND command with its issue/complete
    /// timestamps (see `take_captured_commands` on the FTLs). Off by
    /// default; the scheduler-oracle tests turn it on.
    pub fn capture_commands(mut self, enabled: bool) -> Self {
        self.nand = self.nand.capture_commands(enabled);
        self
    }

    /// The NAND configuration.
    pub fn nand(&self) -> &NandConfig {
        &self.nand
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        self.nand.geometry()
    }

    /// The over-provisioning ratio.
    pub fn over_provisioning_ratio(&self) -> f64 {
        self.over_provisioning
    }

    /// The protection window; `None` when the drive retains nothing.
    pub fn window(&self) -> Option<SimTime> {
        self.protection_window
    }

    /// Number of logical pages exported to the host.
    ///
    /// At least one block's worth of pages (plus the GC reserve) is always
    /// held back, even with zero over-provisioning, so GC can make progress.
    pub fn logical_pages(&self) -> u64 {
        let g = self.geometry();
        let total = g.total_pages();
        let op_pages = (total as f64 * self.over_provisioning).ceil() as u64;
        let reserve_pages = (GC_RESERVE_BLOCKS as u64 + 1) * g.pages_per_block() as u64;
        total.saturating_sub(op_pages.max(reserve_pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_pages_respects_over_provisioning() {
        let g = Geometry::builder()
            .blocks_per_chip(100)
            .pages_per_block(10)
            .build(); // 1000 pages
        let cfg = FtlConfig::new(g).over_provisioning(0.10);
        // 10% of 1000 = 100 held back > 3 blocks * 10 pages reserve.
        assert_eq!(cfg.logical_pages(), 900);
    }

    #[test]
    fn reserve_floor_applies_with_tiny_op() {
        let g = Geometry::builder()
            .blocks_per_chip(100)
            .pages_per_block(10)
            .build();
        let cfg = FtlConfig::new(g).over_provisioning(0.0);
        // (2 + 1) blocks * 10 pages held back.
        assert_eq!(cfg.logical_pages(), 970);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn invalid_op_ratio_panics() {
        FtlConfig::new(Geometry::tiny()).over_provisioning(1.0);
    }

    /// A 2³²-page geometry is refused, one page fewer accepted. Only the
    /// config is built: the drive and the NAND model allocate per page.
    #[test]
    #[should_panic(expected = "4-byte page tables")]
    fn geometry_beyond_four_byte_slots_panics() {
        let g = Geometry::builder()
            .blocks_per_chip(1 << 16)
            .pages_per_block(1 << 16)
            .build();
        assert_eq!(g.total_pages(), 1 << 32);
        FtlConfig::new(g);
    }

    #[test]
    fn largest_four_byte_geometry_is_accepted() {
        // 65 537 × 65 535 = 2³² − 1 pages.
        let g = Geometry::builder()
            .blocks_per_chip(65_537)
            .pages_per_block(65_535)
            .build();
        assert_eq!(g.total_pages(), u64::from(u32::MAX));
        FtlConfig::new(g);
    }

    #[test]
    fn default_window_is_ten_seconds() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.window(), Some(SimTime::from_secs(10)));
        assert_eq!(cfg.protection_window(None).window(), None);
    }

    #[test]
    fn victim_recording_defaults_off() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.gc_victim_recording());
        assert!(cfg.record_gc_victims(true).gc_victim_recording());
    }

    #[test]
    fn scheduler_and_copy_knobs_pass_through() {
        use crate::{Ftl, InsiderFtl};
        use bytes::Bytes;
        use insider_nand::Lba;
        for capture in [false, true] {
            let mut ftl =
                InsiderFtl::new(FtlConfig::new(Geometry::tiny()).capture_commands(capture));
            ftl.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
                .unwrap();
            assert_eq!(!ftl.take_captured_commands().is_empty(), capture);
        }
    }
}
