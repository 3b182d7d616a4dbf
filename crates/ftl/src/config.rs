//! FTL configuration.

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
    incremental_gc: bool,
    gc_low_water_extra: u32,
    gc_step_pages: u32,
    write_pacing_pages_per_sec: u64,
    write_pacing_burst: u64,
}

impl FtlConfig {
    /// Configuration with default NAND timings, 7 % over-provisioning,
    /// a 2-block GC reserve and the paper's 10 s protection window.
    pub fn new(geometry: Geometry) -> Self {
        Self::with_nand(NandConfig::new(geometry))
    }

    /// Configuration over an explicit NAND configuration (custom latencies,
    /// endurance, fault plans are installed on the device afterwards).
    pub fn with_nand(nand: NandConfig) -> Self {
        FtlConfig {
            nand,
            over_provisioning: 0.07,
            protection_window: Some(SimTime::from_secs(10)),
            record_gc_victims: false,
            incremental_gc: false,
            gc_low_water_extra: 2,
            gc_step_pages: 4,
            write_pacing_pages_per_sec: 0,
            write_pacing_burst: 32,
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

    /// Switches the garbage collector's policy from blocking (collect only
    /// once the pool sinks below the reserve, then drain stop-the-world) to
    /// incremental: foreground writes pump the same resumable `GcJob` in
    /// small budgeted steps once the free pool sinks below the low
    /// watermark (reserve + [`gc_low_water_extra`]), with an urgency ramp
    /// and an unbudgeted stop-the-world fallback at reserve exhaustion. The
    /// flag moves only the trigger and the budget; off by default.
    ///
    /// [`gc_low_water_extra`]: Self::gc_low_water_extra
    pub fn incremental_gc(mut self, enabled: bool) -> Self {
        self.incremental_gc = enabled;
        self
    }

    /// Whether the incremental GC policy is selected.
    pub fn incremental_gc_enabled(&self) -> bool {
        self.incremental_gc
    }

    /// Sets how many blocks *above* the GC reserve the incremental policy
    /// starts working in the background (the low watermark is
    /// `gc_reserve + extra`). `0` makes incremental GC trigger exactly
    /// where the blocking policy does — the degenerate configuration the
    /// differential oracle pins. Default 2.
    pub fn gc_low_water_extra(mut self, extra: u32) -> Self {
        self.gc_low_water_extra = extra;
        self
    }

    /// Blocks above the GC reserve at which incremental GC engages.
    pub fn gc_low_water_extra_blocks(&self) -> u32 {
        self.gc_low_water_extra
    }

    /// Sets the base page budget of one incremental GC step (default 4).
    /// The effective budget per foreground write grows with urgency as the
    /// free pool sinks below the low watermark.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn gc_step_pages(mut self, pages: u32) -> Self {
        assert!(pages >= 1, "gc step budget must be at least one page");
        self.gc_step_pages = pages;
        self
    }

    /// The base incremental GC step budget, in pages.
    pub fn gc_step_budget_pages(&self) -> u32 {
        self.gc_step_pages
    }

    /// Enables erase-suspend/resume in the NAND scheduler: a read
    /// arriving while an erase is mid-pulse on its die preempts it
    /// (never an erase of the read's own block) at a fixed resume penalty.
    /// Timing only; off by default.
    pub fn erase_suspend(mut self, enabled: bool) -> Self {
        self.nand = self.nand.erase_suspend(enabled);
        self
    }

    /// Enables write pacing: the device-level write path drains a token
    /// bucket refilled at `pages_per_sec` (scaled down as GC debt rises)
    /// and stalls foreground programs once the bucket runs dry, smoothing
    /// the latency tail instead of slamming into the reserve wall.
    /// `0` (the default) disables pacing.
    pub fn write_pacing(mut self, pages_per_sec: u64) -> Self {
        self.write_pacing_pages_per_sec = pages_per_sec;
        self
    }

    /// The pacing refill rate in pages per second (`0` = disabled).
    pub fn write_pacing_rate(&self) -> u64 {
        self.write_pacing_pages_per_sec
    }

    /// Sets the pacing token-bucket capacity in pages (default 32): bursts
    /// up to this size pass unthrottled even at full debt.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn write_pacing_burst(mut self, pages: u64) -> Self {
        assert!(pages >= 1, "pacing burst must be at least one page");
        self.write_pacing_burst = pages;
        self
    }

    /// The pacing token-bucket capacity, in pages.
    pub fn write_pacing_burst_pages(&self) -> u64 {
        self.write_pacing_burst
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

    #[test]
    fn incremental_gc_knobs_default_off_and_are_settable() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.incremental_gc_enabled());
        assert_eq!(cfg.gc_low_water_extra_blocks(), 2);
        assert_eq!(cfg.gc_step_budget_pages(), 4);
        let cfg = cfg
            .incremental_gc(true)
            .gc_low_water_extra(0)
            .gc_step_pages(16);
        assert!(cfg.incremental_gc_enabled());
        assert_eq!(cfg.gc_low_water_extra_blocks(), 0);
        assert_eq!(cfg.gc_step_budget_pages(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_gc_step_budget_panics() {
        FtlConfig::new(Geometry::tiny()).gc_step_pages(0);
    }

    #[test]
    fn erase_suspend_passes_through_to_nand() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.nand().erase_suspend_enabled());
        let cfg = cfg.erase_suspend(true);
        assert!(cfg.nand().erase_suspend_enabled());
    }

    #[test]
    fn write_pacing_knobs() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.write_pacing_rate(), 0);
        assert_eq!(cfg.write_pacing_burst_pages(), 32);
        let cfg = cfg.write_pacing(10_000).write_pacing_burst(8);
        assert_eq!(cfg.write_pacing_rate(), 10_000);
        assert_eq!(cfg.write_pacing_burst_pages(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pacing_burst_panics() {
        FtlConfig::new(Geometry::tiny()).write_pacing_burst(0);
    }
}
