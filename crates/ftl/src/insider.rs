//! The SSD-Insider FTL: delayed deletion and instant rollback. One struct,
//! whose code the child modules split along its seams (see the crate doc).

mod alloc;
mod gc;
mod mount;
mod victim;

use crate::config::FtlConfig;
use crate::mapping::{MappingTable, ReverseMap};
use crate::recovery_queue::RecoveryQueue;
use crate::traits::Ftl;
use crate::{FtlError, FtlStats, GcVictim, Result};
use bytes::Bytes;
use gc::GcJob;
use insider_nand::{
    LatencyHistogram, LatencySnapshot, Lba, NandDevice, NandStats, PageState, Pba, Ppa, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use victim::Blocks;

/// Outcome of a [`InsiderFtl::rollback`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollbackReport {
    /// Backup entries applied (mapping-table updates performed).
    pub restored: u64,
    /// Entries older than the protection window, ignored per the paper's
    /// recovery process ("safe" data).
    pub ignored: u64,
    /// Distinct logical pages whose mapping changed.
    pub lbas_touched: u64,
    /// The instant whose state the drive was restored to (one window
    /// before the detection anchor).
    pub restored_to: SimTime,
}

/// What the layer above holds the drive to while an incident is open, set
/// with [`InsiderFtl::set_hold`]. The default holds nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hold {
    /// Writes and trims fail with [`FtlError::ReadOnly`].
    pub read_only: bool,
    /// Retirement is paused, and rollback and remount measure the window
    /// back from this instant (the alarm), not the call time.
    pub frozen_at: Option<SimTime>,
}

/// The SSD-Insider FTL (paper §III-C), and with retention turned off the
/// paper's conventional baseline.
///
/// A page-level mapping FTL with greedy garbage collection whose retention
/// is a value: [`FtlConfig::protection_window`]. With a window (10 s by
/// default), superseding a mapping pushes a backup entry into the
/// [`RecoveryQueue`], which *protects* the old physical page: garbage
/// collection migrates protected pages instead of discarding them, and
/// [`rollback`](InsiderFtl::rollback) can restore the mapping table to its
/// state one protection window earlier by pointer updates alone. Backup
/// entries retire automatically once they age past the window, bounding
/// both the queue's DRAM footprint and the extra GC cost — the paper
/// measures ~0 % extra copies in the average case and 22 % in the worst
/// case (Fig. 9).
///
/// With `protection_window(None)` the drive retains nothing ("Conventional
/// SSD" in Fig. 9): overwritten pages are reclaimable at once, the queue
/// stays empty and `rollback` fails with [`FtlError::NoRetention`].
///
/// # Example
///
/// ```rust
/// use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
/// use insider_nand::{Geometry, Lba, SimTime};
/// use bytes::Bytes;
///
/// # fn main() -> Result<(), FtlError> {
/// let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
/// ftl.write(Lba::new(0), Bytes::from_static(b"hello"), SimTime::ZERO)?;
/// assert_eq!(ftl.read(Lba::new(0), SimTime::ZERO)?.unwrap().as_ref(), b"hello");
/// assert!(ftl.recovery_queue().is_empty());
/// assert_eq!(ftl.rollback(SimTime::ZERO), Err(FtlError::NoRetention));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InsiderFtl {
    device: NandDevice,
    /// LBA → PPA, 4 bytes per logical page.
    mapping: MappingTable,
    /// Reverse map PPA → LBA, 4 bytes per physical page, standing in for
    /// the out-of-band (OOB) metadata real firmware writes next to each
    /// page. For a *protected invalid* page it names the logical page whose
    /// old version it holds.
    rmap: ReverseMap,
    /// Free-block pools, one per chip (die): allocation stripes pages
    /// across dies (one active block per die, round-robin), which is what
    /// lets a multi-channel/multi-way controller overlap NAND operations —
    /// the source of the paper's card's bandwidth.
    free: Vec<VecDeque<Pba>>,
    /// Cached sum of the per-chip free-pool lengths, so the GC thresholds
    /// on the write hot path cost O(1) instead of O(chips).
    free_count: usize,
    /// One active (partially programmed) block per chip.
    active: Vec<Option<Pba>>,
    /// Round-robin chip cursor for page allocation.
    next_chip: usize,
    /// Per-block flags and counts, and the victim index built from them.
    blocks: Blocks,
    /// Victim log, populated when `FtlConfig::record_gc_victims` is on.
    victim_log: Vec<GcVictim>,
    /// OOB records decoded by the most recent mount scan (zero before any
    /// mount) — the size of the structure an on-device implementation
    /// would stream through during power-on recovery.
    mount_scan_entries: u64,
    /// The collector's one job, `None` at quiescence; `Some` between
    /// writes only when a NAND error stopped it mid-block.
    /// Dropped — not persisted — across a power cut; the half-migrated
    /// victim is simply re-selectable.
    gc_job: Option<GcJob>,
    /// Per-GC-entry foreground pause histogram: the growth of the device's
    /// parallel makespan across each GC drain — the device-time stall a
    /// collocated host command would observe.
    gc_pause_hist: LatencyHistogram,
    stats: FtlStats,
    config: FtlConfig,
    /// Backup entries protecting superseded pages; always empty on a
    /// drive that [retains](Self::retains) nothing.
    queue: RecoveryQueue,
    hold: Hold,
}

impl InsiderFtl {
    /// Creates an empty drive with the given configuration.
    pub fn new(config: FtlConfig) -> Self {
        let g = *config.geometry();
        let chips = g.total_chips() as usize;
        let mut free: Vec<VecDeque<Pba>> = vec![VecDeque::new(); chips];
        for raw in 0..g.total_blocks() {
            free[(raw / g.blocks_per_chip()) as usize].push_back(Pba::new(raw));
        }
        let mut blocks = Blocks::new(&g);
        blocks.free.fill(true);
        InsiderFtl {
            device: NandDevice::new(config.nand().clone()),
            mapping: MappingTable::new(config.logical_pages()),
            rmap: ReverseMap::new(g.total_pages()),
            free,
            free_count: g.total_blocks() as usize,
            active: vec![None; chips],
            next_chip: 0,
            blocks,
            victim_log: Vec::new(),
            mount_scan_entries: 0,
            gc_job: None,
            gc_pause_hist: LatencyHistogram::new(),
            stats: FtlStats::new(),
            config,
            queue: RecoveryQueue::new(),
            hold: Hold::default(),
        }
    }

    /// Whether superseded pages are retained: protected, with a backup
    /// entry, until they age past the protection window. The one place
    /// the drive decides it — `false` makes the conventional baseline, on
    /// which an overwritten page is reclaimable at once.
    fn retains(&self) -> bool {
        self.config.window().is_some()
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The recovery queue (inspection only); always empty on a drive
    /// without a protection window.
    pub fn recovery_queue(&self) -> &RecoveryQueue {
        &self.queue
    }

    /// Number of blocks currently in the free pool.
    pub fn free_blocks(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.free.iter().map(VecDeque::len).sum::<usize>(),
            "free-count cache diverged from the pools"
        );
        self.free_count
    }

    /// Installs a deterministic NAND fault plan; scheduled operations fail
    /// with [`NandError::InjectedFault`](insider_nand::NandError::InjectedFault).
    pub fn set_fault_plan(&mut self, plan: insider_nand::FaultPlan) {
        self.device.set_fault_plan(plan);
    }

    /// NAND busy time as `(serial sum, per-channel-parallel makespan)` —
    /// the parallel figure is the device-level time a multi-channel
    /// controller would take.
    pub fn nand_busy_ns(&self) -> (u64, u64) {
        (self.device.stats().busy_ns, self.device.parallel_busy_ns())
    }

    /// Per-chip and per-channel-bus busy vectors, for phase-delta analyses.
    pub fn nand_busy_detail(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.device.chip_busy_ns().to_vec(),
            self.device.bus_busy_ns().to_vec(),
        )
    }

    /// Reads promoted past queued mutations by the out-of-order scheduler.
    pub fn reads_promoted(&self) -> u64 {
        self.device.reads_promoted()
    }

    /// Drains and returns the captured command log (empty unless configured
    /// with `FtlConfig::capture_commands(true)`).
    pub fn take_captured_commands(&mut self) -> Vec<insider_nand::CmdRecord> {
        self.device.take_captured_commands()
    }

    /// Read-only view of the raw NAND device, for physical-state oracles
    /// (page states, OOB records, scheduler makespans).
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// The range check every extent operation applies, for a layer above to
    /// refuse a request before acting on it.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] naming the first page past the end.
    pub fn check_extent(&self, lba: Lba, len: u32) -> Result<()> {
        let logical = self.mapping.len();
        let end = lba.index().checked_add(len as u64);
        match end {
            _ if len == 0 => Ok(()),
            Some(end) if end <= logical => Ok(()),
            _ => Err(FtlError::LbaOutOfRange {
                lba: Lba::new(lba.index().max(logical)),
                logical_pages: logical,
            }),
        }
    }

    /// What the drive is currently held to.
    pub fn hold(&self) -> Hold {
        self.hold
    }

    /// Replaces the hold. The detection layer derives it from its lifecycle
    /// on every transition — an alarm freezes retirement, so pre-attack
    /// versions are "never removed until the detection algorithm confirms
    /// the new versions are safe"; the FTL never changes it on its own.
    pub fn set_hold(&mut self, hold: Hold) {
        self.hold = hold;
    }

    /// The instant the protection window is measured back from.
    fn anchor(&self, now: SimTime) -> SimTime {
        self.hold.frozen_at.map_or(now, |f| f.min(now))
    }

    /// The stamp a host write or trim at `now` carries: `now`, raised to
    /// the newest backup entry's stamp if it is earlier. Retirement pops
    /// the queue front in stamp order, and the mount tells a rolled-back
    /// version by its stamp (DESIGN §9); both hold only while stamps never
    /// go backwards, whatever time the caller passes.
    fn host_stamp(&self, now: SimTime) -> SimTime {
        self.queue
            .iter_newest_first()
            .next()
            .map_or(now, |newest| newest.stamp.max(now))
    }

    /// Retires backup entries older than the protection window as of `now`.
    /// Called implicitly by every write; exposed so idle periods can also
    /// release protected space. A no-op while retirement is frozen or
    /// without a protection window.
    ///
    /// Each retired entry's page is released as the queue hands it over,
    /// with nothing collected in between: the closure borrows only the
    /// per-block table, beside the queue. One retirement is typically the
    /// pre-images of one host write, which the allocator striped across
    /// dies, so a block rarely loses two protections in one batch and
    /// re-filing per page costs no more than batching per block.
    pub fn tick(&mut self, now: SimTime) {
        let (Some(window), None) = (self.config.window(), self.hold.frozen_at) else {
            return;
        };
        let g = *self.config.geometry();
        self.queue
            .retire_before(now.saturating_sub(window), |entry| {
                if let Some(old) = entry.old {
                    self.blocks.unprotect(old.block(&g).index());
                }
            });
    }

    /// Rolls the mapping table back to its state one protection window before
    /// `now`, or before the freeze instant if that is earlier (paper Fig. 5).
    ///
    /// Backup entries are scanned newest-to-oldest; entries younger than the
    /// window are applied (current version invalidated, old version revived),
    /// older entries are ignored as already safe. The queue is emptied
    /// first, so a failed rollback cannot be retried. No page data is
    /// copied — recovery cost is proportional to the number of mapping
    /// updates, which is why the paper reports < 1 s. The [`Hold`] is left
    /// to the caller.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoRetention`], changing nothing, on a drive without a
    /// protection window. Otherwise propagates NAND bookkeeping failures
    /// (out-of-range addresses), which indicate an internal inconsistency
    /// rather than a user error.
    pub fn rollback(&mut self, now: SimTime) -> Result<RollbackReport> {
        let window = self.config.window().ok_or(FtlError::NoRetention)?;
        // A user who takes minutes to confirm still gets the 10 s before the
        // alarm undone, which is exactly what the freeze preserved.
        let cutoff = self.anchor(now).saturating_sub(window);
        let mut report = RollbackReport {
            restored_to: cutoff,
            ..RollbackReport::default()
        };
        let mut touched = std::collections::HashSet::new();

        // Drain the queue and release every protection *before* rewinding:
        // restore_mapping revalidates old pages (decrementing per-block
        // invalid counts), and the victim index insists protected ≤ invalid
        // at every step.
        let entries = self.queue.take_all();
        self.blocks.clear_protected();
        for entry in entries.iter().rev() {
            if entry.stamp < cutoff {
                report.ignored += 1;
                continue;
            }
            self.restore_mapping(entry.lba, entry.old)?;
            touched.insert(entry.lba);
            report.restored += 1;
        }
        report.lbas_touched = touched.len() as u64;
        Ok(report)
    }

    /// Restores a mapping entry to `old` (rollback step), invalidating the
    /// current version and reviving the old one.
    fn restore_mapping(&mut self, lba: Lba, old: Option<Ppa>) -> Result<()> {
        let current = self.mapping.set(lba, old);
        if let Some(cur) = current {
            self.supersede(cur, false)?;
        }
        let Some(ppa) = old else {
            return Ok(());
        };
        if self.device.page_state(ppa)? == PageState::Invalid {
            self.device.revalidate(ppa)?;
            let raw = ppa.block(self.config.geometry()).index();
            self.blocks.invalid[raw as usize] -= 1;
            self.blocks.refresh(raw);
        }
        debug_assert_eq!(
            self.rmap.get(ppa),
            Some(lba),
            "restored page must reverse-map to its logical page"
        );
        Ok(())
    }

    /// Drains the device command scheduler: every queued command is
    /// finalized and folded into the latency histograms. Call before
    /// reading a [`latency_snapshot`](Self::latency_snapshot) so in-flight
    /// tails are not silently dropped.
    pub fn sync(&mut self) {
        self.device.sync();
    }

    /// Per-command completion-latency percentiles from the device command
    /// scheduler.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.device.latency_snapshot()
    }

    /// Latency percentiles over *host-issued* commands only — GC-internal
    /// reads, programs and erases excluded.
    pub fn host_latency_snapshot(&self) -> LatencySnapshot {
        self.device.host_latency_snapshot()
    }

    /// FTL-level statistics (host ops, GC cost).
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// NAND-level statistics (device ops, simulated busy time).
    pub fn nand_stats(&self) -> &NandStats {
        self.device.stats()
    }

    /// Number of logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        self.mapping.len()
    }

    /// Fraction of logical pages currently mapped.
    pub fn utilization(&self) -> f64 {
        self.mapping.utilization()
    }

    /// Per-block wear summary: `(min, max, mean)` erase counts.
    pub fn wear_summary(&self) -> (u32, u32, f64) {
        self.device.wear_summary()
    }

    /// The recorded GC victim log, in selection order. Empty unless the FTL
    /// was configured with [`FtlConfig::record_gc_victims`]; the
    /// differential GC tests replay identical workloads under two GC
    /// configurations (or against a recorded run) and require these logs to
    /// match exactly.
    pub fn gc_victims(&self) -> &[GcVictim] {
        &self.victim_log
    }
}

impl Ftl for InsiderFtl {
    fn read_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<Vec<Option<Bytes>>> {
        self.device.set_now(now);
        self.check_extent(lba, len)?;
        let out = self.read_extent_mapped(lba, len)?;
        self.stats.host_reads += len as u64;
        Ok(out)
    }

    fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        if self.hold.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.device.set_now(now);
        self.check_extent(lba, data.len() as u32)?;
        self.tick(now);
        self.gc_before_write(data.len() as u64)?;
        // Mapping, invalidation and the vectorized queue append are
        // finalized page by page, so a mid-batch NAND failure leaves the
        // programmed prefix fully recoverable.
        self.program_extent_mapped(lba, data, self.host_stamp(now))
    }

    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if self.hold.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.device.set_now(now);
        self.check_extent(lba, len)?;
        self.tick(now);
        self.unmap_extent(lba, len, self.host_stamp(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    /// A drive with the default (10 s) protection window; 16 blocks of
    /// 16 pages, ~1 MiB, 2-block reserve.
    pub(super) fn ftl() -> InsiderFtl {
        InsiderFtl::new(FtlConfig::new(Geometry::tiny()))
    }

    /// Both retention values: the paper's window and none (the
    /// conventional baseline).
    pub(super) const RETENTIONS: [Option<SimTime>; 2] = [Some(SimTime::from_secs(10)), None];

    pub(super) fn drive(window: Option<SimTime>) -> InsiderFtl {
        InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(window))
    }

    pub(super) fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A one-page write stamped at time zero, without the retirement tick
    /// and the GC check: the callers place those themselves.
    pub(super) fn put(f: &mut InsiderFtl, lba: Lba, data: Bytes) {
        f.program_extent_mapped(lba, &[data], SimTime::ZERO)
            .unwrap();
    }

    pub(super) fn get(f: &mut InsiderFtl, lba: Lba) -> Option<Bytes> {
        f.read_extent_mapped(lba, 1).unwrap().pop().flatten()
    }

    /// Mixed hot/cold churn that forces GC with live pages on every victim.
    pub(super) fn churn(f: &mut InsiderFtl, rounds: u64) {
        for i in 0..rounds {
            f.gc_before_write(1).unwrap();
            let (lba, data) = if i % 16 == 0 {
                (Lba::new(100 + i / 16), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            put(f, lba, data);
        }
    }

    /// Hot/cold churn with enough cold (never rewritten) pages per block
    /// that victims cost real migrations.
    pub(super) fn churn_mixed(f: &mut InsiderFtl, rounds: u64) {
        for i in 0..rounds {
            f.gc_before_write(1).unwrap();
            let (lba, data) = if i.is_multiple_of(2) {
                (Lba::new(100 + i / 2 % 100), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            put(f, lba, data);
        }
    }

    const READ_ONLY: Hold = Hold {
        read_only: true,
        frozen_at: None,
    };

    fn frozen_at(t: SimTime) -> Hold {
        Hold {
            read_only: false,
            frozen_at: Some(t),
        }
    }

    #[test]
    fn overwrite_pushes_backup_entry() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(1))
            .unwrap();
        assert_eq!(f.recovery_queue().len(), 2); // first write + overwrite
        assert_eq!(f.recovery_queue().protected_count(), 1);
    }

    #[test]
    fn rollback_restores_overwritten_data() {
        let mut f = ftl();
        // The file exists before the window; the attack happens inside it.
        f.write(Lba::new(0), Bytes::from_static(b"plain"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"cipher"), secs(15))
            .unwrap();
        let report = f.rollback(secs(16)).unwrap();
        assert_eq!(report.restored, 1);
        // The creation entry was already retired by the write at t=15.
        assert_eq!(report.ignored, 0);
        assert_eq!(
            f.read(Lba::new(0), secs(16)).unwrap().unwrap().as_ref(),
            b"plain"
        );
    }

    #[test]
    fn rollback_restores_oldest_version_within_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v0"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(12))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(14))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v3"), secs(15))
            .unwrap();
        // Window is 10 s; detection at t=16 → roll back to state at t=6: "v0".
        f.rollback(secs(16)).unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(16)).unwrap().unwrap().as_ref(),
            b"v0"
        );
    }

    #[test]
    fn rollback_unmaps_pages_created_within_window() {
        let mut f = ftl();
        f.write(Lba::new(7), Bytes::from_static(b"dropped"), secs(5))
            .unwrap();
        f.rollback(secs(6)).unwrap();
        assert_eq!(f.read(Lba::new(7), secs(6)).unwrap(), None);
    }

    #[test]
    fn rollback_ignores_entries_older_than_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"old"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"newer"), secs(1))
            .unwrap();
        // Detection at t=20: both entries are older than t-10 and stay.
        let report = f.rollback(secs(20)).unwrap();
        assert_eq!(report.restored, 0);
        assert_eq!(report.ignored, 2);
        assert_eq!(
            f.read(Lba::new(0), secs(20)).unwrap().unwrap().as_ref(),
            b"newer"
        );
    }

    #[test]
    fn rollback_restores_trimmed_pages() {
        let mut f = ftl();
        f.write(Lba::new(3), Bytes::from_static(b"doc"), secs(0))
            .unwrap();
        f.tick(secs(20)); // retire the creation entry
        f.trim(Lba::new(3), secs(21)).unwrap();
        assert_eq!(f.read(Lba::new(3), secs(21)).unwrap(), None);
        f.rollback(secs(22)).unwrap();
        assert_eq!(
            f.read(Lba::new(3), secs(22)).unwrap().unwrap().as_ref(),
            b"doc"
        );
    }

    #[test]
    fn read_only_blocks_writes_and_trims() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"x"), secs(0))
            .unwrap();
        f.set_hold(READ_ONLY);
        assert_eq!(
            f.write(Lba::new(0), Bytes::from_static(b"y"), secs(1)),
            Err(FtlError::ReadOnly)
        );
        assert_eq!(f.trim(Lba::new(0), secs(1)), Err(FtlError::ReadOnly));
        // Reads still work.
        assert!(f.read(Lba::new(0), secs(1)).unwrap().is_some());
        f.set_hold(Hold::default());
        f.write(Lba::new(0), Bytes::from_static(b"y"), secs(2))
            .unwrap();
    }

    #[test]
    fn tick_retires_expired_entries() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"b"), secs(1))
            .unwrap();
        assert_eq!(f.recovery_queue().len(), 2);
        f.tick(secs(30));
        assert_eq!(f.recovery_queue().len(), 0);
        assert_eq!(f.recovery_queue().protected_count(), 0);
    }

    #[test]
    fn an_earlier_now_is_stamped_with_the_newest_entry() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(5))
            .unwrap();
        f.write(Lba::new(1), Bytes::from_static(b"b"), secs(3))
            .unwrap();
        f.trim(Lba::new(0), secs(2)).unwrap();
        let stamps: Vec<SimTime> = f.recovery_queue().iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![secs(5); 3]);
        let oob = f.device.oob(f.mapping.get(Lba::new(1)).unwrap()).unwrap();
        assert_eq!(oob.unwrap().stamp, secs(5));
    }

    #[test]
    fn gc_preserves_protected_old_versions() {
        let mut f = ftl();
        // Block 0 (16 pages) ends up as a deliberate mix:
        //   page 0        valid      "precious" (lba 0, written before window)
        //   pages 1..=6   invalid    pre-images from t=0, retired by t=50
        //   pages 7..=14  invalid    pre-images from t=50, still protected
        //   page 15       valid      current version of lba 1
        f.write(Lba::new(0), Bytes::from_static(b"precious"), secs(0))
            .unwrap();
        for i in 0..7 {
            let data = Bytes::copy_from_slice(format!("early{i}").as_bytes());
            f.write(Lba::new(1), data, secs(0)).unwrap();
        }
        for i in 0..8 {
            let data = Bytes::copy_from_slice(format!("late{i}").as_bytes());
            f.write(Lba::new(1), data, secs(50)).unwrap();
        }
        // Churn a third page at t=50 until GC fires. Churn pre-images are
        // all protected, so the only viable victim is block 0.
        let mut churn = 0;
        while f.stats().gc_invocations == 0 {
            let data = Bytes::copy_from_slice(format!("churn{churn}").as_bytes());
            f.write(Lba::new(2), data, secs(50)).unwrap();
            churn += 1;
            assert!(churn < 400, "gc never triggered");
        }
        assert!(
            f.stats().gc_protected_copies > 0,
            "protected pre-images must have been migrated, stats: {}",
            f.stats()
        );
        // The protected old versions survive GC: rollback still works.
        f.rollback(secs(51)).unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(51)).unwrap().unwrap().as_ref(),
            b"precious"
        );
        // lba 1 reverts to its newest pre-window version ("early6").
        assert_eq!(
            f.read(Lba::new(1), secs(51)).unwrap().unwrap().as_ref(),
            b"early6"
        );
    }

    #[test]
    fn insider_gc_copies_at_least_as_many_pages_as_baseline() {
        let run = |insider: bool| -> u64 {
            let cfg = FtlConfig::new(Geometry::tiny());
            let mut f = InsiderFtl::new(if insider {
                cfg
            } else {
                cfg.protection_window(None)
            });
            // Mixed-age overwrite stream: 60 ms per write over 4 hot pages
            // plus 12 cold pages, so victims carry a mix of live, retired
            // and protected pages.
            for i in 0..12u64 {
                f.write(
                    Lba::new(100 + i),
                    Bytes::from_static(b"cold"),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            for i in 0..600u64 {
                let data = Bytes::copy_from_slice(format!("{i}").as_bytes());
                f.write(Lba::new(i % 4), data, SimTime::from_millis(i * 60))
                    .unwrap();
            }
            f.stats().gc_page_copies
        };
        let conventional = run(false);
        let insider = run(true);
        assert!(
            insider >= conventional,
            "insider ({insider}) must not copy fewer pages than conventional ({conventional})"
        );
    }

    #[test]
    fn rollback_report_counts_touched_lbas() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"b"), secs(1))
            .unwrap();
        f.write(Lba::new(1), Bytes::from_static(b"c"), secs(2))
            .unwrap();
        let report = f.rollback(secs(3)).unwrap();
        assert_eq!(report.restored, 3);
        assert_eq!(report.lbas_touched, 2);
    }

    #[test]
    fn frozen_retirement_preserves_rollback_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"plain"), secs(0))
            .unwrap();
        // Attack at t=20; alarm freezes the queue at t=21.
        f.write(Lba::new(0), Bytes::from_static(b"cipher"), secs(20))
            .unwrap();
        f.set_hold(frozen_at(secs(21)));
        // The user dithers: ticks and reads at t=300 must not retire the
        // pre-image, and rollback at t=300 anchors to the alarm.
        f.tick(secs(300));
        assert_eq!(f.recovery_queue().protected_count(), 1);
        let report = f.rollback(secs(300)).unwrap();
        assert_eq!(report.restored_to, secs(11));
        assert_eq!(
            f.read(Lba::new(0), secs(300)).unwrap().unwrap().as_ref(),
            b"plain"
        );
        // Rollback leaves the hold alone; once the caller thaws it, new
        // entries retire normally again.
        assert_eq!(f.hold(), frozen_at(secs(21)));
        f.set_hold(Hold::default());
        f.write(Lba::new(1), Bytes::from_static(b"x"), secs(301))
            .unwrap();
        f.tick(secs(400));
        assert!(f.recovery_queue().is_empty());
    }

    #[test]
    fn thaw_resumes_retirement() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.set_hold(frozen_at(secs(1)));
        f.tick(secs(100));
        assert_eq!(f.recovery_queue().len(), 1, "frozen queue must not drain");
        f.set_hold(Hold::default());
        f.tick(secs(100));
        assert!(f.recovery_queue().is_empty());
    }

    #[test]
    fn extent_write_matches_scalar_queue_and_contents() {
        let mut scalar = ftl();
        let mut extent = ftl();
        let v1: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("a{i}").as_bytes()))
            .collect();
        let v2: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("b{i}").as_bytes()))
            .collect();
        for round in [&v1, &v2] {
            for (i, p) in round.iter().enumerate() {
                scalar
                    .write(Lba::new(i as u64), p.clone(), secs(1))
                    .unwrap();
            }
            extent.write_extent(Lba::new(0), round, secs(1)).unwrap();
        }
        assert_eq!(scalar.recovery_queue().len(), extent.recovery_queue().len());
        assert_eq!(
            scalar.recovery_queue().protected_count(),
            extent.recovery_queue().protected_count()
        );
        assert_eq!(scalar.stats(), extent.stats());
        assert_eq!(
            scalar.read_extent(Lba::new(0), 5, secs(1)).unwrap(),
            extent.read_extent(Lba::new(0), 5, secs(1)).unwrap()
        );
    }

    #[test]
    fn extent_write_rolls_back_like_scalar_writes() {
        let mut f = ftl();
        let plain: Vec<Bytes> = (0..4)
            .map(|i| Bytes::copy_from_slice(format!("plain{i}").as_bytes()))
            .collect();
        let cipher: Vec<Bytes> = (0..4)
            .map(|i| Bytes::copy_from_slice(format!("cipher{i}").as_bytes()))
            .collect();
        f.write_extent(Lba::new(0), &plain, secs(0)).unwrap();
        f.write_extent(Lba::new(0), &cipher, secs(15)).unwrap();
        let report = f.rollback(secs(16)).unwrap();
        assert_eq!(report.restored, 4);
        assert_eq!(report.lbas_touched, 4);
        let back = f.read_extent(Lba::new(0), 4, secs(16)).unwrap();
        for (i, page) in back.into_iter().enumerate() {
            assert_eq!(page.unwrap().as_ref(), format!("plain{i}").as_bytes());
        }
    }

    #[test]
    fn extent_trim_records_only_mapped_pages() {
        let mut f = ftl();
        f.write(Lba::new(1), Bytes::from_static(b"doc"), secs(0))
            .unwrap();
        f.tick(secs(20)); // retire the creation entry
                          // Trim lbas 0..4; only lba 1 was mapped.
        f.trim_extent(Lba::new(0), 4, secs(21)).unwrap();
        assert_eq!(f.recovery_queue().len(), 1);
        assert_eq!(f.stats().host_trims, 4);
        f.rollback(secs(22)).unwrap();
        assert_eq!(
            f.read(Lba::new(1), secs(22)).unwrap().unwrap().as_ref(),
            b"doc"
        );
        assert_eq!(f.read(Lba::new(0), secs(22)).unwrap(), None);
    }

    #[test]
    fn read_only_blocks_extent_ops() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"x"), secs(0))
            .unwrap();
        f.set_hold(READ_ONLY);
        assert_eq!(
            f.write_extent(Lba::new(0), &[Bytes::from_static(b"y")], secs(1)),
            Err(FtlError::ReadOnly)
        );
        assert_eq!(
            f.trim_extent(Lba::new(0), 1, secs(1)),
            Err(FtlError::ReadOnly)
        );
        // Empty extents stay no-ops even when read-only.
        assert_eq!(f.write_extent(Lba::new(0), &[], secs(1)), Ok(()));
        assert!(f.read_extent(Lba::new(0), 1, secs(1)).unwrap()[0].is_some());
    }

    /// The FTL's per-block protected counts are the only ones there are:
    /// after every step of a seeded script of extent writes, trims, idle
    /// retirement, rollbacks and power cuts, with GC migrating protected
    /// pages underneath, they equal a recount of the pages the queue's
    /// entries hold.
    #[test]
    fn protected_counts_match_the_queue_after_every_step() {
        let g = Geometry::builder()
            .channels(2)
            .chips_per_channel(2)
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let mut f = InsiderFtl::new(FtlConfig::new(g));
        // A cold body behind the hot span, so victims carry live and
        // protected pages alike.
        let cold = vec![Bytes::from_static(b"cold"); 250];
        f.write_extent(Lba::new(100), &cold, SimTime::ZERO).unwrap();
        let mut x = 0x5eed_u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut now = secs(1);
        let mut retired_pages = 0;
        for step in 0..2_000u32 {
            now += SimTime::from_millis(100);
            let lba = Lba::new(next(90));
            match next(128) {
                0..=95 => {
                    let pages =
                        vec![Bytes::copy_from_slice(&step.to_le_bytes()); 1 + next(4) as usize];
                    f.write_extent(lba, &pages, now).unwrap();
                }
                96..=117 => f.trim_extent(lba, 1 + next(3) as u32, now).unwrap(),
                118..=125 => {
                    let before = f.queue.protected_count();
                    now += secs(1 + next(8));
                    f.tick(now);
                    retired_pages += before - f.queue.protected_count();
                }
                126 => {
                    f.rollback(now).unwrap();
                }
                _ => f.power_cut(now).unwrap(),
            }
            let mut recount = vec![0u32; g.total_blocks() as usize];
            for old in f.queue.iter().filter_map(|e| e.old) {
                recount[old.block(&g).index() as usize] += 1;
            }
            assert_eq!(f.blocks.protected, recount, "step {step}");
        }
        let stats = f.stats();
        assert!(stats.gc_protected_copies > 0, "{stats}");
        assert!(retired_pages > 0);
        assert!(stats.mounts > 0);
    }

    #[test]
    fn write_after_rollback_starts_fresh_history() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(0))
            .unwrap();
        f.rollback(secs(1)).unwrap();
        assert!(f.recovery_queue().is_empty());
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(2))
            .unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(2)).unwrap().unwrap().as_ref(),
            b"v2"
        );
    }

    #[test]
    fn write_read_round_trip() {
        for window in RETENTIONS {
            let mut f = drive(window);
            f.write(Lba::new(1), Bytes::from_static(b"data"), SimTime::ZERO)
                .unwrap();
            assert_eq!(
                f.read(Lba::new(1), SimTime::ZERO)
                    .unwrap()
                    .unwrap()
                    .as_ref(),
                b"data"
            );
            assert_eq!(f.stats().host_writes, 1);
            assert_eq!(f.stats().host_reads, 1);
        }
    }

    #[test]
    fn unmapped_read_is_none() {
        for window in RETENTIONS {
            assert_eq!(
                drive(window).read(Lba::new(0), SimTime::ZERO).unwrap(),
                None
            );
        }
    }

    #[test]
    fn overwrite_replaces_data() {
        for window in RETENTIONS {
            let mut f = drive(window);
            let lba = Lba::new(2);
            f.write(lba, Bytes::from_static(b"v1"), SimTime::ZERO)
                .unwrap();
            f.write(lba, Bytes::from_static(b"v2"), SimTime::ZERO)
                .unwrap();
            assert_eq!(f.read(lba, SimTime::ZERO).unwrap().unwrap().as_ref(), b"v2");
        }
    }

    #[test]
    fn trim_unmaps() {
        for window in RETENTIONS {
            let mut f = drive(window);
            let lba = Lba::new(2);
            f.write(lba, Bytes::from_static(b"v1"), SimTime::ZERO)
                .unwrap();
            f.trim(lba, SimTime::ZERO).unwrap();
            assert_eq!(f.read(lba, SimTime::ZERO).unwrap(), None);
            assert_eq!(f.stats().host_trims, 1);
        }
    }

    #[test]
    fn sustained_overwrites_trigger_gc_without_data_loss() {
        for window in RETENTIONS {
            let mut f = drive(window);
            // Working set of 8 pages overwritten many times, one round a
            // second so a window's worth of pre-images stays protected;
            // the device has 256 pages.
            for round in 0..200u32 {
                for i in 0..8u64 {
                    let payload = Bytes::copy_from_slice(format!("{round}:{i}").as_bytes());
                    f.write(Lba::new(i), payload, secs(round.into())).unwrap();
                }
            }
            assert!(f.stats().gc_invocations > 0);
            if window.is_none() {
                assert_eq!(f.stats().gc_protected_copies, 0, "baseline never protects");
            }
            for i in 0..8u64 {
                assert_eq!(
                    f.read(Lba::new(i), secs(200)).unwrap().unwrap().as_ref(),
                    format!("199:{i}").as_bytes()
                );
            }
        }
    }

    #[test]
    fn out_of_range_lba_rejected() {
        for window in RETENTIONS {
            let mut f = drive(window);
            let max = f.logical_pages();
            assert!(f
                .write(Lba::new(max), Bytes::from_static(b"x"), SimTime::ZERO)
                .is_err());
            assert!(f.read(Lba::new(max), SimTime::ZERO).is_err());
            assert!(f.trim(Lba::new(max), SimTime::ZERO).is_err());
        }
    }

    #[test]
    fn extent_ops_match_scalar_decomposition() {
        for window in RETENTIONS {
            let mut scalar = drive(window);
            let mut extent = drive(window);
            let payloads: Vec<Bytes> = (0..6)
                .map(|i| Bytes::copy_from_slice(format!("pg{i}").as_bytes()))
                .collect();
            for (i, p) in payloads.iter().enumerate() {
                scalar
                    .write(Lba::new(3 + i as u64), p.clone(), SimTime::ZERO)
                    .unwrap();
            }
            extent
                .write_extent(Lba::new(3), &payloads, SimTime::ZERO)
                .unwrap();
            let scalar_read: Vec<Option<Bytes>> = (0..8)
                .map(|i| scalar.read(Lba::new(2 + i), SimTime::ZERO).unwrap())
                .collect();
            let extent_read = extent.read_extent(Lba::new(2), 8, SimTime::ZERO).unwrap();
            assert_eq!(scalar_read, extent_read);
            assert_eq!(scalar.stats(), extent.stats());
            assert_eq!(scalar.nand_stats(), extent.nand_stats());

            for i in 0..4u64 {
                scalar.trim(Lba::new(3 + i), SimTime::ZERO).unwrap();
            }
            extent.trim_extent(Lba::new(3), 4, SimTime::ZERO).unwrap();
            assert_eq!(scalar.stats(), extent.stats());
            assert_eq!(scalar.recovery_queue().len(), extent.recovery_queue().len());
            assert_eq!(
                extent.read_extent(Lba::new(3), 4, SimTime::ZERO).unwrap(),
                vec![None; 4]
            );
        }
    }

    #[test]
    fn extent_bounds_checked_once_up_front() {
        for window in RETENTIONS {
            let mut f = drive(window);
            let max = f.logical_pages();
            let err = f.write_extent(
                Lba::new(max - 1),
                &[Bytes::from_static(b"a"), Bytes::from_static(b"b")],
                SimTime::ZERO,
            );
            assert!(err.is_err());
            assert_eq!(
                f.stats().host_writes,
                0,
                "nothing applied on a straddling extent"
            );
            assert_eq!(
                f.read(Lba::new(max - 1), SimTime::ZERO).unwrap(),
                None,
                "in-range prefix not written either"
            );
            assert!(f.read_extent(Lba::new(max - 1), 2, SimTime::ZERO).is_err());
            assert!(f.trim_extent(Lba::new(max - 1), 2, SimTime::ZERO).is_err());
        }
    }

    #[test]
    fn empty_extents_are_no_ops() {
        for window in RETENTIONS {
            let mut f = drive(window);
            f.write_extent(Lba::new(0), &[], SimTime::ZERO).unwrap();
            f.trim_extent(Lba::new(0), 0, SimTime::ZERO).unwrap();
            assert!(f
                .read_extent(Lba::new(0), 0, SimTime::ZERO)
                .unwrap()
                .is_empty());
            assert_eq!(
                f.stats().host_writes + f.stats().host_trims + f.stats().host_reads,
                0
            );
            assert!(f.recovery_queue().is_empty());
        }
    }

    #[test]
    fn utilization_tracks_mapped_pages() {
        for window in RETENTIONS {
            let mut f = drive(window);
            assert_eq!(f.utilization(), 0.0);
            f.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
                .unwrap();
            assert!(f.utilization() > 0.0);
        }
    }

    #[test]
    fn rollback_without_retention_is_refused_and_changes_nothing() {
        let mut f = drive(None);
        f.write(Lba::new(0), Bytes::from_static(b"plain"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"cipher"), secs(15))
            .unwrap();
        f.write(Lba::new(1), Bytes::from_static(b"doc"), secs(15))
            .unwrap();
        f.trim(Lba::new(1), secs(15)).unwrap();
        let stats = *f.stats();
        assert_eq!(f.rollback(secs(16)), Err(FtlError::NoRetention));
        assert_eq!(*f.stats(), stats);
        assert_eq!(
            f.read_extent(Lba::new(0), 2, secs(16)).unwrap(),
            vec![Some(Bytes::from_static(b"cipher")), None]
        );
    }

    /// Without retention nothing is ever queued or protected: overwrite
    /// and trim churn that forces GC leaves the queue empty and migrates
    /// no protected page.
    #[test]
    fn churn_without_retention_protects_nothing() {
        let mut f = drive(None);
        for round in 0..200u64 {
            for i in 0..8u64 {
                let payload = Bytes::copy_from_slice(format!("{round}:{i}").as_bytes());
                f.write(Lba::new(i), payload, SimTime::ZERO).unwrap();
            }
            f.trim_extent(Lba::new(round % 8), 2, SimTime::ZERO)
                .unwrap();
        }
        assert!(f.stats().gc_invocations > 0);
        assert!(f.recovery_queue().is_empty());
        assert_eq!(f.recovery_queue().protected_count(), 0);
        assert_eq!(f.stats().gc_protected_copies, 0);
    }

    #[test]
    fn hold_and_tick_are_harmless_without_retention() {
        let mut f = drive(None);
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.set_hold(frozen_at(secs(1)));
        f.tick(secs(100));
        f.write(Lba::new(0), Bytes::from_static(b"b"), secs(101))
            .unwrap();
        f.tick(secs(200));
        f.set_hold(Hold::default());
        f.tick(secs(300));
        assert!(f.recovery_queue().is_empty());
        assert_eq!(
            f.read(Lba::new(0), secs(300)).unwrap().unwrap().as_ref(),
            b"b"
        );
        f.power_cut(secs(301)).unwrap();
        assert!(f.recovery_queue().is_empty());
        assert_eq!(
            f.read(Lba::new(0), secs(301)).unwrap().unwrap().as_ref(),
            b"b"
        );
    }
}
