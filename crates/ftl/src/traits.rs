//! The `Ftl` trait: the host-facing block interface of the FTL and of the
//! device built on it.

use crate::{FtlStats, GcVictim, Result};
use bytes::Bytes;
use insider_nand::{LatencySnapshot, Lba, NandStats, SimTime};

/// Host-facing interface of a flash translation layer.
///
/// [`InsiderFtl`](crate::InsiderFtl) implements this under either retention
/// value, and so does the monitored device built on it, so experiments can
/// drive the bare FTL or the whole device behind `&mut dyn Ftl`.
///
/// An implementor supplies the three extent operations — one bounds check
/// and one mapping-table pass per request; a write is one grouped NAND
/// submit, a read one NAND read per mapped page in the same pass.
/// [`read`](Ftl::read), [`write`](Ftl::write) and [`trim`](Ftl::trim) are
/// provided one-page wrappers over them, so a page written through either
/// spelling takes the same path and leaves the same statistics.
///
/// Each operation carries the simulated time `now`, which a drive with a
/// protection window uses to stamp backup entries and retire expired ones.
pub trait Ftl {
    /// Reads `len` consecutive logical pages starting at `lba`, in order;
    /// unmapped pages yield `None`. A zero-length extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if any page of the extent is out of range or a NAND read fails.
    fn read_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<Vec<Option<Bytes>>>;

    /// Writes `data.len()` consecutive logical pages starting at `lba`,
    /// `data[i]` landing at `lba + i`. An empty extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the extent exceeds the logical range, the drive is
    /// read-only, any payload exceeds the page size, or space is exhausted.
    fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> Result<()>;

    /// Unmaps `len` consecutive logical pages starting at `lba`. A
    /// zero-length extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the extent exceeds the logical range or the drive is
    /// read-only.
    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()>;

    /// Writes one logical page: [`write_extent`](Ftl::write_extent) with a
    /// one-page extent.
    ///
    /// # Errors
    ///
    /// As [`write_extent`](Ftl::write_extent).
    fn write(&mut self, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        self.write_extent(lba, std::slice::from_ref(&data), now)
    }

    /// Reads one logical page, `None` if it is unmapped:
    /// [`read_extent`](Ftl::read_extent) with `len = 1`.
    ///
    /// # Errors
    ///
    /// As [`read_extent`](Ftl::read_extent).
    fn read(&mut self, lba: Lba, now: SimTime) -> Result<Option<Bytes>> {
        self.read_extent(lba, 1, now)
            .map(|mut pages| pages.pop().flatten())
    }

    /// Unmaps one logical page: [`trim_extent`](Ftl::trim_extent) with
    /// `len = 1`.
    ///
    /// # Errors
    ///
    /// As [`trim_extent`](Ftl::trim_extent).
    fn trim(&mut self, lba: Lba, now: SimTime) -> Result<()> {
        self.trim_extent(lba, 1, now)
    }

    /// Simulates a sudden power loss followed by a power-on mount.
    ///
    /// Every DRAM structure — the mapping table, per-block bookkeeping, the
    /// GC victim index and (with a protection window) the recovery queue —
    /// is dropped and rebuilt from the per-page OOB records on flash. `now`
    /// is the power-up time, which anchors the rebuilt protection window.
    ///
    /// Acknowledged writes (those whose program completed before the cut)
    /// survive; an operation interrupted by the cut is cleanly absent.
    ///
    /// # Errors
    ///
    /// Fails only on internal inconsistencies surfaced by the OOB scan.
    fn power_cut(&mut self, now: SimTime) -> Result<()>;

    /// Drains the device command scheduler: every queued command is
    /// finalized and folded into the latency histograms. Call before
    /// reading a [`latency_snapshot`](Ftl::latency_snapshot) so in-flight
    /// tails are not silently dropped.
    fn sync(&mut self);

    /// Per-command completion-latency percentiles from the device command
    /// scheduler. Always `Some` for the implementors of this workspace.
    fn latency_snapshot(&self) -> Option<LatencySnapshot>;

    /// Latency percentiles over *host-issued* commands only — GC-internal
    /// reads, programs and erases excluded. Always `Some` for the
    /// implementors of this workspace.
    fn host_latency_snapshot(&self) -> Option<LatencySnapshot>;

    /// Normalized garbage-collection debt in `[0, 1]`: `0.0` while the
    /// free-block pool sits at or above the incremental-GC low watermark,
    /// rising linearly to `1.0` as it approaches exhaustion. Write pacing
    /// scales foreground throttling by this.
    fn gc_debt(&self) -> f64;

    /// FTL-level statistics (host ops, GC cost).
    fn stats(&self) -> &FtlStats;

    /// NAND-level statistics (device ops, simulated busy time).
    fn nand_stats(&self) -> &NandStats;

    /// Number of logical pages exported to the host.
    fn logical_pages(&self) -> u64;

    /// Fraction of logical pages currently mapped.
    fn utilization(&self) -> f64;

    /// Per-block wear summary: `(min, max, mean)` erase counts.
    fn wear_summary(&self) -> (u32, u32, f64);

    /// The recorded GC victim log, in selection order. Empty unless the FTL
    /// was configured with `FtlConfig::record_gc_victims(true)`; the
    /// differential GC tests replay identical workloads under two GC
    /// configurations (or against a recorded run) and require these logs to
    /// match exactly.
    fn gc_victims(&self) -> &[GcVictim];
}
