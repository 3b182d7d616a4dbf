//! The simulated NAND device.

use crate::block::Block;
use crate::fault::{FaultCheck, FaultKind, FaultPlan};
use crate::latency::LatencySnapshot;
use crate::oob::{OobRecord, OobTag};
use crate::page::PageState;
use crate::sched::{CmdRecord, CmdScheduler};
use crate::stats::NandStats;
use crate::{Geometry, NandError, Pba, Ppa, Result, SimTime};
use bytes::Bytes;

/// Timing and reliability configuration for a [`NandDevice`].
///
/// Defaults follow the paper's cited NAND datasheet (Micron MT29F):
/// 50 µs page read, 500 µs page program, and 3 ms block erase, with a
/// 3000-cycle endurance limit typical of MLC NAND.
#[derive(Debug, Clone)]
pub struct NandConfig {
    geometry: Geometry,
    read_latency_ns: u64,
    program_latency_ns: u64,
    erase_latency_ns: u64,
    /// Page-transfer time over the shared channel bus (serialized among
    /// the chips of one channel).
    bus_transfer_ns: u64,
    endurance: u32,
    queue_depth: usize,
    capture_commands: bool,
}

impl NandConfig {
    /// Configuration with default latencies for `geometry`.
    pub fn new(geometry: Geometry) -> Self {
        NandConfig {
            geometry,
            read_latency_ns: 50_000,
            program_latency_ns: 500_000,
            erase_latency_ns: 3_000_000,
            // ~133 MB/s per channel for a 4 KiB page: the ONFI-class bus
            // of the paper's prototype card, which is what bounds its
            // 1.2 GB/s read throughput across 8 channels.
            bus_transfer_ns: 30_000,
            endurance: 3_000,
            // NVMe-class default: one submission queue 32 deep.
            queue_depth: 32,
            capture_commands: false,
        }
    }

    /// Sets the page-read latency in nanoseconds.
    pub fn read_latency_ns(mut self, ns: u64) -> Self {
        self.read_latency_ns = ns;
        self
    }

    /// Sets the page-program latency in nanoseconds.
    pub fn program_latency_ns(mut self, ns: u64) -> Self {
        self.program_latency_ns = ns;
        self
    }

    /// Sets the block-erase latency in nanoseconds.
    pub fn erase_latency_ns(mut self, ns: u64) -> Self {
        self.erase_latency_ns = ns;
        self
    }

    /// Sets the channel-bus page-transfer time in nanoseconds.
    pub fn bus_transfer_ns(mut self, ns: u64) -> Self {
        self.bus_transfer_ns = ns;
        self
    }

    /// Sets the per-block program/erase endurance limit.
    pub fn endurance(mut self, cycles: u32) -> Self {
        self.endurance = cycles;
        self
    }

    /// The per-block program/erase endurance limit.
    pub fn endurance_limit(&self) -> u32 {
        self.endurance
    }

    /// Sets the closed-loop host queue depth the scheduler models (how
    /// many commands the host keeps in flight before its next arrival
    /// waits for a completion). Default 32.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth is at least one");
        self.queue_depth = depth;
        self
    }

    /// Enables the per-command capture log
    /// (`NandDevice::take_captured_commands`), used by the ordering
    /// proptests. Off by default — the log grows with every command.
    pub fn capture_commands(mut self, enabled: bool) -> Self {
        self.capture_commands = enabled;
        self
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }
}

/// Number of controller checkpoint slots a [`NandDevice`] reserves.
///
/// The slots model a small reserved NAND area in the controller for
/// durable metadata records. No FTL writes them yet; two slots let a
/// writer keep its last good record intact while it erases and rewrites
/// the other, so a power cut mid-write never destroys both.
pub const CKPT_SLOTS: usize = 2;

/// A simulated NAND flash device.
///
/// Enforces the physical constraints of NAND (no in-place updates, in-order
/// programming, erase-before-reuse, endurance) and accounts per-operation
/// latency into [`NandStats`].
///
/// The device is deliberately *dumb*: address translation and garbage
/// collection belong to the FTL crate layered on top.
///
/// # Example
///
/// ```rust
/// use insider_nand::{Geometry, NandConfig, NandDevice, Ppa, NandError};
/// use bytes::Bytes;
///
/// let mut dev = NandDevice::new(NandConfig::new(Geometry::tiny()));
/// dev.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
/// // NAND forbids in-place updates:
/// let err = dev.program(Ppa::new(0), Bytes::from_static(b"v2")).unwrap_err();
/// assert!(matches!(err, NandError::ProgramNonFree(_)));
/// ```
#[derive(Debug)]
pub struct NandDevice {
    config: NandConfig,
    blocks: Vec<Block>,
    /// Cumulative counters, including the per-die and per-channel busy
    /// integrals: programs and erases occupy a die, dies operate in
    /// parallel on real hardware, and all chips of one channel share its
    /// bus — the device-level makespan is `max(busiest die, busiest bus)`
    /// rather than the serial sum.
    stats: NandStats,
    /// The per-channel/per-die command queue: every successful operation
    /// is also admitted here, which yields per-command completion
    /// timestamps and latency percentiles.
    /// Timing only — data application stays synchronous at submit.
    sched: CmdScheduler,
    faults: FaultPlan,
    /// Next global program sequence number for tagged programs (1-based).
    ///
    /// Survives [`power_cut`](Self::power_cut): a real controller recovers
    /// the same value by scanning for the maximum stored sequence number
    /// during mount, so keeping the counter is equivalent to (and cheaper
    /// than) a max-scan-plus-one rebuild.
    next_seq: u64,
    /// Controller checkpoint region: [`CKPT_SLOTS`] page lists modeling a
    /// reserved NAND area, with no FTL writer yet. Contents persist across
    /// [`power_cut`] (durable records exist precisely to survive it);
    /// writes and erases go through [`ckpt_append`]/[`ckpt_erase`], which
    /// consult the fault plan like any other mutation.
    ///
    /// [`power_cut`]: Self::power_cut
    /// [`ckpt_append`]: Self::ckpt_append
    /// [`ckpt_erase`]: Self::ckpt_erase
    ckpt_slots: [Vec<Bytes>; 2],
}

impl NandDevice {
    /// Creates an erased device with the given configuration.
    pub fn new(config: NandConfig) -> Self {
        let blocks = (0..config.geometry.total_blocks())
            .map(|_| Block::new(config.geometry.pages_per_block()))
            .collect();
        let chips = config.geometry.total_chips() as usize;
        let channels = config.geometry.channels() as usize;
        let sched = CmdScheduler::new(chips, channels, config.queue_depth, config.capture_commands);
        NandDevice {
            stats: NandStats::with_shape(chips, channels),
            sched,
            blocks,
            config,
            faults: FaultPlan::new(),
            next_seq: 1,
            ckpt_slots: [Vec::new(), Vec::new()],
        }
    }

    /// The sequence number assigned to the most recent tagged program
    /// (zero before any). Lets the FTL mirror the OOB records it just
    /// wrote without re-reading them.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Charges one successful command to the busy integrals and admits it
    /// to the command scheduler. `page` is the flat physical page index
    /// (`u64::MAX` for erases). Debug builds assert the scheduler's own
    /// busy integrals match the `NandStats` vectors exactly — the
    /// scheduler/makespan differential oracle.
    fn charge(&mut self, kind: FaultKind, page: u64, pba: Pba, ns: u64, bus_ns: u64) {
        let chip = (pba.index() / self.config.geometry.blocks_per_chip()) as usize;
        self.stats.die_busy_ns[chip] += ns;
        let ch = pba.channel(&self.config.geometry) as usize;
        self.stats.bus_busy_ns[ch] += bus_ns;
        self.sched
            .admit(kind, chip, ch, page, u64::from(pba.index()), ns, bus_ns);
        let (stalls, stall_ns) = self.sched.gc_stall_totals();
        self.stats.gc_stalled_cmds = stalls;
        self.stats.gc_stall_ns = stall_ns;
        debug_assert_eq!(
            self.sched.die_busy_ns(),
            &self.stats.die_busy_ns[..],
            "scheduler die busy integrals diverged from the reference accounting"
        );
        debug_assert_eq!(
            self.sched.bus_busy_ns(),
            &self.stats.bus_busy_ns[..],
            "scheduler bus busy integrals diverged from the reference accounting"
        );
    }

    /// Simulated busy time per chip (die), in nanoseconds.
    pub fn chip_busy_ns(&self) -> &[u64] {
        &self.stats.die_busy_ns
    }

    /// Page-transfer busy time per channel bus, in nanoseconds.
    pub fn bus_busy_ns(&self) -> &[u64] {
        &self.stats.bus_busy_ns
    }

    /// Device-level makespan under perfect die parallelism, bounded by the
    /// busiest chip *or* the busiest channel bus — whichever saturates
    /// first. Compare with [`NandStats::busy_ns`](crate::NandStats) (the
    /// serial sum) to see how much parallelism a workload's distribution
    /// can exploit.
    pub fn parallel_busy_ns(&self) -> u64 {
        self.stats.parallel_busy_ns()
    }

    /// Advances the device clock to the simulated instant `now`: command
    /// arrivals are stamped with it, and every queued window whose service
    /// has completed by then is finalized into the latency histograms. The FTL
    /// calls this at the top of each host operation.
    pub fn set_now(&mut self, now: SimTime) {
        self.sched.set_now(now.as_micros().saturating_mul(1000));
    }

    /// Flushes the command scheduler: every queued window is finalized so
    /// [`latency_snapshot`](Self::latency_snapshot) covers all admitted
    /// commands. Call at end of run or before reading percentiles.
    pub fn sync(&mut self) {
        self.sched.flush();
    }

    /// Per-kind latency percentiles over every finalized command. Covers
    /// only commands the scheduler has finalized — [`sync`](Self::sync)
    /// first for end-of-run figures.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.sched.snapshot()
    }

    /// Latency percentiles over finalized *host-issued* commands only:
    /// commands admitted inside the GC context
    /// ([`set_gc_context`](Self::set_gc_context)) are excluded. This is the
    /// foreground distribution a host observes.
    pub fn host_latency_snapshot(&self) -> LatencySnapshot {
        self.sched.host_snapshot()
    }

    /// Flags subsequent operations as GC-internal (`true`) or host-issued
    /// (`false`, the initial state) for latency attribution. The FTL brackets
    /// its GC work with this; data behavior is unaffected.
    pub fn set_gc_context(&mut self, gc: bool) {
        self.sched.set_gc_context(gc);
    }

    /// The scheduler's busy-integral makespan. Equal to
    /// [`parallel_busy_ns`](Self::parallel_busy_ns) by construction (both
    /// sum pure service time per resource).
    pub fn sched_makespan_ns(&self) -> u64 {
        self.sched.makespan_ns()
    }

    /// Queue-aware completion horizon: when the last known command
    /// finishes, including idle gaps between arrivals.
    pub fn completion_horizon_ns(&self) -> u64 {
        self.sched.completion_horizon_ns()
    }

    /// How many reads the out-of-order scheduler promoted past at least
    /// one queued mutation.
    pub fn reads_promoted(&self) -> u64 {
        self.sched.reads_promoted()
    }

    /// Latest completion among GC-context admissions — when the most
    /// recent GC work fully lands on the arrays.
    pub fn gc_horizon_ns(&self) -> u64 {
        self.sched.gc_horizon_ns()
    }

    /// Stalls the firmware for the host until `ns`: host commands
    /// submitted earlier dispatch at `ns`, with the wait counted into
    /// their host-visible latency. A blocking GC drain calls this with
    /// [`gc_horizon_ns`](Self::gc_horizon_ns).
    pub fn stall_host_until(&mut self, ns: u64) {
        self.sched.stall_host_until(ns);
    }

    /// Drains the per-command capture log (empty unless
    /// `NandConfig::capture_commands` was enabled). Flushes the scheduler
    /// first so still-queued commands are finalized into the log — taking
    /// the log means asking for the complete schedule so far.
    pub fn take_captured_commands(&mut self) -> Vec<CmdRecord> {
        self.sched.flush();
        self.sched.take_captured()
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &NandStats {
        &self.stats
    }

    /// Installs a deterministic fault-injection plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Immutable view of a block, for policy audits and tests.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PbaOutOfRange`] for addresses beyond the geometry.
    pub fn block(&self, pba: Pba) -> Result<&Block> {
        self.blocks
            .get(pba.index() as usize)
            .ok_or(NandError::PbaOutOfRange(pba))
    }

    fn check_ppa(&self, ppa: Ppa) -> Result<()> {
        if ppa.is_valid(&self.config.geometry) {
            Ok(())
        } else {
            Err(NandError::PpaOutOfRange(ppa))
        }
    }

    /// Consults the fault plan for one operation attempt of `kind`,
    /// translating the outcome into stats and an error.
    fn consult_faults(&mut self, kind: FaultKind) -> Result<()> {
        match self.faults.check(kind) {
            FaultCheck::Proceed => Ok(()),
            FaultCheck::Injected => {
                self.stats.record_failure();
                self.stats.record_injected_fault();
                Err(NandError::InjectedFault(FaultPlan::label(kind)))
            }
            FaultCheck::PowerCut => {
                self.stats.record_failure();
                self.stats.record_injected_fault();
                Err(NandError::PowerLoss)
            }
            FaultCheck::PoweredOff => {
                self.stats.record_failure();
                Err(NandError::PowerLoss)
            }
        }
    }

    /// Whether a scheduled power cut has fired and the device is latched
    /// off (every operation fails until [`power_cut`](Self::power_cut)
    /// power-cycles it).
    pub fn is_powered_off(&self) -> bool {
        self.faults.is_powered_off()
    }

    /// Power-cycles the device after a (possibly scheduled) power loss.
    ///
    /// DRAM-like state is what a real controller loses: here that is the
    /// FTL's view of page validity, which the device mirrors in its page
    /// states. Every `Valid` page therefore degrades to `Invalid` — data,
    /// OOB records, write pointers, erase counts and stats all persist, and
    /// it is the FTL's mount scan that re-validates the winning copy of
    /// each logical page. Also clears the fault plan's powered-off latch so
    /// the mount scan can read again.
    pub fn power_cut(&mut self) {
        for block in &mut self.blocks {
            for page in block.programmed_mut() {
                if page.state() == PageState::Valid {
                    page.invalidate();
                }
            }
        }
        // Timing windows queued at the instant of the cut are finalized:
        // their data already landed (application is synchronous at
        // submit), and the restarted device must not carry stale windows.
        self.sched.flush();
        self.faults.power_restored();
    }

    /// Reads the payload of a programmed page.
    ///
    /// # Errors
    ///
    /// * [`NandError::PpaOutOfRange`] — address beyond geometry.
    /// * [`NandError::ReadUnwritten`] — page not programmed since last erase.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn read(&mut self, ppa: Ppa) -> Result<Bytes> {
        if let Err(e) = self.check_ppa(ppa) {
            self.stats.record_failure();
            return Err(e);
        }
        self.consult_faults(FaultKind::Read)?;
        let g = self.config.geometry;
        let block = &self.blocks[ppa.block(&g).index() as usize];
        let page = block.page(ppa.page_offset(&g));
        match page.data() {
            Some(data) => {
                // Reference-counted handoff: the host gets a handle to the
                // stored buffer, not a copy.
                let data = data.clone();
                self.stats.record_read(self.config.read_latency_ns);
                self.charge(
                    FaultKind::Read,
                    ppa.index(),
                    ppa.block(&g),
                    self.config.read_latency_ns,
                    self.config.bus_transfer_ns,
                );
                Ok(data)
            }
            None => {
                self.stats.record_failure();
                Err(NandError::ReadUnwritten(ppa))
            }
        }
    }

    /// Programs a free page with `data`.
    ///
    /// Pages within a block must be programmed in order; the page must be
    /// free; the payload must fit in a page.
    ///
    /// # Errors
    ///
    /// * [`NandError::PpaOutOfRange`] — address beyond geometry.
    /// * [`NandError::PayloadTooLarge`] — payload exceeds page size.
    /// * [`NandError::ProgramNonFree`] — in-place update attempted.
    /// * [`NandError::ProgramOutOfOrder`] — violates in-order programming.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn program(&mut self, ppa: Ppa, data: Bytes) -> Result<()> {
        self.program_inner(ppa, data, None)
    }

    /// Programs a free page with `data` plus an out-of-band record.
    ///
    /// The OOB record is stored atomically with the data (spare-area
    /// semantics): if the program fails, neither lands. The device completes
    /// the FTL-supplied [`OobTag`] with the next global program sequence
    /// number, which totally orders all tagged programs and survives power
    /// loss — the basis for mount-time "newest wins" conflict resolution.
    ///
    /// # Errors
    ///
    /// Same as [`program`](Self::program).
    pub fn program_tagged(&mut self, ppa: Ppa, data: Bytes, tag: OobTag) -> Result<()> {
        self.program_inner(ppa, data, Some(tag))
    }

    fn program_inner(&mut self, ppa: Ppa, data: Bytes, tag: Option<OobTag>) -> Result<()> {
        if let Err(e) = self.check_ppa(ppa) {
            self.stats.record_failure();
            return Err(e);
        }
        if data.len() > self.config.geometry.page_size() as usize {
            self.stats.record_failure();
            return Err(NandError::PayloadTooLarge {
                len: data.len(),
                page_size: self.config.geometry.page_size(),
            });
        }
        self.consult_faults(FaultKind::Program)?;
        let g = self.config.geometry;
        let offset = ppa.page_offset(&g);
        let raw = ppa.block(&g).index() as usize;
        {
            let block = &self.blocks[raw];
            if !block.page(offset).is_free() {
                self.stats.record_failure();
                return Err(NandError::ProgramNonFree(ppa));
            }
            match block.write_ptr() {
                Some(expected) if expected == offset => {}
                expected => {
                    self.stats.record_failure();
                    return Err(NandError::ProgramOutOfOrder {
                        requested: ppa,
                        expected_offset: expected,
                    });
                }
            }
        }
        let oob = tag.map(|t| {
            let record = OobRecord::from_tag(t, self.next_seq);
            self.next_seq += 1;
            record
        });
        // Provenance: is the payload's backing buffer still aliased by an
        // upstream holder (zero-copy) or did it arrive uniquely owned (a
        // private allocation was handed over)?
        self.stats.record_buffer(data.is_shared());
        let block = &mut self.blocks[raw];
        block.page_mut(offset).program(data, oob);
        block.advance_write_ptr();
        self.stats.record_program(self.config.program_latency_ns);
        self.charge(
            FaultKind::Program,
            ppa.index(),
            ppa.block(&g),
            self.config.program_latency_ns,
            self.config.bus_transfer_ns,
        );
        Ok(())
    }

    /// Reads a list of pages in order, one [`read`](Self::read) each, for
    /// callers that replay physical addresses directly. (The FTL does not
    /// use it: it reads an extent page by page straight into its result.)
    ///
    /// Each page is charged exactly as an individual read (array time to
    /// its die, transfer time to its channel bus), so the serial
    /// [`NandStats::busy_ns`](crate::NandStats) sum is the sum of the
    /// reads — but pages on different dies and channels overlap in the
    /// per-chip/per-bus vectors behind
    /// [`parallel_busy_ns`](Self::parallel_busy_ns), which is where
    /// striping beats serial service on real hardware.
    ///
    /// # Errors
    ///
    /// Stops at the first failing page and returns its error; reads have no
    /// side effects beyond stats, so the caller loses nothing.
    pub fn read_pages(&mut self, ppas: &[Ppa]) -> Result<Vec<Bytes>> {
        let mut out = Vec::with_capacity(ppas.len());
        for &ppa in ppas {
            out.push(self.read(ppa)?);
        }
        Ok(out)
    }

    /// Multi-page program submit: the batch is enqueued and drained in
    /// *issue order* — programs are mutations, which the scheduler never
    /// reorders, so issue order equals submission order. Each page is
    /// applied, fault-checked and charged exactly as an individual
    /// [`program`](Self::program) call (see [`read_pages`](Self::read_pages)
    /// for the serial-vs-parallel split).
    ///
    /// Returns how many leading pages were programmed alongside the overall
    /// result: on a mid-batch failure the count tells the caller exactly
    /// which prefix landed, so it can finish its mapping bookkeeping for
    /// those pages before handling the error — a partially applied extent
    /// must never leave orphaned valid pages. Because the fault plan is
    /// consulted per command at drain, a power cut scheduled by
    /// [`FaultPlan::power_cut_after`](crate::FaultPlan::power_cut_after)
    /// counts commands in issue order: the triggering program and the
    /// entire queued-but-unissued tail of the batch are lost atomically.
    pub fn program_pages(&mut self, pages: Vec<(Ppa, Bytes)>) -> (usize, Result<()>) {
        let total = pages.len();
        for (done, (ppa, data)) in pages.into_iter().enumerate() {
            if let Err(e) = self.program(ppa, data) {
                return (done, Err(e));
            }
        }
        (total, Ok(()))
    }

    /// Multi-page tagged program submit: [`program_pages`](Self::program_pages)
    /// with a per-page [`OobTag`]. Each landed page gets its own monotone
    /// sequence number, so a crash mid-batch leaves a prefix whose OOB
    /// records exactly describe which pages were acknowledged.
    pub fn program_pages_tagged(
        &mut self,
        pages: Vec<(Ppa, Bytes, OobTag)>,
    ) -> (usize, Result<()>) {
        let total = pages.len();
        for (done, (ppa, data, tag)) in pages.into_iter().enumerate() {
            if let Err(e) = self.program_tagged(ppa, data, tag) {
                return (done, Err(e));
            }
        }
        (total, Ok(()))
    }

    /// The out-of-band record of the page at `ppa`, if the page was
    /// programmed with one. Metadata peek with no timing or fault checks,
    /// for audits and tests; mount scans use [`read_oob`](Self::read_oob).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn oob(&self, ppa: Ppa) -> Result<Option<OobRecord>> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .oob()
            .copied())
    }

    /// The stored payload of the page at `ppa`, if programmed. Metadata
    /// peek with no timing or fault checks, for differential oracles and
    /// tests; the host data path uses [`read`](Self::read).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn peek_data(&self, ppa: Ppa) -> Result<Option<&Bytes>> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .data())
    }

    /// Reads the out-of-band record of the page at `ppa` as a mount scan
    /// does: charged as a full page read (array time plus bus transfer) and
    /// subject to the fault plan. Unprogrammed pages yield `Ok(None)` — the
    /// spare area of an erased page reads blank.
    ///
    /// # Errors
    ///
    /// * [`NandError::PpaOutOfRange`] — address beyond geometry.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn read_oob(&mut self, ppa: Ppa) -> Result<Option<OobRecord>> {
        if let Err(e) = self.check_ppa(ppa) {
            self.stats.record_failure();
            return Err(e);
        }
        self.consult_faults(FaultKind::Read)?;
        let g = self.config.geometry;
        let record = self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .oob()
            .copied();
        self.stats.record_read(self.config.read_latency_ns);
        self.charge(
            FaultKind::Read,
            ppa.index(),
            ppa.block(&g),
            self.config.read_latency_ns,
            self.config.bus_transfer_ns,
        );
        Ok(record)
    }

    /// Erases checkpoint slot `slot`, preparing it for a new checkpoint.
    /// Counts as one erase mutation: it is fault-checked and charged like
    /// a block erase, so crash sweeps enumerate cut points on it.
    ///
    /// # Errors
    ///
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off (the slot
    ///   is left untouched).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= CKPT_SLOTS`.
    pub fn ckpt_erase(&mut self, slot: usize) -> Result<()> {
        assert!(slot < CKPT_SLOTS, "checkpoint slot out of range");
        self.consult_faults(FaultKind::Erase)?;
        self.ckpt_slots[slot].clear();
        self.stats.record_erase(self.config.erase_latency_ns);
        Ok(())
    }

    /// Appends one page to checkpoint slot `slot`. Counts as one program
    /// mutation: fault-checked and charged like a page program, so a
    /// power cut can land between any two slot pages and leave a torn
    /// record behind.
    ///
    /// # Errors
    ///
    /// * [`NandError::PayloadTooLarge`] — page exceeds the geometry's page
    ///   size.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off (the page
    ///   is not appended).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= CKPT_SLOTS`.
    pub fn ckpt_append(&mut self, slot: usize, page: Bytes) -> Result<()> {
        assert!(slot < CKPT_SLOTS, "checkpoint slot out of range");
        if page.len() > self.config.geometry.page_size() as usize {
            self.stats.record_failure();
            return Err(NandError::PayloadTooLarge {
                len: page.len(),
                page_size: self.config.geometry.page_size(),
            });
        }
        self.consult_faults(FaultKind::Program)?;
        self.ckpt_slots[slot].push(page);
        self.stats.record_program(self.config.program_latency_ns);
        Ok(())
    }

    /// Reads back checkpoint slot `slot`, charging one page read per
    /// stored page. An empty slot yields an empty list.
    ///
    /// # Errors
    ///
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= CKPT_SLOTS`.
    pub fn ckpt_read(&mut self, slot: usize) -> Result<Vec<Bytes>> {
        assert!(slot < CKPT_SLOTS, "checkpoint slot out of range");
        for _ in 0..self.ckpt_slots[slot].len() {
            self.consult_faults(FaultKind::Read)?;
        }
        let pages = self.ckpt_slots[slot].clone();
        self.stats
            .record_scan(pages.len() as u64, self.config.read_latency_ns);
        Ok(pages)
    }

    /// Free peek at checkpoint slot `slot` (no timing, no faults), for
    /// differential oracles and tests.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= CKPT_SLOTS`.
    pub fn ckpt_peek(&self, slot: usize) -> &[Bytes] {
        assert!(slot < CKPT_SLOTS, "checkpoint slot out of range");
        &self.ckpt_slots[slot]
    }

    /// Marks a programmed page invalid (superseded). FTL-driven; free pages
    /// or already-invalid pages are left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<()> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        let block = &mut self.blocks[ppa.block(&g).index() as usize];
        let offset = ppa.page_offset(&g);
        if block.page(offset).state() == PageState::Valid {
            block.page_mut(offset).invalidate();
        }
        Ok(())
    }

    /// Marks an invalid page valid again.
    ///
    /// This is FTL bookkeeping, not a physical NAND operation: the page's
    /// payload was never erased ("delayed deletion"), so rolling a mapping
    /// entry back to an old physical page simply flips the old page's state
    /// back to live. Valid and free pages are left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn revalidate(&mut self, ppa: Ppa) -> Result<()> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        let block = &mut self.blocks[ppa.block(&g).index() as usize];
        let offset = ppa.page_offset(&g);
        if block.page(offset).state() == PageState::Invalid {
            block.page_mut(offset).revalidate();
        }
        Ok(())
    }

    /// Erases a block, freeing all of its pages.
    ///
    /// # Errors
    ///
    /// * [`NandError::PbaOutOfRange`] — address beyond geometry.
    /// * [`NandError::BlockWornOut`] — endurance limit reached.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn erase(&mut self, pba: Pba) -> Result<()> {
        if !pba.is_valid(&self.config.geometry) {
            self.stats.record_failure();
            return Err(NandError::PbaOutOfRange(pba));
        }
        self.consult_faults(FaultKind::Erase)?;
        let block = &mut self.blocks[pba.index() as usize];
        if block.erase_count() >= self.config.endurance {
            self.stats.record_failure();
            return Err(NandError::BlockWornOut(pba));
        }
        block.erase();
        self.stats.record_erase(self.config.erase_latency_ns);
        self.charge(
            FaultKind::Erase,
            u64::MAX,
            pba,
            self.config.erase_latency_ns,
            0,
        );
        Ok(())
    }

    /// The state of the page at `ppa`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn page_state(&self, ppa: Ppa) -> Result<PageState> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .state())
    }

    /// Maximum erase count across all blocks (wear ceiling).
    pub fn max_erase_count(&self) -> u32 {
        self.blocks
            .iter()
            .map(Block::erase_count)
            .max()
            .unwrap_or(0)
    }

    /// Per-block wear summary: `(min, max, mean)` erase counts. The spread
    /// between min and max is what a wear leveler would keep small.
    pub fn wear_summary(&self) -> (u32, u32, f64) {
        let min = self
            .blocks
            .iter()
            .map(Block::erase_count)
            .min()
            .unwrap_or(0);
        let max = self.max_erase_count();
        let mean = if self.blocks.is_empty() {
            0.0
        } else {
            self.total_erases() as f64 / self.blocks.len() as f64
        };
        (min, max, mean)
    }

    /// Sum of erase counts across all blocks.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NandDevice {
        NandDevice::new(NandConfig::new(Geometry::tiny()))
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"abc");
    }

    #[test]
    fn read_unwritten_page_fails() {
        let mut d = dev();
        assert_eq!(
            d.read(Ppa::new(5)),
            Err(NandError::ReadUnwritten(Ppa::new(5)))
        );
    }

    #[test]
    fn in_place_update_is_rejected() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(
            d.program(Ppa::new(0), Bytes::from_static(b"v2")),
            Err(NandError::ProgramNonFree(Ppa::new(0)))
        );
        // Old data untouched.
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"v1");
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut d = dev();
        let err = d
            .program(Ppa::new(2), Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(
            err,
            NandError::ProgramOutOfOrder {
                requested: Ppa::new(2),
                expected_offset: Some(0)
            }
        );
    }

    #[test]
    fn erase_frees_pages_for_reprogramming() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
        d.erase(Pba::new(0)).unwrap();
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Free);
        d.program(Ppa::new(0), Bytes::from_static(b"v2")).unwrap();
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"v2");
    }

    #[test]
    fn invalidate_marks_valid_pages_only() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Invalid);
        // Idempotent on invalid pages, no-op on free pages.
        d.invalidate(Ppa::new(0)).unwrap();
        d.invalidate(Ppa::new(1)).unwrap();
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Free);
    }

    #[test]
    fn invalid_page_data_survives_until_erase() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"old")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        // Delayed deletion: the payload is still physically readable.
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"old");
        d.erase(Pba::new(0)).unwrap();
        assert!(d.read(Ppa::new(0)).is_err());
    }

    #[test]
    fn payload_too_large_is_rejected() {
        let g = Geometry::builder().page_size(4).build();
        let mut d = NandDevice::new(NandConfig::new(g));
        let err = d
            .program(Ppa::new(0), Bytes::from_static(b"12345"))
            .unwrap_err();
        assert_eq!(
            err,
            NandError::PayloadTooLarge {
                len: 5,
                page_size: 4
            }
        );
    }

    #[test]
    fn out_of_range_addresses_fail() {
        let mut d = dev();
        assert!(matches!(
            d.read(Ppa::new(100_000)),
            Err(NandError::PpaOutOfRange(_))
        ));
        assert!(matches!(
            d.erase(Pba::new(100_000)),
            Err(NandError::PbaOutOfRange(_))
        ));
    }

    #[test]
    fn endurance_limit_enforced() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(NandConfig::new(g).endurance(2));
        d.erase(Pba::new(0)).unwrap();
        d.erase(Pba::new(0)).unwrap();
        assert_eq!(
            d.erase(Pba::new(0)),
            Err(NandError::BlockWornOut(Pba::new(0)))
        );
        assert_eq!(d.max_erase_count(), 2);
        assert_eq!(d.total_erases(), 2);
    }

    #[test]
    fn stats_account_latencies() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .read_latency_ns(10)
                .program_latency_ns(20)
                .erase_latency_ns(30),
        );
        d.program(Ppa::new(0), Bytes::from_static(b"x")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.erase(Pba::new(0)).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 1));
        assert_eq!(s.busy_ns, 60);
    }

    #[test]
    fn injected_faults_fail_scheduled_ops() {
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 2);
        d.set_fault_plan(plan);
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            d.program(Ppa::new(1), Bytes::from_static(b"b")),
            Err(NandError::InjectedFault("program"))
        );
        // Page 1 was not programmed, so in-order pointer still expects offset 1.
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn chip_parallelism_accounting() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(2)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .program_latency_ns(100)
                .bus_transfer_ns(10),
        );
        // Blocks 0..1 live on chip 0; blocks 2..3 on chip 1 (same channel).
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(8), Bytes::from_static(b"b")).unwrap();
        assert_eq!(d.stats().busy_ns, 200, "serial sum counts both");
        assert_eq!(d.parallel_busy_ns(), 100, "dies overlap perfectly");
        assert_eq!(d.chip_busy_ns(), &[100, 100]);
        assert_eq!(d.bus_busy_ns(), &[20], "one shared bus carried both pages");
        // A second op on chip 0 breaks the symmetry.
        d.program(Ppa::new(1), Bytes::from_static(b"c")).unwrap();
        assert_eq!(d.parallel_busy_ns(), 200);
    }

    #[test]
    fn bus_bound_workloads_saturate_on_the_channel() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(4)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        // Fast dies, slow bus: the shared channel becomes the bottleneck.
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .program_latency_ns(10)
                .bus_transfer_ns(100),
        );
        for chip in 0..4u64 {
            d.program(Ppa::new(chip * 8), Bytes::from_static(b"x"))
                .unwrap();
        }
        // Four dies overlap (10 ns each) but the bus carried 4 x 100 ns.
        assert_eq!(d.parallel_busy_ns(), 400);
    }

    #[test]
    fn batched_submit_matches_scalar_accounting() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(2)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        let make = || {
            NandDevice::new(
                NandConfig::new(g)
                    .program_latency_ns(100)
                    .bus_transfer_ns(10),
            )
        };
        // Extent striped across both dies: pages 0..2 of chip 0's block 0
        // interleaved with pages 0..2 of chip 1's block 2.
        let ppas = [0u64, 8, 1, 9];
        let mut batched = make();
        let pages: Vec<(Ppa, Bytes)> = ppas
            .iter()
            .map(|&p| (Ppa::new(p), Bytes::from_static(b"x")))
            .collect();
        let (done, res) = batched.program_pages(pages);
        res.unwrap();
        assert_eq!(done, 4);
        let mut scalar = make();
        for &p in &ppas {
            scalar
                .program(Ppa::new(p), Bytes::from_static(b"x"))
                .unwrap();
        }
        assert_eq!(batched.stats().programs, scalar.stats().programs);
        assert_eq!(batched.stats().busy_ns, scalar.stats().busy_ns);
        assert_eq!(batched.chip_busy_ns(), scalar.chip_busy_ns());
        assert_eq!(batched.bus_busy_ns(), scalar.bus_busy_ns());
        // The striped extent overlaps perfectly across the two dies.
        assert_eq!(batched.parallel_busy_ns(), 200);
        assert_eq!(batched.stats().busy_ns, 400);
        assert_eq!(
            batched.read_pages(&ppas.map(Ppa::new)).unwrap(),
            vec![Bytes::from_static(b"x"); 4]
        );
    }

    #[test]
    fn batched_program_reports_failing_prefix() {
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 3);
        d.set_fault_plan(plan);
        let pages: Vec<(Ppa, Bytes)> = (0..4)
            .map(|p| (Ppa::new(p), Bytes::from_static(b"y")))
            .collect();
        let (done, res) = d.program_pages(pages);
        assert_eq!(done, 2, "two pages landed before the injected fault");
        assert_eq!(res, Err(NandError::InjectedFault("program")));
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Valid);
        assert_eq!(d.page_state(Ppa::new(2)).unwrap(), PageState::Free);
    }

    #[test]
    fn batched_read_stops_at_first_error() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        let err = d.read_pages(&[Ppa::new(0), Ppa::new(5)]).unwrap_err();
        assert_eq!(err, NandError::ReadUnwritten(Ppa::new(5)));
    }

    #[test]
    fn tagged_programs_stamp_monotone_sequence_numbers() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        d.program_tagged(
            Ppa::new(0),
            Bytes::from_static(b"a"),
            crate::OobTag::live(Lba::new(7), SimTime::from_secs(1)),
        )
        .unwrap();
        d.program_tagged(
            Ppa::new(1),
            Bytes::from_static(b"b"),
            crate::OobTag::backup(Lba::new(7), SimTime::from_secs(2)),
        )
        .unwrap();
        let first = d.oob(Ppa::new(0)).unwrap().unwrap();
        let second = d.oob(Ppa::new(1)).unwrap().unwrap();
        assert_eq!(first.lba, Lba::new(7));
        assert!(first.live && !second.live);
        assert!(second.seq > first.seq);
        // Untagged programs carry no OOB and consume no sequence number.
        d.program(Ppa::new(2), Bytes::from_static(b"c")).unwrap();
        assert_eq!(d.oob(Ppa::new(2)).unwrap(), None);
        d.program_tagged(
            Ppa::new(3),
            Bytes::from_static(b"d"),
            crate::OobTag::live(Lba::new(8), SimTime::ZERO),
        )
        .unwrap();
        assert_eq!(d.oob(Ppa::new(3)).unwrap().unwrap().seq, second.seq + 1);
    }

    #[test]
    fn read_oob_is_charged_as_a_read() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        d.program_tagged(
            Ppa::new(0),
            Bytes::from_static(b"a"),
            crate::OobTag::live(Lba::new(1), SimTime::ZERO),
        )
        .unwrap();
        let before = d.stats().reads;
        assert!(d.read_oob(Ppa::new(0)).unwrap().is_some());
        assert_eq!(
            d.read_oob(Ppa::new(1)).unwrap(),
            None,
            "erased spare reads blank"
        );
        assert_eq!(d.stats().reads, before + 2);
    }

    #[test]
    fn power_cut_latches_and_power_cycle_recovers() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.power_cut_after(2);
        d.set_fault_plan(plan);
        let tag = crate::OobTag::live(Lba::new(0), SimTime::ZERO);
        d.program_tagged(Ppa::new(0), Bytes::from_static(b"a"), tag)
            .unwrap();
        // Second mutation triggers the cut without being applied.
        assert_eq!(
            d.program_tagged(Ppa::new(1), Bytes::from_static(b"b"), tag),
            Err(NandError::PowerLoss)
        );
        assert!(d.is_powered_off());
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Free);
        // Everything fails while latched off, reads included.
        assert_eq!(d.read(Ppa::new(0)), Err(NandError::PowerLoss));
        assert_eq!(d.erase(Pba::new(1)), Err(NandError::PowerLoss));
        assert_eq!(d.stats().injected_faults, 1, "only the cut itself fired");
        assert!(d.stats().failures >= 3);
        // Power-cycle: data and OOB persist, validity degrades to Invalid.
        d.power_cut();
        assert!(!d.is_powered_off());
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Invalid);
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"a");
        let oob = d.oob(Ppa::new(0)).unwrap().unwrap();
        // The sequence counter continues past the surviving maximum.
        d.program_tagged(Ppa::new(1), Bytes::from_static(b"b"), tag)
            .unwrap();
        assert!(d.oob(Ppa::new(1)).unwrap().unwrap().seq > oob.seq);
    }

    #[test]
    fn scheduler_records_per_command_latency() {
        let mut d = dev();
        d.set_now(SimTime::from_secs(1));
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.sync();
        let snap = d.latency_snapshot();
        assert_eq!(snap.program.count, 1);
        assert_eq!(snap.read.count, 1);
        assert_eq!(snap.total.count, 2);
        // Same-page read-after-program: the read waited for the program.
        assert!(snap.read.max_ns >= 500_000 + 50_000);
        assert_eq!(d.sched_makespan_ns(), d.parallel_busy_ns());
    }

    #[test]
    fn buffer_provenance_is_classified_at_program() {
        let mut d = dev();
        // A handle the caller still holds: zero-copy, classified shared.
        let kept = Bytes::from(vec![1u8; 4]);
        d.program(Ppa::new(0), kept.clone()).unwrap();
        // Sole ownership handed over: a private allocation, classified
        // copied (the hallmark of a deep-copying data path).
        let private = Bytes::from(vec![2u8; 4]);
        d.program(Ppa::new(1), private).unwrap();
        assert_eq!(d.stats().buffers_shared, 1);
        assert_eq!(d.stats().buffers_copied, 1);
        // Reading back shares the stored buffer rather than copying it.
        let read = d.read(Ppa::new(0)).unwrap();
        assert_eq!(read.as_ref().as_ptr(), kept.as_ref().as_ptr());
    }

    #[test]
    fn captured_commands_expose_schedule_order() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(NandConfig::new(g).capture_commands(true));
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.sync();
        let mut rec = d.take_captured_commands();
        rec.sort_by_key(|r| r.submit);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec[2].kind, FaultKind::Read);
        // Same-page dependency: the read starts at or after its program.
        assert!(rec[2].start_ns >= rec[0].start_ns);
    }

    #[test]
    fn ckpt_slots_survive_power_cut_and_tear_on_mid_write_cut() {
        let mut d = dev();
        d.ckpt_erase(0).unwrap();
        d.ckpt_append(0, Bytes::from_static(b"page0")).unwrap();
        d.ckpt_append(0, Bytes::from_static(b"page1")).unwrap();
        // Cut power in the middle of writing slot 1: erase lands, only one
        // of two pages does.
        let mut plan = FaultPlan::new();
        plan.power_cut_after(3);
        d.set_fault_plan(plan);
        d.ckpt_erase(1).unwrap();
        d.ckpt_append(1, Bytes::from_static(b"new0")).unwrap();
        assert_eq!(
            d.ckpt_append(1, Bytes::from_static(b"new1")),
            Err(NandError::PowerLoss)
        );
        assert!(d.is_powered_off());
        assert_eq!(d.ckpt_read(0), Err(NandError::PowerLoss));
        assert_eq!(d.read_oob(Ppa::new(0)), Err(NandError::PowerLoss));
        d.power_cut();
        // The old checkpoint survived intact; the torn one holds a prefix.
        assert_eq!(d.ckpt_read(0).unwrap().len(), 2);
        assert_eq!(d.ckpt_peek(1), &[Bytes::from_static(b"new0")]);
        assert_eq!(d.stats().injected_faults, 1);
    }

    #[test]
    fn ckpt_pages_are_bounded_by_page_size() {
        let g = Geometry::builder().page_size(4).build();
        let mut d = NandDevice::new(NandConfig::new(g));
        assert!(matches!(
            d.ckpt_append(0, Bytes::from_static(b"12345")),
            Err(NandError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn last_seq_tracks_tagged_programs() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        assert_eq!(d.last_seq(), 0);
        d.program_tagged(
            Ppa::new(0),
            Bytes::from_static(b"a"),
            crate::OobTag::live(Lba::new(0), SimTime::ZERO),
        )
        .unwrap();
        let seq = d.oob(Ppa::new(0)).unwrap().unwrap().seq;
        assert_eq!(d.last_seq(), seq);
    }

    #[test]
    fn block_view_reports_counts() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        let b = d.block(Pba::new(0)).unwrap();
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.invalid_pages(), 1);
    }
}
