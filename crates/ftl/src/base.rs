//! Machinery shared by the conventional and SSD-Insider FTLs: page
//! allocation, the reverse map, and greedy garbage collection.

use crate::config::{FtlConfig, GC_RESERVE_BLOCKS};
use crate::mapping::MappingTable;
use crate::recovery_queue::RecoveryQueue;
use crate::stats::{FtlStats, GcVictim};
use crate::{FtlError, Result};
use bytes::Bytes;
use insider_nand::{
    KindLatency, LatencyHistogram, Lba, NandDevice, NandError, OobTag, PageState, Pba, Ppa, SimTime,
};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

/// Incrementally maintained GC victim candidates, bucketed by reclaimable
/// page count (`invalid − protected`).
///
/// Every closed in-service block with a non-zero reclaimable count sits in
/// `buckets[chip][reclaimable]`, ordered by raw block index, which
/// reproduces the scan oracle's first-strict-max order. Candidates are
/// bucketed *per chip* because an erased block refills that chip's free
/// pool alone, so selection needs to know which die a candidate is on: each
/// chip reports the head of its highest non-empty bucket (O(1) amortized
/// via the lazily lowered `max_r` hint), and [`FtlBase::select_victim`]
/// takes the most reclaimable on the device, using free-pool depth only
/// between equal counts. Updates (re-filing one block) are O(log B) —
/// versus a full scan's O(B) per selection, with B = total blocks.
#[derive(Debug)]
struct VictimIndex {
    /// `buckets[chip][reclaimable]` → candidate blocks on that chip.
    buckets: Vec<Vec<BTreeSet<u32>>>,
    /// For indexed blocks, the reclaimable count they are filed under.
    slot: Vec<Option<u32>>,
    /// Per-chip upper bound on the highest non-empty bucket, lowered lazily.
    max_r: Vec<usize>,
    blocks_per_chip: u32,
}

impl VictimIndex {
    fn new(total_blocks: usize, pages_per_block: usize, blocks_per_chip: u32) -> Self {
        let chips = total_blocks / blocks_per_chip as usize;
        VictimIndex {
            buckets: vec![vec![BTreeSet::new(); pages_per_block + 1]; chips],
            slot: vec![None; total_blocks],
            max_r: vec![0; chips],
            blocks_per_chip,
        }
    }

    fn chip_of(&self, raw: u32) -> usize {
        (raw / self.blocks_per_chip) as usize
    }

    /// Files candidate `raw` under `reclaimable`, dropping it when zero.
    fn update(&mut self, raw: u32, reclaimable: u32) {
        if reclaimable > 0 && self.slot[raw as usize] == Some(reclaimable) {
            return;
        }
        self.remove(raw);
        if reclaimable > 0 {
            let chip = self.chip_of(raw);
            self.buckets[chip][reclaimable as usize].insert(raw);
            self.slot[raw as usize] = Some(reclaimable);
            self.max_r[chip] = self.max_r[chip].max(reclaimable as usize);
        }
    }

    fn remove(&mut self, raw: u32) {
        if let Some(r) = self.slot[raw as usize].take() {
            let chip = self.chip_of(raw);
            self.buckets[chip][r as usize].remove(&raw);
        }
    }

    /// Most reclaimable pages on `chip`, lowest block index on ties, as
    /// `(block, reclaimable)`.
    fn best(&mut self, chip: usize) -> Option<(u32, u32)> {
        while self.max_r[chip] > 0 && self.buckets[chip][self.max_r[chip]].is_empty() {
            self.max_r[chip] -= 1;
        }
        let r = self.max_r[chip];
        self.buckets[chip][r].first().map(|&raw| (raw, r as u32))
    }
}

/// Common FTL state: the device, the forward and reverse maps, the free-block
/// pool and the statistics. The two public FTLs compose this and differ only
/// in how they treat superseded pages.
#[derive(Debug)]
pub(crate) struct FtlBase {
    pub device: NandDevice,
    pub mapping: MappingTable,
    /// Reverse map PPA → LBA, standing in for the out-of-band (OOB) metadata
    /// real firmware writes next to each page. For a *protected invalid*
    /// page it names the logical page whose old version it holds.
    rmap: Vec<Option<Lba>>,
    /// Free-block pools, one per chip (die): allocation stripes pages
    /// across dies (one active block per die, round-robin), which is what
    /// lets a multi-channel/multi-way controller overlap NAND operations —
    /// the source of the paper's card's bandwidth.
    free: Vec<VecDeque<Pba>>,
    /// Mirror of `free` membership for O(1) lookups.
    free_flags: Vec<bool>,
    /// Cached sum of the per-chip free-pool lengths, so the GC thresholds
    /// on the write hot path cost O(1) instead of O(chips).
    free_count: usize,
    /// Blocks retired after hitting their endurance limit; never selected
    /// as GC victims and never returned to the free pool.
    bad_flags: Vec<bool>,
    /// Mirror of `active` membership per raw block index, replacing the
    /// O(chips) `active.contains` probes on the selection paths.
    active_flags: Vec<bool>,
    /// Invalid-page count per block, maintained incrementally.
    invalid_per_block: Vec<u32>,
    /// Per-block count of pages the recovery queue currently protects —
    /// the only per-block count there is: the queue keeps a page index and
    /// hands over every protection change, so victim scoring never polls
    /// it. Debug builds recount it from the queue at every selection.
    protected_per_block: Vec<u32>,
    /// One active (partially programmed) block per chip.
    active: Vec<Option<Pba>>,
    /// Round-robin chip cursor for page allocation.
    next_chip: usize,
    /// Incremental victim index; debug builds assert every pick against a
    /// full-device scan (see [`select_victim`](Self::select_victim)).
    victims: VictimIndex,
    /// Victim log, populated when `FtlConfig::record_gc_victims` is on.
    victim_log: Vec<GcVictim>,
    /// OOB records decoded by the most recent [`remount`](Self::remount)
    /// scan (zero before any mount) — the size of the structure an on-device
    /// implementation would stream through during power-on recovery.
    mount_scan_entries: u64,
    /// The GC engine's one job, `None` at quiescence; `Some` between writes
    /// when the incremental budget paused it or a NAND error stopped it.
    /// Dropped — not persisted — across a power cut; the half-migrated
    /// victim is simply re-selectable.
    gc_job: Option<GcJob>,
    /// Per-GC-entry foreground pause histogram: the growth of the device's
    /// parallel makespan across each GC entry (unbudgeted drain or
    /// budgeted pump) — the device-time stall a collocated host command
    /// would observe.
    gc_pause_hist: LatencyHistogram,
    pub stats: FtlStats,
    config: FtlConfig,
}

/// One OOB record surfaced by the mount-time scan, in the physical page it
/// was read from. [`FtlBase::remount`] returns these flat, sorted by
/// logical page and by `(stamp, seq)` — oldest version first — within each
/// page's adjacent run, so the SSD-Insider FTL can rebuild its recovery
/// queue without a second scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanPage {
    /// Physical page the record was read from.
    pub ppa: Ppa,
    /// Device-stamped monotone program sequence number.
    pub seq: u64,
    /// Host write time carried in the OOB tag (preserved across GC copies).
    pub stamp: SimTime,
    /// `true` when the page held the current version at program time;
    /// `false` for GC backup copies of superseded versions.
    pub live: bool,
}

/// A completed mount scan: the flat record set in canonical
/// `(logical page, stamp, seq)` order, plus the per-block programmed-page
/// watermarks and minimum OOB sequence numbers.
type MountScan = (Vec<(Lba, ScanPage)>, Vec<u32>, Vec<Option<u64>>);

/// The garbage collector's unit of work under both policies: one selected
/// victim block plus a cursor over its page offsets. [`FtlBase::gc_step`]
/// migrates pages from the cursor forward under a budget (unbounded for the
/// blocking policy), persisting the cursor between pumps.
/// Page migration re-reads the physical page state at execution time, so a
/// job can be paused, resumed after arbitrary host writes, or dropped
/// mid-block (power cut) without special cases: unmigrated offsets are
/// re-examined fresh, migrated ones are already `Invalid`/`Free`.
///
/// The victim stays pinned while the job is paused — it is neither free nor
/// active, so the host can never program into it, and victim *selection*
/// only ever runs when no job is pending, so the selectors' indexes cannot
/// go stale under a half-collected block.
#[derive(Debug, Clone, Copy)]
struct GcJob {
    victim: Pba,
    /// Next page offset to examine in the victim block.
    cursor: u32,
}

impl FtlBase {
    pub fn new(config: FtlConfig) -> Self {
        let device = NandDevice::new(config.nand().clone());
        let g = *config.geometry();
        let chips = g.total_chips() as usize;
        let mut free: Vec<VecDeque<Pba>> = vec![VecDeque::new(); chips];
        for raw in 0..g.total_blocks() {
            let pba = Pba::new(raw);
            free[(raw / g.blocks_per_chip()) as usize].push_back(pba);
        }
        FtlBase {
            device,
            mapping: MappingTable::new(config.logical_pages()),
            rmap: vec![None; g.total_pages() as usize],
            free,
            free_flags: vec![true; g.total_blocks() as usize],
            free_count: g.total_blocks() as usize,
            bad_flags: vec![false; g.total_blocks() as usize],
            active_flags: vec![false; g.total_blocks() as usize],
            invalid_per_block: vec![0; g.total_blocks() as usize],
            protected_per_block: vec![0; g.total_blocks() as usize],
            active: vec![None; chips],
            next_chip: 0,
            victims: VictimIndex::new(
                g.total_blocks() as usize,
                g.pages_per_block() as usize,
                g.blocks_per_chip(),
            ),
            victim_log: Vec::new(),
            mount_scan_entries: 0,
            gc_job: None,
            gc_pause_hist: LatencyHistogram::new(),
            stats: FtlStats::new(),
            config,
        }
    }

    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.mount_scan_entries
    }

    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Installs a deterministic NAND fault plan (failure-injection tests).
    pub fn set_fault_plan(&mut self, plan: insider_nand::FaultPlan) {
        self.device.set_fault_plan(plan);
    }

    /// Device busy time as `(serial sum, parallel makespan)`.
    pub fn nand_busy_ns(&self) -> (u64, u64) {
        (self.device.stats().busy_ns, self.device.parallel_busy_ns())
    }

    /// Per-chip and per-channel-bus busy vectors (phase-delta analyses).
    pub fn nand_busy_detail(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.device.chip_busy_ns().to_vec(),
            self.device.bus_busy_ns().to_vec(),
        )
    }

    /// Advances the device command scheduler's clock to the simulated time
    /// of the host operation about to run. Every host-facing entry point
    /// calls this first, so queued commands from earlier operations are
    /// finalized before new ones are admitted.
    pub fn set_clock(&mut self, now: SimTime) {
        self.device.set_now(now);
    }

    /// Drains the device command scheduler (see [`Ftl::sync`]).
    ///
    /// [`Ftl::sync`]: crate::Ftl::sync
    pub fn sync_device(&mut self) {
        self.device.sync();
    }

    pub fn logical_pages(&self) -> u64 {
        self.mapping.len()
    }

    /// Number of blocks in the free pools (excluding active blocks).
    pub fn free_blocks(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.free.iter().map(VecDeque::len).sum::<usize>(),
            "free-count cache diverged from the pools"
        );
        self.free_count
    }

    /// One bounds check for a whole extent: every page of `[lba, lba+len)`
    /// must be inside the logical range. The reported address is the first
    /// out-of-range page.
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

    #[cfg(test)]
    pub fn rmap_of(&self, ppa: Ppa) -> Option<Lba> {
        self.rmap[ppa.index() as usize]
    }

    #[cfg(test)]
    pub fn protected_per_block(&self) -> &[u32] {
        &self.protected_per_block
    }

    /// Hands out the next programmable physical page, rotating across one
    /// active block per chip so consecutive pages land on different dies;
    /// a chip whose pool is empty is skipped until GC refills it.
    ///
    /// Used by GC's page-by-page migration only; host writes reserve their
    /// pages through [`allocate_extent`](Self::allocate_extent), which hands
    /// out the same sequence.
    fn allocate(&mut self) -> Result<Ppa> {
        let g = *self.config.geometry();
        let chips = self.active.len();
        for attempt in 0..chips {
            let chip = (self.next_chip + attempt) % chips;
            loop {
                if let Some(pba) = self.active[chip] {
                    let block = self.device.block(pba)?;
                    if let Some(offset) = block.write_ptr() {
                        self.next_chip = (chip + 1) % chips;
                        return Ok(pba.page(&g, offset));
                    }
                    self.close_active(chip, pba);
                }
                match self.free[chip].pop_front() {
                    Some(pba) => self.open_block(chip, pba),
                    None => break, // this chip is dry; try the next
                }
            }
        }
        Err(FtlError::NoReclaimableSpace)
    }

    /// Opens a fresh free block as `chip`'s active block.
    fn open_block(&mut self, chip: usize, pba: Pba) {
        let raw = pba.index() as usize;
        self.free_flags[raw] = false;
        self.free_count -= 1;
        self.active_flags[raw] = true;
        self.active[chip] = Some(pba);
    }

    /// Closes `chip`'s full active block: it becomes a GC-victim candidate.
    fn close_active(&mut self, chip: usize, pba: Pba) {
        let raw = pba.index();
        self.active[chip] = None;
        self.active_flags[raw as usize] = false;
        self.refresh_victim(raw);
    }

    /// Re-files a block in the victim index after any state transition
    /// touching its candidacy or reclaimable count.
    fn refresh_victim(&mut self, raw: u32) {
        let i = raw as usize;
        if self.free_flags[i] || self.bad_flags[i] || self.active_flags[i] {
            self.victims.remove(raw);
            return;
        }
        let invalid = self.invalid_per_block[i];
        let protected = self.protected_per_block[i];
        debug_assert!(
            protected <= invalid,
            "protected pages must be invalid (block {raw}: {protected} > {invalid})"
        );
        self.victims.update(raw, invalid - protected);
    }

    /// Supersedes physical page `ppa`: marks it invalid (a no-op unless it
    /// is valid) and, when `protect` is set, counts it protected, then
    /// re-files its block in the victim index once.
    ///
    /// A protection begins only here, and the caller pushes the matching
    /// backup entry. Doing both counts before the one refresh is what makes
    /// the common protected overwrite cheap: invalid and protected both rise
    /// by one, the block's reclaimable count is unchanged, and
    /// [`VictimIndex::update`] returns without touching its tree.
    fn supersede(&mut self, ppa: Ppa, protect: bool) -> Result<()> {
        let raw = ppa.block(self.config.geometry()).index();
        if self.device.page_state(ppa)? == PageState::Valid {
            self.device.invalidate(ppa)?;
            self.invalid_per_block[raw as usize] += 1;
        }
        if protect {
            self.protected_per_block[raw as usize] += 1;
        }
        self.refresh_victim(raw);
        Ok(())
    }

    /// Ends the protection of `ppa`: its block has one protected page less
    /// and one reclaimable page more.
    fn unprotect(&mut self, ppa: Ppa) {
        let raw = ppa.block(self.config.geometry()).index();
        self.protected_per_block[raw as usize] -= 1;
        self.refresh_victim(raw);
    }

    /// Retires `queue`'s entries stamped before `cutoff` and releases their
    /// pages as the queue hands them over. One retirement is typically the
    /// pre-images of one host write, which the allocator striped across
    /// dies, so a block rarely loses two protections in one batch and
    /// re-filing per page costs no more than batching per block.
    pub fn retire_protected(&mut self, queue: &mut RecoveryQueue, cutoff: SimTime) {
        queue.retire_before(cutoff, |entry| {
            if let Some(old) = entry.old {
                self.unprotect(old);
            }
        });
    }

    /// Zeroes every protected count. Rollback drains the whole queue up
    /// front (see [`RecoveryQueue::take_all`]) and must release the counts
    /// *before* rewinding mappings: revalidating an old version decrements
    /// its block's invalid count, which may never drop below the protected
    /// count.
    pub fn clear_protected(&mut self) {
        for raw in 0..self.protected_per_block.len() {
            if self.protected_per_block[raw] != 0 {
                self.protected_per_block[raw] = 0;
                self.refresh_victim(raw as u32);
            }
        }
    }

    /// Recorded victim-selection events (empty unless
    /// `FtlConfig::record_gc_victims` is enabled).
    pub fn gc_victims(&self) -> &[GcVictim] {
        &self.victim_log
    }

    fn log_victim(&mut self, pba: Pba) {
        if self.config.gc_victim_recording() {
            let raw = pba.index() as usize;
            self.victim_log.push(GcVictim {
                block: pba.index(),
                reclaimable: self.invalid_per_block[raw] - self.protected_per_block[raw],
            });
        }
    }

    /// Reserves `n` programmable physical pages with the same die-striping
    /// rotation as [`allocate`](Self::allocate), without programming them.
    ///
    /// The device's per-block write pointer only advances when a page is
    /// actually programmed, so a batch reservation must account for pages
    /// handed out earlier in the same extent: `reserved[chip]` counts the
    /// offsets claimed ahead of the active block's write pointer. The
    /// caller programs the reservation in order (one grouped submit), which
    /// preserves NAND's in-order-programming constraint per block.
    ///
    /// A block left reservation-full is closed (its chip opens a fresh
    /// block); if the subsequent batch program aborts mid-extent, the
    /// closed block's unprogrammed tail is stranded until GC erases it —
    /// the price of grouping, only paid on injected faults.
    fn allocate_extent(&mut self, n: usize) -> Result<Vec<Ppa>> {
        let g = *self.config.geometry();
        let ppb = g.pages_per_block();
        let chips = self.active.len();
        let mut reserved = vec![0u32; chips];
        let mut out = Vec::with_capacity(n);
        'pages: for _ in 0..n {
            for attempt in 0..chips {
                let chip = (self.next_chip + attempt) % chips;
                loop {
                    if let Some(pba) = self.active[chip] {
                        let block = self.device.block(pba)?;
                        let base = block.write_ptr().unwrap_or(ppb);
                        let offset = base + reserved[chip];
                        if offset < ppb {
                            reserved[chip] += 1;
                            self.next_chip = (chip + 1) % chips;
                            out.push(pba.page(&g, offset));
                            continue 'pages;
                        }
                        self.close_active(chip, pba);
                        reserved[chip] = 0;
                    }
                    match self.free[chip].pop_front() {
                        Some(pba) => self.open_block(chip, pba),
                        None => break, // this chip is dry; try the next
                    }
                }
            }
            return Err(FtlError::NoReclaimableSpace);
        }
        Ok(out)
    }

    /// Reads `len` consecutive logical pages in one pass, in request order:
    /// each mapped page is one NAND read straight into the result, an
    /// unmapped one is `None`. The FTL stripes consecutive pages across
    /// dies, so the per-page reads of an extent overlap in the scheduler.
    ///
    /// # Errors
    ///
    /// Stops at the first failing NAND read and returns its error; the
    /// pages read before it stay counted in the NAND stats.
    pub fn read_extent_mapped(&mut self, lba: Lba, len: u32) -> Result<Vec<Option<Bytes>>> {
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..u64::from(len) {
            out.push(match self.mapping.get(lba.offset(i)) {
                Some(ppa) => Some(self.device.read(ppa)?),
                None => None,
            });
        }
        Ok(out)
    }

    /// Programs a whole extent starting at `lba` — `data[i]` lands at
    /// `lba + i` — as one batch: the physical pages are reserved across the
    /// dies up front, ONE multi-page NAND submit programs them, and the
    /// forward/reverse mapping updates, superseded-page invalidations and
    /// (when `queue` is given) recovery-queue appends are applied in a
    /// single vectorized pass. Host write stats are counted here.
    ///
    /// `stamp` is the host write time, programmed into every page's OOB
    /// spare area (and stamped on any backup entries) so a post-crash mount
    /// can rebuild the mapping table — and the recovery queue — from flash
    /// alone.
    ///
    /// Payload sizes are validated up front, so an oversized buffer fails
    /// the whole extent before anything is programmed. A mid-batch NAND
    /// fault leaves the leading pages fully applied — mapped, pre-images
    /// invalidated, backup entries pushed — before the error returns.
    /// The programmed prefix is the *acknowledged* part of the extent: its
    /// length is visible to the host as the `host_writes` delta.
    pub fn program_extent_mapped(
        &mut self,
        lba: Lba,
        data: &[Bytes],
        stamp: SimTime,
        queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let page_size = self.config.geometry().page_size();
        for page in data {
            if page.len() > page_size as usize {
                return Err(NandError::PayloadTooLarge {
                    len: page.len(),
                    page_size,
                }
                .into());
            }
        }
        let ppas = self.allocate_extent(data.len())?;
        let batch: Vec<(Ppa, Bytes, OobTag)> = ppas
            .iter()
            .enumerate()
            .map(|(i, &ppa)| {
                (
                    ppa,
                    data[i].clone(),
                    OobTag::live(lba.offset(i as u64), stamp),
                )
            })
            .collect();
        let (done, result) = self.device.program_pages_tagged(batch);
        let protect = queue.is_some();
        let mut olds = Vec::with_capacity(done);
        for (i, &new) in ppas[..done].iter().enumerate() {
            let l = lba.offset(i as u64);
            self.rmap[new.index() as usize] = Some(l);
            let old = self.mapping.set(l, Some(new));
            if let Some(old) = old {
                self.supersede(old, protect)?;
            }
            olds.push(old);
        }
        if let Some(queue) = queue {
            queue.push_extent(lba, &olds, stamp);
        }
        self.stats.host_writes += done as u64;
        result.map_err(Into::into)
    }

    /// Unmaps `len` consecutive logical pages in one batched pass,
    /// superseding their current versions — protected when `protect` is
    /// set — and returns the per-page old mappings (in extent order) for
    /// the caller's backup entries. Host trim stats are counted here.
    pub fn unmap_extent(&mut self, lba: Lba, len: u32, protect: bool) -> Result<Vec<Option<Ppa>>> {
        let mut olds = Vec::with_capacity(len as usize);
        for i in 0..len as u64 {
            let old = self.mapping.set(lba.offset(i), None);
            if let Some(old) = old {
                self.supersede(old, protect)?;
            }
            olds.push(old);
        }
        self.stats.host_trims += len as u64;
        Ok(olds)
    }

    /// Garbage collection ahead of a host write of `pages` upcoming
    /// programs — the only GC entry point. One engine (the resumable
    /// [`GcJob`], driven by [`gc_pump`](Self::gc_pump)) runs under one of
    /// two policies that differ only in when collection starts and how much
    /// one entry may migrate. `target` is the reserve plus enough whole
    /// blocks to absorb the write, so a batched extent cannot run the
    /// allocator dry mid-submit.
    ///
    /// * **Blocking** (the default) starts below `target` and pumps
    ///   unbudgeted: every job runs to its erase, and the drain occupies the
    ///   single-threaded firmware — no host command is serviced until its
    ///   last command lands.
    /// * **Incremental** (`FtlConfig::incremental_gc`) starts
    ///   `gc_low_water_extra` blocks early and migrates `gc_step_pages`
    ///   (scaled by urgency) per entry, pausing the job mid-block between
    ///   writes without stalling the host. If the pool still reaches the
    ///   hard floor (`need + 1`), a second, unbudgeted pump drains to
    ///   `target` stop-the-world (`FtlStats::gc_stw_fallbacks`).
    ///
    /// A NAND error mid-migration parks the job under either policy, so an
    /// entry also runs whenever one is pending. `queue` carries the
    /// SSD-Insider FTL's protection state: invalid pages it protects are
    /// migrated (and their backup entries redirected), not discarded.
    pub fn gc_before_write(
        &mut self,
        pages: u64,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block() as u64;
        let need = pages.div_ceil(ppb) as usize;
        let target = GC_RESERVE_BLOCKS as usize + need;
        let incremental = self.config.incremental_gc_enabled();
        let (mut low, mut step) = (target, u64::MAX);
        if incremental {
            low += self.config.gc_low_water_extra_blocks() as usize;
            step = u64::from(self.config.gc_step_budget_pages());
        }
        if self.free_count >= low && self.gc_job.is_none() {
            // The common no-GC case returns before the timer starts, so
            // `gc_ns` stays exactly zero for workloads that never collect.
            return Ok(());
        }
        let started = Instant::now();
        let copies_before = self.stats.gc_page_copies;
        let pause_before = self.device.parallel_busy_ns();
        self.device.set_gc_context(true);
        let mut result = self.gc_pump(target, low, step, queue.as_deref_mut());
        let mut stop_the_world = !incremental;
        if incremental && result.is_ok() && self.free_count < need + 1 {
            // Reserve exhausted despite the urgency ramp.
            self.stats.gc_stw_fallbacks += 1;
            result = self.gc_pump(target, target, u64::MAX, queue);
            stop_the_world = true;
        }
        self.device.set_gc_context(false);
        if stop_the_world {
            let horizon = self.device.gc_horizon_ns();
            self.device.stall_host_until(horizon);
        }
        let migrated = self.stats.gc_page_copies - copies_before;
        self.stats.gc_migrations_max = self.stats.gc_migrations_max.max(migrated);
        self.stats.gc_ns += started.elapsed().as_nanos() as u64;
        let pause = self.device.parallel_busy_ns() - pause_before;
        if pause > 0 {
            self.gc_pause_hist.record(pause);
        }
        result
    }

    /// One pump of the engine: resume the pending job, reclaim while the
    /// pool is below `target`, then top up towards `low`,
    /// until `step × (1 + deficit below low)` pages have been migrated —
    /// the urgency ramp that keeps the incremental fallback cold under
    /// steady load. `step = u64::MAX` drains and leaves no job pending.
    fn gc_pump(
        &mut self,
        target: usize,
        low: usize,
        step: u64,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let urgency = 1 + low.saturating_sub(self.free_count) as u64;
        let mut budget = step.saturating_mul(urgency);
        while budget > 0 {
            if self.gc_job.is_some() {
                budget = budget.saturating_sub(self.gc_step(budget, queue.as_deref_mut())?);
                continue;
            }
            if self.free_count < target {
                // Below the reserve the write cannot proceed: nothing
                // reclaimable is a hard error.
                if !self.start_job(queue.as_deref()) {
                    return Err(FtlError::NoReclaimableSpace);
                }
                continue;
            }
            // Above target but below the low watermark: proactive top-up,
            // stopping quietly when nothing is reclaimable.
            if self.free_count < low && self.start_job(queue.as_deref()) {
                continue;
            }
            break;
        }
        Ok(())
    }

    /// Selects a victim and opens the engine's job on it, logged at
    /// selection time; `false` when nothing is reclaimable.
    fn start_job(&mut self, queue: Option<&RecoveryQueue>) -> bool {
        debug_assert!(
            self.gc_job.is_none(),
            "victim selection must not run with a job pending"
        );
        let Some(victim) = self.select_victim(queue) else {
            return false;
        };
        self.log_victim(victim);
        self.gc_job = Some(GcJob { victim, cursor: 0 });
        true
    }

    /// Pumps the pending [`GcJob`] by up to `budget` page migrations and
    /// returns how many it performed. Offsets needing no copy (free pages,
    /// unprotected invalid pages) are skipped for free. Reaching the end of
    /// the block finishes the job: the victim is erased and returned to the
    /// free pool, or retired as *bad* if the erase hits its endurance limit
    /// — the job is simply dropped and the pump selects another victim.
    fn gc_step(&mut self, budget: u64, mut queue: Option<&mut RecoveryQueue>) -> Result<u64> {
        let mut job = self.gc_job.expect("gc_step requires a pending job");
        let ppb = self.config.geometry().pages_per_block();
        let mut migrated = 0u64;
        self.stats.gc_steps += 1;
        while job.cursor < ppb {
            if migrated >= budget {
                self.gc_job = Some(job);
                return Ok(migrated);
            }
            let copies = self.stats.gc_page_copies;
            if let Err(e) = self.migrate_page(job.victim, job.cursor, queue.as_deref_mut()) {
                // Per-page migration is atomic; parking the cursor on the
                // failed offset leaves it cleanly re-examinable.
                self.gc_job = Some(job);
                return Err(e);
            }
            migrated += self.stats.gc_page_copies - copies;
            job.cursor += 1;
        }
        // Every offset handled: erase, close out the job.
        self.gc_job = None;
        match self.finish_erase(job.victim) {
            Ok(()) => {
                self.stats.gc_invocations += 1;
                Ok(migrated)
            }
            // Retirement reclaims no block, but the job is done; the
            // internal marker never reaches the host.
            Err(FtlError::BadBlockRetired) => Ok(migrated),
            Err(e) => Err(e),
        }
    }

    /// Runs the pending job (if any) to completion, unbudgeted — how the
    /// quiescence helpers reach a clean `gc_job == None` state.
    pub fn gc_drain_job(&mut self, mut queue: Option<&mut RecoveryQueue>) -> Result<()> {
        while self.gc_job.is_some() {
            self.gc_step(u64::MAX, queue.as_deref_mut())?;
        }
        Ok(())
    }

    /// Whether a GC job is parked mid-block (paused budget or NAND error).
    pub fn gc_job_pending(&self) -> bool {
        self.gc_job.is_some()
    }

    /// Normalized GC debt in `[0, 1]` (see [`Ftl::gc_debt`]): zero at or
    /// above the incremental low watermark, rising linearly to `1.0` as
    /// the free pool approaches exhaustion. Write pacing multiplies its
    /// refill rate by `1 − debt`.
    ///
    /// [`Ftl::gc_debt`]: crate::Ftl::gc_debt
    pub fn gc_debt(&self) -> f64 {
        let low = GC_RESERVE_BLOCKS as usize + self.config.gc_low_water_extra_blocks() as usize;
        if self.free_count >= low || low <= 1 {
            return 0.0;
        }
        (((low - self.free_count) as f64) / ((low - 1) as f64)).min(1.0)
    }

    /// Snapshot of the per-GC-entry foreground pause histogram (see the
    /// `gc_pause_hist` field): how much device makespan each GC entry
    /// inserted ahead of the foreground.
    pub fn gc_pause_latency(&self) -> KindLatency {
        KindLatency::from_histogram(&self.gc_pause_hist)
    }

    /// Picks the victim with the most reclaimable pages (excluding free,
    /// active and retired-bad blocks), or `None` when nothing is
    /// reclaimable — the paper prototype's greedy rule (§V-C).
    ///
    /// **Reclaimable first, die second**: the most reclaimable block on the
    /// whole device wins; between equal counts, the one on the die with the
    /// fewest free blocks, then the lowest block index. The die matters
    /// because an erased victim refills only its own chip's free pool —
    /// programs cannot cross dies — and a die that never gets a free block
    /// drops out of the allocator's striping. It may only break ties,
    /// though. Ordering chips driest-first and picking within the first one
    /// was measured to starve dies instead: with the default reserve nearly
    /// every die has zero free blocks when GC runs, the lowest chip index
    /// won, and GC ground through that die's almost-valid blocks while the
    /// others' garbage was never collected (`dev-churn-gc`: 2.2 of 64 pages
    /// freed per erase and `nand.die_util` 0.40, against 45 and 0.99 with
    /// this rule; DESIGN.md §13).
    ///
    /// Debug builds also reconcile the whole index against a recount of
    /// the protected pages (see
    /// [`reconcile_victim_index`](Self::reconcile_victim_index)), then run
    /// the full-device scan on that recount and assert it agrees with the
    /// index — the in-process differential oracle. `queue` feeds only those
    /// checks, hence unused in release.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn select_victim(&mut self, queue: Option<&RecoveryQueue>) -> Option<Pba> {
        let indexed = self.select_victim_indexed();
        #[cfg(debug_assertions)]
        {
            let protected = self.reconcile_victim_index(queue);
            let scanned = self.select_victim_scan(&protected);
            assert_eq!(indexed, scanned, "victim selectors diverged");
        }
        indexed
    }

    /// Debug-build check of everything the victim index is built from.
    /// The protected pages per block are recounted from the pages `queue`'s
    /// entries hold, and must equal the FTL's counts. Every block's index
    /// slot must be exactly what its flags and `invalid − protected` imply,
    /// each filed slot must be in its bucket, and the buckets must hold
    /// nothing else. The selector comparison alone only sees the blocks
    /// that win; a missed refresh on any other block shows up here at the
    /// next selection (and the SSD-Insider mount runs it once its queue is
    /// rebuilt). Returns the recount, for the selector scan.
    #[cfg(debug_assertions)]
    pub fn reconcile_victim_index(&self, queue: Option<&RecoveryQueue>) -> Vec<u32> {
        let g = self.config.geometry();
        let mut recount = vec![0u32; g.total_blocks() as usize];
        for ppa in queue
            .into_iter()
            .flat_map(RecoveryQueue::iter)
            .filter_map(|e| e.old)
        {
            recount[ppa.block(g).index() as usize] += 1;
        }
        assert_eq!(
            self.protected_per_block, recount,
            "protected counts diverged from the recovery queue"
        );
        let bpc = g.blocks_per_chip();
        let mut filed = 0;
        for raw in 0..g.total_blocks() {
            let i = raw as usize;
            let candidate = !(self.free_flags[i] || self.bad_flags[i] || self.active_flags[i]);
            let reclaimable = self.invalid_per_block[i] - recount[i];
            let want = (candidate && reclaimable > 0).then_some(reclaimable);
            assert_eq!(
                self.victims.slot[i], want,
                "victim index slot for block {raw} is stale"
            );
            if let Some(r) = want {
                assert!(
                    self.victims.buckets[(raw / bpc) as usize][r as usize].contains(&raw),
                    "block {raw} is missing from its bucket"
                );
                filed += 1;
            }
        }
        let held: usize = self
            .victims
            .buckets
            .iter()
            .flatten()
            .map(BTreeSet::len)
            .sum();
        assert_eq!(held, filed, "victim index holds blocks no slot names");
        recount
    }

    /// Index-backed victim selection: each chip's best candidate (O(1)
    /// amortized), then the best of those by `(reclaimable, fewest free
    /// blocks, lowest chip)`.
    fn select_victim_indexed(&mut self) -> Option<Pba> {
        let mut best: Option<(u32, u32, usize)> = None;
        for (chip, pool) in self.free.iter().enumerate() {
            let Some((raw, r)) = self.victims.best(chip) else {
                continue;
            };
            if best.is_none_or(|(_, br, free)| r > br || (r == br && pool.len() < free)) {
                best = Some((raw, r, pool.len()));
            }
        }
        best.map(|(raw, ..)| Pba::new(raw))
    }

    /// O(total-blocks) scan — the debug-build differential oracle for the
    /// index, stating the rule flat: one pass in block order keeping the
    /// first strict maximum of `(reclaimable, fewest free blocks on its
    /// chip)`. Protected counts are the recount from the queue's entries
    /// (not the FTL's own), so the two selectors have independent inputs.
    #[cfg(debug_assertions)]
    fn select_victim_scan(&self, protected: &[u32]) -> Option<Pba> {
        let g = self.config.geometry();
        let bpc = g.blocks_per_chip();
        let mut best: Option<(Pba, u32, usize)> = None;
        for raw in 0..g.total_blocks() {
            let i = raw as usize;
            if self.active_flags[i] || self.free_flags[i] || self.bad_flags[i] {
                continue;
            }
            let reclaimable = self.invalid_per_block[i] - protected[i];
            if reclaimable == 0 {
                continue;
            }
            let free = self.free[(raw / bpc) as usize].len();
            if best.is_none_or(|(_, r, f)| reclaimable > r || (reclaimable == r && free < f)) {
                best = Some((Pba::new(raw), reclaimable, free));
            }
        }
        best.map(|(pba, ..)| pba)
    }

    /// Migrates (or skips) one page offset of a GC victim — the atomic unit
    /// (copy, remap, invalidate source, clear source rmap) the [`GcJob`]
    /// engine is built from. Physical page state is re-read at execution time,
    /// so re-running an offset (resume after a pause, retry after an
    /// injected fault) is always safe: an already-migrated page has become
    /// `Invalid`-unprotected or `Free` and falls through without work.
    fn migrate_page(
        &mut self,
        victim: Pba,
        off: u32,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let g = *self.config.geometry();
        let ppa = victim.page(&g, off);
        match self.device.page_state(ppa)? {
            PageState::Valid => {
                let lba = self.rmap[ppa.index() as usize]
                    .expect("valid page must have a reverse mapping");
                // Relocation moves a buffer handle, not bytes: the
                // read clones the stored `Bytes` (refcount bump) and
                // the program hands the same backing allocation to
                // the destination page.
                let data = self.device.read(ppa)?;
                // Carry the host write stamp across the relocation;
                // the fresh sequence number marks the copy as newer
                // than its source, which is how a post-crash mount
                // resolves a crash between this program and the
                // source invalidation (newest sequence wins).
                let stamp = self.device.oob(ppa)?.map_or(SimTime::ZERO, |o| o.stamp);
                let new = self.allocate()?;
                self.device
                    .program_tagged(new, data, OobTag::live(lba, stamp))?;
                self.rmap[new.index() as usize] = Some(lba);
                self.mapping.set(lba, Some(new));
                self.supersede(ppa, false)?;
                self.rmap[ppa.index() as usize] = None;
                self.stats.gc_page_copies += 1;
            }
            PageState::Invalid => {
                let protected = queue.as_ref().is_some_and(|q| q.is_protected(ppa));
                if protected {
                    // Delayed deletion: the old version must survive
                    // the erase, so copy it and redirect its backup
                    // entry.
                    let lba = self.rmap[ppa.index() as usize]
                        .expect("protected page must have a reverse mapping");
                    // Same zero-copy relocation as the valid path:
                    // the protected old version's backing buffer is
                    // shared into its new home, never duplicated.
                    let data = self.device.read(ppa)?;
                    // A backup tag: the copy holds a superseded
                    // version, so a post-crash mount must never pick
                    // it as the current mapping — but the preserved
                    // stamp keeps it eligible for recovery-queue
                    // reconstruction.
                    let stamp = self.device.oob(ppa)?.map_or(SimTime::ZERO, |o| o.stamp);
                    let new = self.allocate()?;
                    self.device
                        .program_tagged(new, data, OobTag::backup(lba, stamp))?;
                    // The copy holds an *old* version, not live data: it
                    // is invalid and protected from birth.
                    self.supersede(new, true)?;
                    self.rmap[new.index() as usize] = Some(lba);
                    queue
                        .as_mut()
                        .expect("protection implies a queue")
                        .relocate(ppa, new);
                    self.unprotect(ppa);
                    self.stats.gc_page_copies += 1;
                    self.stats.gc_protected_copies += 1;
                }
                self.rmap[ppa.index() as usize] = None;
            }
            PageState::Free => {}
        }
        Ok(())
    }

    /// Erases a fully migrated victim to the back of its chip's free pool,
    /// or retires it as *bad* when the erase hits its endurance limit
    /// (reported as [`FtlError::BadBlockRetired`]).
    fn finish_erase(&mut self, victim: Pba) -> Result<()> {
        let raw = victim.index();
        debug_assert_eq!(
            self.protected_per_block[raw as usize], 0,
            "migration must have relocated every protected page"
        );
        match self.device.erase(victim) {
            Ok(()) => {
                self.invalid_per_block[raw as usize] = 0;
                self.free_flags[raw as usize] = true;
                self.free_count += 1;
                self.refresh_victim(raw);
                let chip = (raw / self.config.geometry().blocks_per_chip()) as usize;
                self.free[chip].push_back(victim);
                self.stats.gc_erases += 1;
                Ok(())
            }
            Err(insider_nand::NandError::BlockWornOut(_)) => {
                // Retire the block: its pages are all invalid and
                // unprotected (migrated above), so nothing is lost —
                // the capacity just shrinks by one block.
                self.bad_flags[raw as usize] = true;
                self.invalid_per_block[raw as usize] = 0;
                self.refresh_victim(raw);
                self.stats.bad_blocks += 1;
                Err(FtlError::BadBlockRetired)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Marks an old version valid again (no-op unless invalid).
    fn revalidate(&mut self, ppa: Ppa) -> Result<()> {
        if self.device.page_state(ppa)? == PageState::Invalid {
            self.device.revalidate(ppa)?;
            let raw = ppa.block(self.config.geometry()).index();
            self.invalid_per_block[raw as usize] -= 1;
            self.refresh_victim(raw);
        }
        Ok(())
    }

    /// Restores a mapping entry to `old` (rollback step), invalidating the
    /// current version and reviving the old one.
    pub fn restore_mapping(&mut self, lba: Lba, old: Option<Ppa>) -> Result<()> {
        let current = self.mapping.set(lba, old);
        if let Some(cur) = current {
            self.supersede(cur, false)?;
        }
        if let Some(ppa) = old {
            self.revalidate(ppa)?;
            debug_assert_eq!(
                self.rmap[ppa.index() as usize],
                Some(lba),
                "restored page must reverse-map to its logical page"
            );
        }
        Ok(())
    }

    /// Re-registers a protection that a post-crash mount reconstructed from
    /// the OOB scan: restores the reverse mapping of the protected old
    /// version (lost with DRAM) and bumps its block's protected count.
    /// The page is already invalid — mount revalidates only the newest
    /// copy of each logical page — so superseding it only protects it.
    pub fn note_mount_protected(&mut self, ppa: Ppa, lba: Lba) -> Result<()> {
        self.rmap[ppa.index() as usize] = Some(lba);
        self.supersede(ppa, true)
    }

    /// Rebuilds the mount-scan inputs — per-LBA record chains, per-block
    /// programmed watermarks and per-block minimum sequence numbers — with
    /// one loop over the blocks in index order: one charged `read_oob` per
    /// programmed page, collected flat and sorted once into the canonical
    /// mount order (logical page, then `(stamp, seq)`, oldest version
    /// first; `seq` is unique, so the order is total).
    fn mount_scan(&mut self) -> Result<MountScan> {
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks() as usize;
        let ppb = g.pages_per_block();
        let mut scanned = Vec::new();
        let mut programmed = vec![0u32; total_blocks];
        let mut min_seq: Vec<Option<u64>> = vec![None; total_blocks];
        for raw in 0..total_blocks as u32 {
            let i = raw as usize;
            let pba = Pba::new(raw);
            let count = self.device.block(pba)?.write_ptr().unwrap_or(ppb);
            programmed[i] = count;
            for off in 0..count {
                let ppa = pba.page(&g, off);
                let Some(rec) = self.device.read_oob(ppa)? else {
                    continue; // untagged page: invisible to recovery
                };
                let slot = &mut min_seq[i];
                *slot = Some(slot.map_or(rec.seq, |m| m.min(rec.seq)));
                scanned.push((
                    rec.lba,
                    ScanPage {
                        ppa,
                        seq: rec.seq,
                        stamp: rec.stamp,
                        live: rec.live,
                    },
                ));
            }
        }
        scanned.sort_unstable_by_key(|e| (e.0.index(), e.1.stamp, e.1.seq));
        Ok((scanned, programmed, min_seq))
    }

    /// Power-cycles the device and rebuilds every DRAM structure from the
    /// per-page OOB records — the SSD-Insider power-on mount path.
    ///
    /// The NAND keeps page *contents*, OOB records and erase counters across
    /// a power cut; everything else — the mapping table, the reverse map,
    /// per-block valid/invalid/protected counts, the free pools and the
    /// victim index — is DRAM and is reconstructed here:
    ///
    /// 1. Every programmed page's spare area is read, one `read_oob` per
    ///    page, charged through the command scheduler.
    /// 2. Per logical page, the **newest live copy wins**: the live-tagged
    ///    record with the highest device sequence number is revalidated and
    ///    mapped; every superseded or backup copy stays invalid. A crash
    ///    between a GC copy and its source invalidation leaves two live
    ///    copies of one version — the copy's fresher sequence number breaks
    ///    the tie deterministically.
    /// 3. Blocks are reclassified: unprogrammed → free pool (index order),
    ///    at-or-over the endurance limit → retired bad (conservative: a
    ///    worn block may still have had one program cycle left, but mount
    ///    cannot tell and a lost block is cheaper than a lost erase), the
    ///    most recently opened partial block per chip → active, everything
    ///    else → closed in-service, and the victim index is rebuilt.
    ///
    /// Returns the scan as a flat vector sorted by logical page, each
    /// page's run ordered oldest version first by `(stamp, seq)`, so the
    /// caller can rebuild version-history state (the recovery queue)
    /// without re-reading flash. Cumulative statistics survive (they model
    /// NVRAM-backed counters, as firmware keeps wear data); the protected
    /// counts restart at zero and are re-filled by the caller via
    /// [`note_mount_protected`].
    ///
    /// [`note_mount_protected`]: Self::note_mount_protected
    pub fn remount(&mut self) -> Result<Vec<(Lba, ScanPage)>> {
        self.device.power_cut();
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks();
        let ppb = g.pages_per_block();
        let chips = g.total_chips() as usize;
        let endurance = self.config.nand().endurance_limit();

        // Drop every DRAM structure.
        self.mapping = MappingTable::new(self.config.logical_pages());
        self.rmap = vec![None; g.total_pages() as usize];
        self.free = vec![VecDeque::new(); chips];
        self.free_flags = vec![false; total_blocks as usize];
        self.free_count = 0;
        self.bad_flags = vec![false; total_blocks as usize];
        self.active_flags = vec![false; total_blocks as usize];
        self.invalid_per_block = vec![0; total_blocks as usize];
        self.protected_per_block = vec![0; total_blocks as usize];
        self.active = vec![None; chips];
        self.next_chip = 0;
        self.victims = VictimIndex::new(total_blocks as usize, ppb as usize, g.blocks_per_chip());
        // A half-done incremental job does not survive power loss: its
        // victim is re-scored from physical state like every other block.
        self.gc_job = None;

        // Rebuild the scan inputs from every programmed page's OOB record.
        let (chains, programmed, min_seq) = self.mount_scan()?;
        self.mount_scan_entries = chains.len() as u64;

        // Conflict resolution: the newest live copy of each logical page is
        // the mount-time mapping; everything else stays invalid. The scan
        // is sorted by logical page, so each page is one adjacent run.
        let mut winners: Vec<Ppa> = Vec::new();
        let mut i = 0;
        while i < chains.len() {
            let lba = chains[i].0;
            let mut j = i + 1;
            while j < chains.len() && chains[j].0 == lba {
                j += 1;
            }
            let run = &chains[i..j];
            i = j;
            if lba.index() >= self.mapping.len() {
                continue; // stale record beyond the exported logical range
            }
            if let Some(winner) = run
                .iter()
                .map(|(_, p)| p)
                .filter(|p| p.live)
                .max_by_key(|p| p.seq)
            {
                winners.push(winner.ppa);
                self.rmap[winner.ppa.index() as usize] = Some(lba);
                self.mapping.set(lba, Some(winner.ppa));
            }
        }
        // Revalidate in physical order — the winners arrive in logical
        // order, and hundreds of thousands of scattered page-state writes
        // are cache-miss-bound.
        winners.sort_unstable_by_key(|p| p.index());
        self.device.revalidate_many(&winners)?;

        // Reclassify every block from its physical state.
        let mut in_service: Vec<(u64, u32)> = Vec::new();
        for raw in 0..total_blocks {
            let i = raw as usize;
            let block = self.device.block(Pba::new(raw))?;
            let wear = block.erase_count();
            let valid = block.valid_pages();
            self.invalid_per_block[i] = programmed[i] - valid;
            if wear >= endurance {
                self.bad_flags[i] = true;
                continue;
            }
            if programmed[i] == 0 {
                self.free_flags[i] = true;
                self.free_count += 1;
                self.free[(raw / g.blocks_per_chip()) as usize].push_back(Pba::new(raw));
            } else {
                in_service.push((min_seq[i].unwrap_or(0), raw));
            }
        }

        // The most recently opened partial block of each chip resumes as its
        // active block; any other partial block is closed, its unprogrammed
        // tail stranded until GC erases it (same as an aborted extent).
        let mut pick: Vec<Option<(u64, u32)>> = vec![None; chips];
        for &(seq, raw) in &in_service {
            if programmed[raw as usize] < ppb {
                let chip = (raw / g.blocks_per_chip()) as usize;
                if pick[chip].is_none_or(|(s, _)| seq > s) {
                    pick[chip] = Some((seq, raw));
                }
            }
        }
        for (chip, choice) in pick.iter().enumerate() {
            if let Some((_, raw)) = *choice {
                self.active[chip] = Some(Pba::new(raw));
                self.active_flags[raw as usize] = true;
            }
        }

        for &(_, raw) in &in_service {
            self.refresh_victim(raw);
        }
        self.stats.mounts += 1;
        Ok(chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    fn base() -> FtlBase {
        // 16 blocks x 16 pages, ~1 MiB; 2-block reserve.
        FtlBase::new(FtlConfig::new(Geometry::tiny()))
    }

    /// A one-page host write without the GC check: the callers place that
    /// themselves.
    fn put(b: &mut FtlBase, lba: Lba, data: Bytes) {
        b.program_extent_mapped(lba, &[data], SimTime::ZERO, None)
            .unwrap();
    }

    fn get(b: &mut FtlBase, lba: Lba) -> Option<Bytes> {
        b.read_extent_mapped(lba, 1).unwrap().pop().flatten()
    }

    #[test]
    fn allocation_is_sequential_within_block() {
        let mut b = base();
        let p0 = b.allocate().unwrap();
        b.device.program(p0, Bytes::from_static(b"a")).unwrap();
        let p1 = b.allocate().unwrap();
        assert_eq!(p1.index(), p0.index() + 1);
    }

    #[test]
    fn allocation_skips_to_new_block_when_full() {
        let mut b = base();
        for i in 0..16 {
            let p = b.allocate().unwrap();
            assert_eq!(p.index(), i);
            b.device.program(p, Bytes::from_static(b"x")).unwrap();
        }
        let p = b.allocate().unwrap();
        assert_eq!(p.index(), 16); // first page of next free block
    }

    #[test]
    fn program_extent_tracks_both_maps() {
        fn put_queued(b: &mut FtlBase, q: &mut RecoveryQueue, lba: Lba, data: &'static [u8]) {
            b.program_extent_mapped(lba, &[Bytes::from_static(data)], SimTime::ZERO, Some(q))
                .unwrap();
        }
        let mut b = base();
        let mut q = RecoveryQueue::new();
        let lba = Lba::new(3);
        put_queued(&mut b, &mut q, lba, b"v1");
        assert_eq!(
            (q.len(), q.protected_count()),
            (1, 0),
            "first write: no pre-image"
        );
        let ppa = b.mapping.get(lba).unwrap();
        assert_eq!(b.rmap_of(ppa), Some(lba));
        put_queued(&mut b, &mut q, lba, b"v2");
        assert!(q.is_protected(ppa), "superseded page is the pre-image");
        assert_ne!(b.mapping.get(lba), Some(ppa));
    }

    #[test]
    fn protected_overwrite_keeps_the_slot_and_retirement_moves_it_by_one() {
        let mut b = base();
        let mut q = RecoveryQueue::new();
        // Fill block 0, close it by writing one page into block 1, then
        // overwrite lba 0 unprotected so block 0 is a candidate (r = 1).
        let page = Bytes::from_static(b"v1");
        b.program_extent_mapped(Lba::new(0), &vec![page.clone(); 17], SimTime::ZERO, None)
            .unwrap();
        put(&mut b, Lba::new(0), page.clone());
        let before = b.victims.slot[0];
        assert_eq!(before, Some(1));

        // A protected overwrite raises invalid and protected together.
        b.program_extent_mapped(Lba::new(1), &[page], SimTime::ZERO, Some(&mut q))
            .unwrap();
        assert_eq!(b.invalid_per_block[0], 2);
        assert_eq!(b.protected_per_block[0], 1);
        assert_eq!(
            b.victims.slot[0], before,
            "net-zero change must not re-file"
        );

        // Retiring the entry releases the page: one more reclaimable page.
        b.retire_protected(&mut q, SimTime::from_secs(1));
        assert!(q.is_empty());
        assert_eq!(b.protected_per_block[0], 0);
        assert_eq!(b.victims.slot[0], Some(2));
    }

    #[test]
    fn gc_reclaims_invalid_pages() {
        let mut b = base();
        // Overwrite one logical page enough times to exhaust the free pool.
        let lba = Lba::new(0);
        for i in 0..(15 * 16 + 8) {
            b.gc_before_write(1, None).unwrap();
            put(
                &mut b,
                lba,
                Bytes::copy_from_slice(format!("{i}").as_bytes()),
            );
        }
        assert!(b.stats.gc_invocations > 0);
        assert!(b.free_blocks() >= 2);
        // The single live page still reads back the latest value.
        let data = get(&mut b, lba).unwrap();
        assert_eq!(data.as_ref(), format!("{}", 15 * 16 + 8 - 1).as_bytes());
    }

    #[test]
    fn gc_migrates_valid_pages() {
        let mut b = base();
        // Interleave one cold (never overwritten) page into every block of
        // hot overwrites, so each GC victim holds live data to migrate.
        churn(&mut b, 16 * 16);
        assert!(b.stats.gc_page_copies > 0);
        for k in 0..16u64 {
            assert_eq!(
                get(&mut b, Lba::new(100 + k)).unwrap().as_ref(),
                b"cold",
                "cold page {k} must survive GC"
            );
        }
    }

    #[test]
    fn extent_allocation_matches_scalar_striping() {
        // The reservation path must hand out exactly the PPAs the scalar
        // allocate-program loop would, in the same die-striped order.
        let mut scalar = base();
        let mut expected = Vec::new();
        for _ in 0..20 {
            let p = scalar.allocate().unwrap();
            scalar.device.program(p, Bytes::from_static(b"s")).unwrap();
            expected.push(p);
        }
        let mut batched = base();
        let payloads = vec![Bytes::from_static(b"s"); 20];
        batched
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO, None)
            .unwrap();
        let got: Vec<Ppa> = (0..20)
            .map(|i| batched.mapping.get(Lba::new(i)).unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn extent_program_and_read_round_trip() {
        let mut b = base();
        let payloads: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("p{i}").as_bytes()))
            .collect();
        b.program_extent_mapped(Lba::new(10), &payloads, SimTime::ZERO, None)
            .unwrap();
        assert_eq!(b.stats.host_writes, 5);
        let out = b.read_extent_mapped(Lba::new(9), 7).unwrap();
        assert_eq!(out[0], None, "lba 9 never written");
        assert_eq!(out[6], None, "lba 15 never written");
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(out[i + 1].as_ref(), Some(payload));
        }
    }

    #[test]
    fn extent_overwrite_returns_pre_images_to_queue() {
        let mut b = base();
        let v1 = vec![Bytes::from_static(b"v1"); 3];
        b.program_extent_mapped(Lba::new(0), &v1, SimTime::ZERO, None)
            .unwrap();
        let olds: Vec<Ppa> = (0..3)
            .map(|i| b.mapping.get(Lba::new(i)).unwrap())
            .collect();
        let mut q = RecoveryQueue::new();
        let v2 = vec![Bytes::from_static(b"v2"); 3];
        b.program_extent_mapped(Lba::new(0), &v2, SimTime::from_secs(1), Some(&mut q))
            .unwrap();
        assert_eq!(q.len(), 3);
        for old in olds {
            assert!(q.is_protected(old), "pre-image {old} must be protected");
        }
    }

    #[test]
    fn oversized_extent_payload_fails_before_programming() {
        let mut b = base();
        let page = b.config().geometry().page_size() as usize;
        let payloads = vec![Bytes::from_static(b"ok"), Bytes::from(vec![0u8; page + 1])];
        assert!(b
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO, None)
            .is_err());
        assert_eq!(
            b.device.stats().programs,
            0,
            "whole extent validated up front"
        );
        assert_eq!(b.mapping.get(Lba::new(0)), None);
    }

    #[test]
    fn unmap_extent_invalidates_and_reports() {
        let mut b = base();
        b.program_extent_mapped(
            Lba::new(0),
            &vec![Bytes::from_static(b"x"); 2],
            SimTime::ZERO,
            None,
        )
        .unwrap();
        let olds = b.unmap_extent(Lba::new(0), 4, false).unwrap();
        assert_eq!(olds.len(), 4);
        assert!(olds[0].is_some() && olds[1].is_some());
        assert_eq!(olds[2], None);
        assert_eq!(b.stats.host_trims, 4);
        assert_eq!(
            b.read_extent_mapped(Lba::new(0), 2).unwrap(),
            vec![None, None]
        );
    }

    #[test]
    fn check_extent_bounds() {
        let b = base();
        let max = b.logical_pages();
        assert!(b.check_extent(Lba::new(0), max as u32).is_ok());
        assert!(b.check_extent(Lba::new(0), 1).is_ok());
        assert!(matches!(
            b.check_extent(Lba::new(max), 1),
            Err(FtlError::LbaOutOfRange { lba, .. }) if lba == Lba::new(max)
        ));
        assert!(
            b.check_extent(Lba::new(max), 0).is_ok(),
            "empty extent is a no-op"
        );
        assert!(matches!(
            b.check_extent(Lba::new(max - 2), 4),
            Err(FtlError::LbaOutOfRange { lba, .. }) if lba == Lba::new(max)
        ));
        assert!(matches!(
            b.check_extent(Lba::new(u64::MAX), 2),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    /// Mixed hot/cold churn that forces GC with live pages on every victim.
    fn churn(b: &mut FtlBase, rounds: u64) {
        for i in 0..rounds {
            b.gc_before_write(1, None).unwrap();
            let (lba, data) = if i % 16 == 0 {
                (Lba::new(100 + i / 16), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            put(b, lba, data);
        }
    }

    #[test]
    fn gc_timer_accumulates_only_when_collecting() {
        let mut b = base();
        put(&mut b, Lba::new(0), Bytes::from_static(b"x"));
        b.gc_before_write(1, None).unwrap();
        assert_eq!(b.stats.gc_ns, 0, "no collection, no timing noise");
        churn(&mut b, 16 * 16 * 2);
        assert!(b.stats.gc_invocations > 0);
        assert!(b.stats.gc_ns > 0, "collections must be timed");
        assert!(b.stats.gc_migrations_max > 0);
    }

    #[test]
    fn unbudgeted_gc_restores_full_reserve() {
        let mut b = base();
        churn(&mut b, 16 * 16 * 2);
        b.gc_before_write(1, None).unwrap();
        assert!(b.free_blocks() > GC_RESERVE_BLOCKS as usize);
    }

    #[test]
    fn victim_log_records_reclaims_when_enabled() {
        let mut b = FtlBase::new(FtlConfig::new(Geometry::tiny()).record_gc_victims(true));
        churn(&mut b, 16 * 16 * 2);
        let log = b.gc_victims();
        assert!(!log.is_empty());
        assert_eq!(log.len() as u64, b.stats.gc_invocations);
    }

    #[test]
    fn victim_log_stays_empty_by_default() {
        let mut b = base();
        churn(&mut b, 16 * 16 * 2);
        assert!(b.stats.gc_invocations > 0);
        assert!(b.gc_victims().is_empty());
    }

    /// Hot/cold churn under the configured GC policy, with enough cold
    /// (never rewritten) pages per block that victims cost real migrations.
    /// Returns whether a pump ever left a job paused mid-block.
    fn churn_mixed(b: &mut FtlBase, rounds: u64) -> bool {
        let mut saw_pending = false;
        for i in 0..rounds {
            b.gc_before_write(1, None).unwrap();
            saw_pending |= b.gc_job_pending();
            let (lba, data) = if i.is_multiple_of(2) {
                (Lba::new(100 + i / 2 % 100), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            put(b, lba, data);
        }
        saw_pending
    }

    #[test]
    fn incremental_degenerate_config_reproduces_blocking_exactly() {
        // The flag moves only the trigger and the budget: with the low
        // watermark collapsed onto the blocking trigger and an unbounded
        // step, the incremental policy is the blocking policy — same victim
        // sequence, same stats (modulo the wall-clock timer), same physical
        // mapping, and a fallback that never fires.
        let run = |incremental: bool| {
            let mut cfg = FtlConfig::new(Geometry::tiny()).record_gc_victims(true);
            if incremental {
                cfg = cfg
                    .incremental_gc(true)
                    .gc_low_water_extra(0)
                    .gc_step_pages(u32::MAX);
            }
            let mut b = FtlBase::new(cfg);
            churn_mixed(&mut b, 600);
            b
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.gc_victims(), b.gc_victims());
        let scrub = |mut s: FtlStats| {
            s.gc_ns = 0;
            s
        };
        assert_eq!(scrub(a.stats), scrub(b.stats));
        assert!(a.stats.gc_steps > 0, "one step per victim");
        assert_eq!(a.stats.gc_stw_fallbacks, 0);
        for l in 0..a.logical_pages() {
            assert_eq!(
                a.mapping.get(Lba::new(l)),
                b.mapping.get(Lba::new(l)),
                "physical mapping diverged at logical page {l}"
            );
        }
    }

    #[test]
    fn incremental_gc_pauses_jobs_mid_block_and_preserves_data() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1),
        );
        let saw_pending = churn_mixed(&mut b, 600);
        assert!(
            saw_pending,
            "a 1-page step against multi-valid-page victims must pause mid-block"
        );
        assert!(b.stats.gc_steps > 0);
        assert!(b.stats.gc_invocations > 0);
        b.gc_drain_job(None).unwrap();
        assert!(!b.gc_job_pending());
        // Every cold page survives GC pausing and resuming around it.
        for k in 0..100u64 {
            assert_eq!(
                get(&mut b, Lba::new(100 + k)).unwrap().as_ref(),
                b"cold",
                "cold page {k} lost across paused GC jobs"
            );
        }
    }

    #[test]
    fn stw_fallback_fires_when_the_step_budget_cannot_keep_up() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(0)
                .gc_step_pages(1),
        );
        // Eight blocks of half-valid data: victims cost 8 migrations each,
        // far beyond a 1-page step with a small urgency multiplier.
        for i in 0..128u64 {
            put(&mut b, Lba::new(i), Bytes::from_static(b"v1"));
        }
        for i in (0..128u64).step_by(2) {
            put(&mut b, Lba::new(i), Bytes::from_static(b"v2"));
        }
        // Demand the whole remaining pool at once: the pump cannot reach
        // the hard floor within its budget, so the stop-the-world drain
        // must fire and restore the full reserve.
        let free = b.free_blocks() as u64;
        b.gc_before_write(free * 16, None).unwrap();
        assert_eq!(b.stats.gc_stw_fallbacks, 1);
        assert!(!b.gc_job_pending());
        assert!(
            b.free_blocks() as u64 >= free + 2,
            "blocking fallback must have restored reserve + need blocks"
        );
        for i in 0..128u64 {
            let want: &[u8] = if i % 2 == 0 { b"v2" } else { b"v1" };
            assert_eq!(get(&mut b, Lba::new(i)).unwrap().as_ref(), want);
        }
    }

    #[test]
    fn gc_debt_tracks_the_free_pool() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(2),
        );
        assert_eq!(b.gc_debt(), 0.0);
        let mut last = 0.0f64;
        for i in 0..200u64 {
            put(&mut b, Lba::new(i), Bytes::from_static(b"x"));
            let debt = b.gc_debt();
            assert!(
                debt >= last,
                "debt must not fall while the pool only drains"
            );
            assert!((0.0..=1.0).contains(&debt));
            last = debt;
        }
        // 200 live pages leave at most 3 whole free blocks: below the
        // low watermark of 4, so debt is strictly positive.
        assert!(last > 0.0, "drained pool must report debt");
    }

    #[test]
    fn gc_pause_histogram_records_collection_entries() {
        let mut b = base();
        assert_eq!(b.gc_pause_latency().count, 0);
        churn_mixed(&mut b, 600);
        let pause = b.gc_pause_latency();
        assert!(pause.count > 0, "GC ran, so pauses must be recorded");
        assert!(pause.max_ns > 0);
        assert!(pause.p99_ns >= pause.p50_ns);
        assert!(pause.max_ns >= pause.p99_ns);
    }

    #[test]
    fn remount_drops_a_paused_gc_job() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1),
        );
        let mut i = 0u64;
        while !b.gc_job_pending() {
            assert!(i < 2_000, "churn never paused a job");
            b.gc_before_write(1, None).unwrap();
            let (lba, data) = if i.is_multiple_of(2) {
                (Lba::new(100 + i / 2 % 100), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            put(&mut b, lba, data);
            i += 1;
        }
        b.remount().unwrap();
        assert!(!b.gc_job_pending(), "a job must not survive a power cut");
        // The half-collected victim is ordinary closed state after the
        // rebuild; collection proceeds from scratch.
        churn_mixed(&mut b, 64);
        b.gc_drain_job(None).unwrap();
        assert!(b.free_blocks() >= 2);
    }
}
