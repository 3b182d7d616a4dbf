//! The garbage collector: one resumable job, the pump that drives it
//! under the blocking or incremental policy, page migration (protected
//! pre-images included) and the victim's erase.

use super::InsiderFtl;
use crate::config::GC_RESERVE_BLOCKS;
use crate::{FtlError, Result};
use insider_nand::{KindLatency, OobTag, PageState, Pba, SimTime};
use std::time::Instant;

/// The garbage collector's unit of work under both policies: one selected
/// victim block plus a cursor over its page offsets. [`InsiderFtl::gc_step`]
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
pub(super) struct GcJob {
    pub(super) victim: Pba,
    /// Next page offset to examine in the victim block.
    cursor: u32,
}

impl InsiderFtl {
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
    /// entry also runs whenever one is pending. Invalid pages the recovery
    /// queue protects are migrated (and their backup entries redirected),
    /// not discarded.
    pub(super) fn gc_before_write(&mut self, pages: u64) -> Result<()> {
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
        let mut result = self.gc_pump(target, low, step);
        let mut stop_the_world = !incremental;
        if incremental && result.is_ok() && self.free_count < need + 1 {
            // Reserve exhausted despite the urgency ramp.
            self.stats.gc_stw_fallbacks += 1;
            result = self.gc_pump(target, target, u64::MAX);
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
    fn gc_pump(&mut self, target: usize, low: usize, step: u64) -> Result<()> {
        let urgency = 1 + low.saturating_sub(self.free_count) as u64;
        let mut budget = step.saturating_mul(urgency);
        while budget > 0 {
            if let Some(job) = self.gc_job {
                budget = budget.saturating_sub(self.gc_step(job, budget)?);
                continue;
            }
            if self.free_count < target {
                // Below the reserve the write cannot proceed: nothing
                // reclaimable is a hard error.
                if !self.start_job() {
                    return Err(FtlError::NoReclaimableSpace);
                }
                continue;
            }
            // Above target but below the low watermark: proactive top-up,
            // stopping quietly when nothing is reclaimable.
            if self.free_count < low && self.start_job() {
                continue;
            }
            break;
        }
        Ok(())
    }

    /// Selects a victim and opens the engine's job on it, logged at
    /// selection time; `false` when nothing is reclaimable.
    fn start_job(&mut self) -> bool {
        debug_assert!(
            self.gc_job.is_none(),
            "victim selection must not run with a job pending"
        );
        let Some(victim) = self.select_victim() else {
            return false;
        };
        self.log_victim(victim);
        self.gc_job = Some(GcJob { victim, cursor: 0 });
        true
    }

    /// Pumps `job`, the pending [`GcJob`], by up to `budget` page
    /// migrations and returns how many it performed. Offsets needing no
    /// copy (free pages, unprotected invalid pages) are skipped for free.
    /// Reaching the end of the block finishes the job: the victim is erased
    /// and returned to the free pool, or retired as *bad* if the erase hits
    /// its endurance limit — the job is simply dropped and the pump selects
    /// another victim.
    fn gc_step(&mut self, mut job: GcJob, budget: u64) -> Result<u64> {
        let ppb = self.config.geometry().pages_per_block();
        let mut migrated = 0u64;
        self.stats.gc_steps += 1;
        while job.cursor < ppb {
            if migrated >= budget {
                self.gc_job = Some(job);
                return Ok(migrated);
            }
            let copies = self.stats.gc_page_copies;
            if let Err(e) = self.migrate_page(job.victim, job.cursor) {
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

    /// Runs any parked GC job to completion (quiescence helper for
    /// differential oracles and benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates NAND failures from the drained migrations.
    pub fn gc_quiesce(&mut self) -> Result<()> {
        while let Some(job) = self.gc_job {
            self.gc_step(job, u64::MAX)?;
        }
        Ok(())
    }

    /// Whether a GC job is parked mid-block — paused by the incremental
    /// budget, or stopped by a NAND error under either policy.
    pub fn gc_job_pending(&self) -> bool {
        self.gc_job.is_some()
    }

    /// Per-GC-entry foreground pause percentiles (device makespan growth
    /// per GC entry, under either GC policy).
    pub fn gc_pause_latency(&self) -> KindLatency {
        KindLatency::from_histogram(&self.gc_pause_hist)
    }

    /// Migrates (or skips) one page offset of a GC victim — the atomic unit
    /// (copy, remap, invalidate source, clear source rmap) the [`GcJob`]
    /// engine is built from. Physical page state is re-read at execution time,
    /// so re-running an offset (resume after a pause, retry after an
    /// injected fault) is always safe: an already-migrated page has become
    /// `Invalid`-unprotected or `Free` and falls through without work.
    fn migrate_page(&mut self, victim: Pba, off: u32) -> Result<()> {
        let g = *self.config.geometry();
        let ppa = victim.page(&g, off);
        match self.device.page_state(ppa)? {
            PageState::Valid => {
                // Cannot fire: every path that validates a page reverse-maps it.
                let lba = self
                    .rmap
                    .get(ppa)
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
                self.rmap.set(new, Some(lba));
                self.mapping.set(lba, Some(new));
                self.supersede(ppa, false)?;
                self.rmap.set(ppa, None);
                self.stats.gc_page_copies += 1;
            }
            PageState::Invalid => {
                if self.queue.is_protected(ppa) {
                    // Delayed deletion: the old version must survive
                    // the erase, so copy it and redirect its backup
                    // entry.
                    // Cannot fire: protecting a page keeps or sets its reverse map.
                    let lba = self
                        .rmap
                        .get(ppa)
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
                    self.rmap.set(new, Some(lba));
                    self.queue.relocate(ppa, new);
                    self.blocks.unprotect(victim.index());
                    self.stats.gc_page_copies += 1;
                    self.stats.gc_protected_copies += 1;
                }
                self.rmap.set(ppa, None);
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
        let i = raw as usize;
        debug_assert_eq!(
            self.blocks.protected[i], 0,
            "migration must have relocated every protected page"
        );
        match self.device.erase(victim) {
            Ok(()) => {
                self.blocks.invalid[i] = 0;
                self.blocks.free[i] = true;
                self.free_count += 1;
                self.blocks.refresh(raw);
                let chip = (raw / self.config.geometry().blocks_per_chip()) as usize;
                self.free[chip].push_back(victim);
                self.stats.gc_erases += 1;
                Ok(())
            }
            Err(insider_nand::NandError::BlockWornOut(_)) => {
                // Retire the block: its pages are all invalid and
                // unprotected (migrated above), so nothing is lost —
                // the capacity just shrinks by one block.
                self.blocks.bad[i] = true;
                self.blocks.invalid[i] = 0;
                self.blocks.refresh(raw);
                self.stats.bad_blocks += 1;
                Err(FtlError::BadBlockRetired)
            }
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{churn, churn_mixed, drive, get, put};
    use super::super::InsiderFtl;
    use crate::{FtlConfig, FtlStats, GC_RESERVE_BLOCKS};
    use bytes::Bytes;
    use insider_nand::{Geometry, Lba};

    /// A drive without retention under `config`'s GC settings.
    fn conventional(config: FtlConfig) -> InsiderFtl {
        InsiderFtl::new(config.protection_window(None))
    }

    #[test]
    fn gc_reclaims_invalid_pages() {
        let mut f = drive(None);
        // Overwrite one logical page enough times to exhaust the free pool.
        let lba = Lba::new(0);
        for i in 0..(15 * 16 + 8) {
            f.gc_before_write(1).unwrap();
            put(
                &mut f,
                lba,
                Bytes::copy_from_slice(format!("{i}").as_bytes()),
            );
        }
        assert!(f.stats.gc_invocations > 0);
        assert!(f.free_blocks() >= 2);
        // The single live page still reads back the latest value.
        let data = get(&mut f, lba).unwrap();
        assert_eq!(data.as_ref(), format!("{}", 15 * 16 + 8 - 1).as_bytes());
    }

    #[test]
    fn gc_migrates_valid_pages() {
        let mut f = drive(None);
        // Interleave one cold (never overwritten) page into every block of
        // hot overwrites, so each GC victim holds live data to migrate.
        churn(&mut f, 16 * 16);
        assert!(f.stats.gc_page_copies > 0);
        for k in 0..16u64 {
            assert_eq!(
                get(&mut f, Lba::new(100 + k)).unwrap().as_ref(),
                b"cold",
                "cold page {k} must survive GC"
            );
        }
    }

    #[test]
    fn gc_timer_accumulates_only_when_collecting() {
        let mut f = drive(None);
        put(&mut f, Lba::new(0), Bytes::from_static(b"x"));
        f.gc_before_write(1).unwrap();
        assert_eq!(f.stats.gc_ns, 0, "no collection, no timing noise");
        churn(&mut f, 16 * 16 * 2);
        assert!(f.stats.gc_invocations > 0);
        assert!(f.stats.gc_ns > 0, "collections must be timed");
        assert!(f.stats.gc_migrations_max > 0);
    }

    #[test]
    fn unbudgeted_gc_restores_full_reserve() {
        let mut f = drive(None);
        churn(&mut f, 16 * 16 * 2);
        f.gc_before_write(1).unwrap();
        assert!(f.free_blocks() > GC_RESERVE_BLOCKS as usize);
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
            let mut f = conventional(cfg);
            churn_mixed(&mut f, 600);
            f
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.victim_log, b.victim_log);
        let scrub = |mut s: FtlStats| {
            s.gc_ns = 0;
            s
        };
        assert_eq!(scrub(a.stats), scrub(b.stats));
        assert!(a.stats.gc_steps > 0, "one step per victim");
        assert_eq!(a.stats.gc_stw_fallbacks, 0);
        for l in 0..a.mapping.len() {
            assert_eq!(
                a.mapping.get(Lba::new(l)),
                b.mapping.get(Lba::new(l)),
                "physical mapping diverged at logical page {l}"
            );
        }
    }

    #[test]
    fn incremental_gc_pauses_jobs_mid_block_and_preserves_data() {
        let mut f = conventional(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1),
        );
        let saw_pending = churn_mixed(&mut f, 600);
        assert!(
            saw_pending,
            "a 1-page step against multi-valid-page victims must pause mid-block"
        );
        assert!(f.stats.gc_steps > 0);
        assert!(f.stats.gc_invocations > 0);
        f.gc_quiesce().unwrap();
        assert!(!f.gc_job_pending());
        // Every cold page survives GC pausing and resuming around it.
        for k in 0..100u64 {
            assert_eq!(
                get(&mut f, Lba::new(100 + k)).unwrap().as_ref(),
                b"cold",
                "cold page {k} lost across paused GC jobs"
            );
        }
    }

    #[test]
    fn stw_fallback_fires_when_the_step_budget_cannot_keep_up() {
        let mut f = conventional(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(0)
                .gc_step_pages(1),
        );
        // Eight blocks of half-valid data: victims cost 8 migrations each,
        // far beyond a 1-page step with a small urgency multiplier.
        for i in 0..128u64 {
            put(&mut f, Lba::new(i), Bytes::from_static(b"v1"));
        }
        for i in (0..128u64).step_by(2) {
            put(&mut f, Lba::new(i), Bytes::from_static(b"v2"));
        }
        // Demand the whole remaining pool at once: the pump cannot reach
        // the hard floor within its budget, so the stop-the-world drain
        // must fire and restore the full reserve.
        let free = f.free_blocks() as u64;
        f.gc_before_write(free * 16).unwrap();
        assert_eq!(f.stats.gc_stw_fallbacks, 1);
        assert!(!f.gc_job_pending());
        assert!(
            f.free_blocks() as u64 >= free + 2,
            "blocking fallback must have restored reserve + need blocks"
        );
        for i in 0..128u64 {
            let want: &[u8] = if i % 2 == 0 { b"v2" } else { b"v1" };
            assert_eq!(get(&mut f, Lba::new(i)).unwrap().as_ref(), want);
        }
    }

    #[test]
    fn gc_pause_histogram_records_collection_entries() {
        let mut f = drive(None);
        assert_eq!(f.gc_pause_latency().count, 0);
        churn_mixed(&mut f, 600);
        let pause = f.gc_pause_latency();
        assert!(pause.count > 0, "GC ran, so pauses must be recorded");
        assert!(pause.max_ns > 0);
        assert!(pause.p99_ns >= pause.p50_ns);
        assert!(pause.max_ns >= pause.p99_ns);
    }
}
