//! The garbage collector: one resumable job, the pump that drains it,
//! page migration (protected pre-images included) and the victim's erase.

use super::InsiderFtl;
use crate::config::GC_RESERVE_BLOCKS;
use crate::{FtlError, Result};
use insider_nand::{KindLatency, Lba, NandError, OobTag, PageState, Pba, Ppa, SimTime};
use std::time::Instant;

/// The garbage collector's unit of work: one selected victim block plus a
/// cursor over its page offsets. [`InsiderFtl::gc_step`] migrates pages
/// from the cursor to the end of the block and erases it. A NAND error
/// mid-migration parks the job with the cursor on the failed offset, and
/// the next GC entry resumes the same victim from there.
/// Page migration re-reads the physical page state at execution time, so a
/// job can be resumed after arbitrary host writes, or dropped mid-block
/// (power cut) without special cases: unmigrated offsets are re-examined
/// fresh, migrated ones are already `Invalid`/`Free`.
///
/// The victim stays pinned while the job is parked — it is neither free
/// nor active, so the host can never program into it, and victim
/// *selection* only ever runs when no job is pending, so the selectors'
/// indexes cannot go stale under a half-collected block.
#[derive(Debug, Clone, Copy)]
pub(super) struct GcJob {
    pub(super) victim: Pba,
    /// Next page offset to examine in the victim block.
    cursor: u32,
}

impl InsiderFtl {
    /// Garbage collection ahead of a host write of `pages` upcoming
    /// programs — the only GC entry point. Below `target`, the reserve plus
    /// enough whole blocks to absorb the write (so a batched extent cannot
    /// run the allocator dry mid-submit), it drains: every job runs to its
    /// erase, and the drain occupies the single-threaded firmware — no host
    /// command is serviced until its last command lands.
    ///
    /// A job parked by a NAND error is resumed first, so an entry also runs
    /// whenever one is pending. Invalid pages the recovery queue protects
    /// are migrated (and their backup entries redirected), not discarded.
    pub(super) fn gc_before_write(&mut self, pages: u64) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block() as u64;
        let target = GC_RESERVE_BLOCKS as usize + pages.div_ceil(ppb) as usize;
        if self.free_count >= target && self.gc_job.is_none() {
            // The common no-GC case returns before the timer starts, so
            // `gc_ns` stays exactly zero for workloads that never collect.
            return Ok(());
        }
        let started = Instant::now();
        let copies_before = self.stats.gc_page_copies;
        let pause_before = self.device.parallel_busy_ns();
        self.device.set_gc_context(true);
        let result = self.gc_pump(target);
        self.device.set_gc_context(false);
        let horizon = self.device.gc_horizon_ns();
        self.device.stall_host_until(horizon);
        let migrated = self.stats.gc_page_copies - copies_before;
        self.stats.gc_migrations_max = self.stats.gc_migrations_max.max(migrated);
        self.stats.gc_ns += started.elapsed().as_nanos() as u64;
        let pause = self.device.parallel_busy_ns() - pause_before;
        if pause > 0 {
            self.gc_pause_hist.record(pause);
        }
        result
    }

    /// One drain: finish the pending job, then collect while the pool is
    /// below `target`. Below the reserve the write cannot proceed, so
    /// nothing reclaimable is a hard error.
    fn gc_pump(&mut self, target: usize) -> Result<()> {
        loop {
            if let Some(job) = self.gc_job {
                self.gc_step(job)?;
            } else if self.free_count >= target {
                return Ok(());
            } else if !self.start_job() {
                return Err(FtlError::NoReclaimableSpace);
            }
        }
    }

    /// Selects a victim and opens a job on it, logged at
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

    /// Runs `job`, the pending [`GcJob`], from its cursor to the end of
    /// the victim. Offsets needing no copy (free pages, unprotected invalid
    /// pages) are skipped for free. Reaching the end of the block finishes
    /// the job: the victim is erased and returned to the free pool, or
    /// retired as *bad* if the erase hits its endurance limit — the job is
    /// simply dropped and the pump selects another victim.
    fn gc_step(&mut self, mut job: GcJob) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block();
        while job.cursor < ppb {
            if let Err(e) = self.migrate_page(job.victim, job.cursor) {
                // Per-page migration is atomic; parking the cursor on the
                // failed offset leaves it cleanly re-examinable.
                self.gc_job = Some(job);
                return Err(e);
            }
            job.cursor += 1;
        }
        // Every offset handled: erase, close out the job.
        self.gc_job = None;
        match self.finish_erase(job.victim) {
            Ok(()) => {
                self.stats.gc_invocations += 1;
                Ok(())
            }
            // Retirement reclaims no block, but the job is done; the
            // internal marker never reaches the host.
            Err(FtlError::BadBlockRetired) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Runs a job parked by a NAND error to completion, without the host
    /// stall a GC entry charges.
    ///
    /// # Errors
    ///
    /// Propagates NAND failures from the resumed migrations.
    pub fn gc_quiesce(&mut self) -> Result<()> {
        while let Some(job) = self.gc_job {
            self.gc_step(job)?;
        }
        Ok(())
    }

    /// Whether a GC job is parked mid-block, stopped by a NAND error.
    pub fn gc_job_pending(&self) -> bool {
        self.gc_job.is_some()
    }

    /// Per-GC-entry foreground pause percentiles (device makespan growth
    /// per GC entry).
    pub fn gc_pause_latency(&self) -> KindLatency {
        KindLatency::from_histogram(&self.gc_pause_hist)
    }

    /// The host stamp a relocated copy of `ppa`, a page of `lba`, carries
    /// over: its record's, or zero for a page without one. Relocation
    /// rewrites a record that fails its check whole, the logical page
    /// taken from the reverse map. A live page then takes the stamp of
    /// its logical page's newest queue entry, the write that created it:
    /// at the next mount the copy wins with its true stamp, and the chain
    /// that protects its predecessor is rebuilt. With no such entry the
    /// write lies before every window to come, and zero stands for it. A
    /// backup's creating write has no entry of its own to look up, and
    /// its copy is stamped zero.
    fn carried_stamp(&self, ppa: Ppa, lba: Lba, live: bool) -> Result<SimTime> {
        match self.device.oob(ppa) {
            Ok(rec) => Ok(rec.map_or(SimTime::ZERO, |o| o.stamp)),
            Err(NandError::OobCorrupt(_)) if live => Ok(self
                .queue
                .iter_newest_first()
                .find(|e| e.lba == lba)
                .map_or(SimTime::ZERO, |e| e.stamp)),
            Err(NandError::OobCorrupt(_)) => Ok(SimTime::ZERO),
            Err(e) => Err(e.into()),
        }
    }

    /// Migrates (or skips) one page offset of a GC victim — the atomic unit
    /// (copy, remap, invalidate source, clear source rmap) a [`GcJob`]
    /// is built from. Physical page state is re-read at execution time,
    /// so re-running an offset (resuming a parked job after an injected
    /// fault) is always safe: an already-migrated page has become
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
                let stamp = self.carried_stamp(ppa, lba, true)?;
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
                    let stamp = self.carried_stamp(ppa, lba, false)?;
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
    use crate::GC_RESERVE_BLOCKS;
    use bytes::Bytes;
    use insider_nand::Lba;

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
