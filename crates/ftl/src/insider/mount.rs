//! The power-on mount: one OOB scan of every programmed page rebuilds the
//! mapping table, the per-block state and, on a drive that retains, the
//! recovery queue. Each record is folded into that state as it is read;
//! nothing holds the whole record set.

use super::victim::Blocks;
use super::InsiderFtl;
use crate::Result;
use insider_nand::{Lba, NandError, Pba, Ppa, SimTime};
use std::collections::VecDeque;

#[cfg(test)]
mod oracle;

/// What the mount scan remembers of one logical page. The default,
/// all-zero, means "no record seen": device sequence numbers start at 1.
#[derive(Debug, Clone, Copy, Default)]
struct PageFold {
    /// Sequence number of the live record currently mapped; 0 for none.
    winner: u64,
    /// Freshest pre-cutoff record, by `(stamp, seq)`: the predecessor of
    /// the page's first in-window version. Tracked on a retaining drive
    /// only; `pred_seq` is 0 when there is none.
    pred_stamp: SimTime,
    pred_seq: u64,
    pred_ppa: Ppa,
}

/// Logical pages per [`PageFolds`] chunk: 16 KiB of folds.
const FOLD_CHUNK: usize = 512;

/// One [`PageFold`] per exported logical page, allocated a chunk at a time
/// when a record first names a page in it: a drive pays for the logical
/// ranges it has written, not for its capacity.
struct PageFolds {
    chunks: Vec<Option<Box<[PageFold]>>>,
    len: usize,
}

impl PageFolds {
    fn new(len: usize) -> Self {
        PageFolds {
            chunks: vec![None; len.div_ceil(FOLD_CHUNK)],
            len,
        }
    }

    /// The fold of logical page `i`, its chunk allocated on first use;
    /// `None` beyond the exported range.
    fn get_mut(&mut self, i: usize) -> Option<&mut PageFold> {
        if i >= self.len {
            return None;
        }
        let chunk = self.chunks[i / FOLD_CHUNK]
            .get_or_insert_with(|| vec![PageFold::default(); FOLD_CHUNK].into_boxed_slice());
        Some(&mut chunk[i % FOLD_CHUNK])
    }

    /// The fold of logical page `i`; the default if no record named it.
    fn get(&self, i: usize) -> PageFold {
        self.chunks[i / FOLD_CHUNK]
            .as_ref()
            .map_or_else(PageFold::default, |chunk| chunk[i % FOLD_CHUNK])
    }
}

/// An in-window OOB record (`stamp ≥ cutoff`) kept for the queue rebuild.
#[derive(Debug, Clone, Copy)]
struct Recent {
    lba: Lba,
    stamp: SimTime,
    seq: u64,
    ppa: Ppa,
}

/// What the one pass leaves beside the mapping it rebuilt in place.
struct MountScan {
    /// Programmed pages (the write pointer) per block.
    programmed: Vec<u32>,
    /// Lowest OOB sequence number per block; `None` with no tagged page.
    min_seq: Vec<Option<u64>>,
    /// One fold per exported logical page.
    pages: PageFolds,
    /// In-window records in physical order; empty on a drive that retains
    /// nothing.
    recent: Vec<Recent>,
}

impl InsiderFtl {
    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.mount_scan_entries
    }

    /// Spare-area records the most recent mount scan found corrupt (zero
    /// before any power cycle). Each such page was read, failed its CRC,
    /// and was treated as untagged: it maps nothing and protects nothing.
    pub fn mount_scan_corrupt(&self) -> u64 {
        self.mount_scan_corrupt
    }

    /// Simulates a power loss followed by a power-on mount (paper §III-E:
    /// the fsck analogy). All DRAM state is rebuilt from the OOB scan —
    /// including, on a drive with a protection window, the **recovery
    /// queue**, so rollback keeps working across a crash:
    ///
    /// Each logical page's records, ordered oldest first by
    /// `(stamp, seq)`, collapse to one surviving copy per written version
    /// (a GC source and its relocated copy share a stamp; the fresher copy
    /// represents the version). Version `i` then corresponds to the host
    /// write that created it, and the queue entry for that write is
    /// `(lba, predecessor of version i, stamp of version i)` — `None` when
    /// version `i` is the page's first write. Entries older than the
    /// protection window (anchored at the preserved freeze time, or `now`)
    /// were already retired before the cut and are not rebuilt; for every
    /// rebuilt entry the protected predecessor is guaranteed to still be on
    /// flash, because the pre-crash queue protected it from GC.
    ///
    /// The scan keeps only what that needs: the in-window records
    /// (`stamp ≥ cutoff`), and per logical page the freshest pre-cutoff
    /// record, which is the predecessor of the page's first in-window
    /// version. Whether a record is in the window is a predicate on the
    /// record alone.
    ///
    /// Two approximations are inherent to OOB-only reconstruction and are
    /// part of the crash-consistency contract: same-stamp overwrites of one
    /// page collapse to the newest version, and trims (which leave no flash
    /// record) are volatile — a trimmed page whose last content is still on
    /// flash comes back mapped.
    ///
    /// The [`Hold`](super::Hold) survives: it is derived from the one
    /// lifecycle value the layer above keeps in (modeled) NVRAM, so a crash
    /// between an alarm and the user's confirmation still rolls back from
    /// the alarm anchor.
    ///
    /// # Errors
    ///
    /// Fails only on internal inconsistencies surfaced by the OOB scan.
    pub fn power_cut(&mut self, now: SimTime) -> Result<()> {
        self.device.set_now(now);
        self.remount(now)?;
        #[cfg(debug_assertions)]
        self.reconcile_victim_index();
        Ok(())
    }

    /// The one pass: reads every programmed page's OOB record, one charged
    /// `read_oob` per page, blocks in index order, and folds each record in
    /// as it comes. The live record with the highest sequence number of
    /// its logical page wins the mapping on the spot — revalidated and
    /// reverse-mapped, the copy it displaces invalidated again — so the
    /// winners come out in physical order with nothing to sort. With a
    /// `cutoff` (a drive that retains), in-window records are kept and
    /// older ones only update their page's predecessor.
    fn mount_scan(&mut self, cutoff: Option<SimTime>) -> Result<MountScan> {
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks() as usize;
        let ppb = g.pages_per_block();
        let mut scan = MountScan {
            programmed: vec![0; total_blocks],
            min_seq: vec![None; total_blocks],
            pages: PageFolds::new(self.mapping.len() as usize),
            recent: Vec::new(),
        };
        let mut decoded = 0;
        let mut corrupt = 0;
        for raw in 0..total_blocks as u32 {
            let i = raw as usize;
            let pba = Pba::new(raw);
            let count = self.device.block(pba)?.write_ptr().unwrap_or(ppb);
            scan.programmed[i] = count;
            for off in 0..count {
                let ppa = pba.page(&g, off);
                let rec = match self.device.read_oob(ppa) {
                    Ok(Some(rec)) => rec,
                    Ok(None) => continue, // untagged page: invisible to recovery
                    // A record that fails its check names no page: to the
                    // mount it is untagged, so its page stays unmapped and
                    // its logical page falls back to an older live copy.
                    Err(NandError::OobCorrupt(_)) => {
                        corrupt += 1;
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                decoded += 1;
                let slot = &mut scan.min_seq[i];
                *slot = Some(slot.map_or(rec.seq, |m| m.min(rec.seq)));
                let Some(page) = scan.pages.get_mut(rec.lba.index() as usize) else {
                    continue; // stale record beyond the exported logical range
                };
                if rec.live && rec.seq > page.winner {
                    page.winner = rec.seq;
                    if let Some(prev) = self.mapping.set(rec.lba, Some(ppa)) {
                        self.rmap.set(prev, None);
                        self.device.invalidate(prev)?;
                    }
                    self.rmap.set(ppa, Some(rec.lba));
                    self.device.revalidate(ppa)?;
                }
                match cutoff {
                    Some(cutoff) if rec.stamp >= cutoff => scan.recent.push(Recent {
                        lba: rec.lba,
                        stamp: rec.stamp,
                        seq: rec.seq,
                        ppa,
                    }),
                    Some(_) if (rec.stamp, rec.seq) > (page.pred_stamp, page.pred_seq) => {
                        page.pred_stamp = rec.stamp;
                        page.pred_seq = rec.seq;
                        page.pred_ppa = ppa;
                    }
                    _ => {}
                }
            }
        }
        self.mount_scan_entries = decoded;
        self.mount_scan_corrupt = corrupt;
        Ok(scan)
    }

    /// Rebuilds the recovery queue from the scan's in-window records (see
    /// [`power_cut`](Self::power_cut)) and files each entry's protection:
    /// the page is reverse-mapped to its logical page, invalidated if the
    /// scan revalidated it, and counted in its block. The victim index is
    /// refreshed once afterwards, by the reclassify loop.
    fn rebuild_queue(&mut self, scan: &mut MountScan) -> Result<()> {
        let g = *self.config.geometry();
        // Each page's in-window chain, oldest first; the copies of one
        // version share its stamp and lie adjacent, the freshest last.
        scan.recent
            .sort_unstable_by_key(|r| (r.lba, r.stamp, r.seq));
        let mut rebuilt = Vec::with_capacity(scan.recent.len());
        for chain in scan.recent.chunk_by(|a, b| a.lba == b.lba) {
            let page = scan.pages.get(chain[0].lba.index() as usize);
            // With monotone host stamps a page's live version is its newest
            // stamped one unless a rollback restored an older one, so any
            // record stamped after the winner was rolled back and is dead.
            // A winner outside this chain is pre-cutoff: the whole chain is
            // dead. A page with no live record (trimmed, its versions
            // relocated as backups) maps nothing and keeps its whole chain.
            let chain = if page.winner == 0 {
                chain
            } else {
                let Some(bound) = chain.iter().find(|r| r.seq == page.winner) else {
                    continue;
                };
                &chain[..chain.partition_point(|r| r.stamp <= bound.stamp)]
            };
            let mut old = (page.pred_seq != 0).then_some(page.pred_ppa);
            for copies in chain.chunk_by(|a, b| a.stamp == b.stamp) {
                let version = copies[copies.len() - 1];
                rebuilt.push((version.stamp, version.seq, version.lba, old));
                old = Some(version.ppa);
            }
        }
        // Retirement pops the queue front in stamp order, so the rebuilt
        // entries must be pushed globally time-sorted; the device sequence
        // number breaks stamp ties deterministically.
        rebuilt.sort_unstable_by_key(|e| (e.0, e.1));
        for (stamp, _seq, lba, old) in rebuilt {
            self.queue.push(lba, old, stamp);
            if let Some(old) = old {
                // The reverse mapping of the old version was lost with
                // DRAM; the page is invalid unless it won its logical page.
                self.rmap.set(old, Some(lba));
                self.device.invalidate(old)?;
                self.blocks.protected[old.block(&g).index() as usize] += 1;
            }
        }
        Ok(())
    }

    /// Power-cycles the device and rebuilds every DRAM structure from the
    /// per-page OOB records.
    ///
    /// The NAND keeps page *contents*, OOB records and erase counters across
    /// a power cut; everything else — the mapping table, the reverse map,
    /// per-block valid/invalid/protected counts, the free pools, the victim
    /// index and the recovery queue — is DRAM and is reconstructed here:
    ///
    /// 1. Every programmed page's spare area is read, one `read_oob` per
    ///    page, charged through the command scheduler, and folded in at
    ///    once ([`mount_scan`](Self::mount_scan)).
    /// 2. Per logical page, the **newest live copy wins**: the live-tagged
    ///    record with the highest device sequence number is revalidated and
    ///    mapped; every superseded or backup copy stays invalid. A crash
    ///    between a GC copy and its source invalidation leaves two live
    ///    copies of one version — the copy's fresher sequence number breaks
    ///    the tie deterministically.
    /// 3. On a drive that retains, the recovery queue is rebuilt from the
    ///    in-window records and its protections are counted per block
    ///    ([`rebuild_queue`](Self::rebuild_queue)).
    /// 4. Blocks are reclassified: unprogrammed → free pool (index order),
    ///    at-or-over the endurance limit → retired bad (conservative: a
    ///    worn block may still have had one program cycle left, but mount
    ///    cannot tell and a lost block is cheaper than a lost erase), the
    ///    most recently opened partial block per chip → active, everything
    ///    else → closed in-service, and each in-service block is filed in
    ///    the victim index once.
    ///
    /// Cumulative statistics survive (they model NVRAM-backed counters, as
    /// firmware keeps wear data).
    fn remount(&mut self, now: SimTime) -> Result<()> {
        self.device.power_cut();
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks();
        let ppb = g.pages_per_block();
        let chips = g.total_chips() as usize;
        let endurance = self.config.nand().endurance_limit();

        // Drop every DRAM structure.
        self.mapping.clear();
        self.rmap.clear();
        self.free = vec![VecDeque::new(); chips];
        self.free_count = 0;
        self.blocks = Blocks::new(&g);
        self.active = vec![None; chips];
        self.next_chip = 0;
        self.queue.clear();
        // A job parked by a NAND error does not survive power loss: its
        // victim is re-scored from physical state like every other block.
        self.gc_job = None;

        let cutoff = self
            .config
            .window()
            .map(|window| self.anchor(now).saturating_sub(window));
        let mut scan = self.mount_scan(cutoff)?;
        if cutoff.is_some() {
            self.rebuild_queue(&mut scan)?;
        }
        let MountScan {
            programmed,
            min_seq,
            ..
        } = scan;

        // Reclassify every block from its physical state.
        let mut in_service: Vec<(u64, u32)> = Vec::new();
        for raw in 0..total_blocks {
            let i = raw as usize;
            let block = self.device.block(Pba::new(raw))?;
            let wear = block.erase_count();
            let valid = block.valid_pages();
            self.blocks.invalid[i] = programmed[i] - valid;
            if wear >= endurance {
                self.blocks.bad[i] = true;
                continue;
            }
            if programmed[i] == 0 {
                self.blocks.free[i] = true;
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
                self.blocks.active[raw as usize] = true;
            }
        }

        for &(_, raw) in &in_service {
            self.blocks.refresh(raw);
        }
        self.stats.mounts += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{get, RETENTIONS};
    use super::InsiderFtl;
    use crate::{Ftl, FtlConfig, GC_RESERVE_BLOCKS};
    use bytes::Bytes;
    use insider_nand::{FaultKind, FaultPlan, Geometry, Lba, NandError, PageState, SimTime};
    use std::collections::BTreeMap;

    /// One flipped spare-area byte, then a power cut. The mount reads the
    /// record, finds it fails its check, and treats the page as untagged:
    /// no panic, the page is not mapped, and its logical page falls back
    /// to its older live copy where there is one, or reads unmapped.
    #[test]
    fn mount_skips_a_corrupt_record_and_falls_back_to_the_older_copy() {
        for window in RETENTIONS {
            let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(window));
            let ms = SimTime::from_millis;
            let (old, fresh) = (Lba::new(3), Lba::new(4));
            let mut plan = FaultPlan::new();
            // Tagged programs: 1 old v1, 2 old v2 (corrupt), 3 fresh (corrupt).
            plan.corrupt_oob_nth(2).corrupt_oob_nth(3);
            f.set_fault_plan(plan);
            f.write(old, Bytes::from_static(b"v1"), ms(10)).unwrap();
            let v1 = f.mapping.get(old).unwrap();
            f.write(old, Bytes::from_static(b"v2"), ms(20)).unwrap();
            let v2 = f.mapping.get(old).unwrap();
            f.write(fresh, Bytes::from_static(b"only"), ms(30)).unwrap();
            let only = f.mapping.get(fresh).unwrap();
            // Before the cut the drive serves what it mapped in DRAM.
            assert_eq!(get(&mut f, old), Some(Bytes::from_static(b"v2")));
            assert_eq!(f.device.oob(v2), Err(NandError::OobCorrupt(v2)));

            f.power_cut(ms(40)).unwrap();
            assert_eq!(f.mount_scan_corrupt(), 2);
            assert_eq!(f.mount_scan_entries(), 1);
            assert_eq!(f.mapping.get(old), Some(v1));
            assert_eq!(get(&mut f, old), Some(Bytes::from_static(b"v1")));
            assert_eq!(f.mapping.get(fresh), None);
            assert_eq!(get(&mut f, fresh), None);
            for ppa in [v2, only] {
                assert_eq!(f.rmap.get(ppa), None, "{ppa} is reverse-mapped");
                assert_eq!(f.device.page_state(ppa).unwrap(), PageState::Invalid);
            }
            // The drive stays writable, and a clean remount agrees.
            f.write(fresh, Bytes::from_static(b"again"), ms(50))
                .unwrap();
            f.power_cut(ms(60)).unwrap();
            assert_eq!(f.mount_scan_corrupt(), 2);
            assert_eq!(get(&mut f, fresh), Some(Bytes::from_static(b"again")));
            assert_eq!(get(&mut f, old), Some(Bytes::from_static(b"v1")));
        }
    }

    /// GC relocates a page whose spare area is corrupt: the copy takes its
    /// logical page from the reverse map and a fresh record, so a later
    /// mount maps it again.
    #[test]
    fn gc_relocation_rewrites_a_corrupt_record() {
        let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
        let mut plan = FaultPlan::new();
        plan.corrupt_oob_nth(1);
        f.set_fault_plan(plan);
        let cold = Lba::new(100);
        f.write(cold, Bytes::from_static(b"cold"), SimTime::ZERO)
            .unwrap();
        let first = f.mapping.get(cold).unwrap();
        assert_eq!(f.device.oob(first), Err(NandError::OobCorrupt(first)));
        // Hot churn with one more cold page every 16 writes, so every
        // victim holds a live page and the corrupt one's turn comes.
        let mut i = 1;
        while f.mapping.get(cold) == Some(first) {
            assert!(i < 4_000, "GC never relocated the corrupt page");
            let (lba, data) = if i % 16 == 0 {
                (Lba::new(101 + i / 16 % 64), "cold")
            } else {
                (Lba::new(0), "hot")
            };
            f.write(lba, Bytes::from_static(data.as_bytes()), SimTime::ZERO)
                .unwrap();
            i += 1;
        }
        f.power_cut(SimTime::ZERO).unwrap();
        assert_eq!(f.mount_scan_corrupt(), 0, "the corrupt block was erased");
        assert_eq!(get(&mut f, cold), Some(Bytes::from_static(b"cold")));
    }

    /// A page overwritten inside the window by a write whose record fails
    /// its check, then relocated by GC: the live copy carries that write's
    /// stamp, so the mount after a cut still protects the version from
    /// before the window, and rollback restores it.
    #[test]
    fn rollback_after_a_cut_restores_the_page_under_a_corrupt_live_copy() {
        let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
        let lba = Lba::new(0);
        let ms = SimTime::from_millis;
        let hot = |i: u64| Lba::new(1 + i % 4);
        f.write(lba, Bytes::from_static(b"P"), SimTime::ZERO)
            .unwrap();
        for i in 0..12 {
            f.write(hot(i), Bytes::from(format!("early{i}")), ms(i * 100))
                .unwrap();
        }
        let mut plan = FaultPlan::new();
        plan.corrupt_oob_nth(1);
        f.set_fault_plan(plan);
        f.write(lba, Bytes::from_static(b"V"), ms(20_000)).unwrap();
        f.set_fault_plan(FaultPlan::new());
        let v = f.mapping.get(lba).unwrap();
        assert_eq!(f.device.oob(v), Err(NandError::OobCorrupt(v)));
        // In-window churn until GC has relocated V.
        let mut now = ms(20_000);
        let mut i = 0;
        while f.mapping.get(lba) == Some(v) {
            assert!(i < 400, "GC never relocated V");
            now = ms(20_010 + i * 10);
            f.write(hot(i), Bytes::from(format!("late{i}")), now)
                .unwrap();
            i += 1;
        }
        let copy = f.mapping.get(lba).unwrap();
        assert_eq!(f.device.oob(copy).unwrap().unwrap().stamp, ms(20_000));
        f.power_cut(now).unwrap();
        assert_eq!(get(&mut f, lba), Some(Bytes::from_static(b"V")));
        f.rollback(now).unwrap();
        assert_eq!(get(&mut f, lba), Some(Bytes::from_static(b"P")));
    }

    /// A page overwritten inside the window and then trimmed has no live
    /// record once GC has relocated both of its versions as backups. The
    /// mount still rebuilds its chain, so the pre-window version stays
    /// protected and rollback after the cut restores it.
    #[test]
    fn rollback_after_a_cut_restores_a_trimmed_page_gc_relocated() {
        let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
        let g = *f.config.geometry();
        let lba = Lba::new(0);
        let ms = SimTime::from_millis;
        let hot = |i: u64| Lba::new(1 + i % 4);
        // Block 0: P, junk that retires before the window, V1.
        f.write(lba, Bytes::from_static(b"P"), SimTime::ZERO)
            .unwrap();
        let p = f.mapping.get(lba).unwrap();
        for i in 0..12 {
            f.write(hot(i), Bytes::from(format!("early{i}")), ms(i * 100))
                .unwrap();
        }
        f.write(lba, Bytes::from_static(b"V1"), ms(20_000)).unwrap();
        let v1 = f.mapping.get(lba).unwrap();
        assert_eq!(p.block(&g), v1.block(&g));
        f.trim(lba, ms(20_010)).unwrap();
        let erases = |f: &InsiderFtl| f.device.block(p.block(&g)).unwrap().erase_count();
        let before = erases(&f);
        // In-window churn until GC has collected block 0.
        let mut now = ms(20_010);
        let mut i = 0;
        while erases(&f) == before {
            assert!(i < 400, "GC never collected the block holding P and V1");
            now = ms(20_020 + i * 10);
            f.write(hot(i), Bytes::from(format!("late{i}")), now)
                .unwrap();
            i += 1;
        }
        assert!(f
            .queue
            .iter_newest_first()
            .all(|e| e.old != Some(p) && e.old != Some(v1)));
        f.power_cut(now).unwrap();
        assert_eq!(get(&mut f, lba), None);
        f.rollback(now).unwrap();
        assert_eq!(get(&mut f, lba), Some(Bytes::from_static(b"P")));
    }

    /// A power cut drops a GC job parked mid-block by a program fault
    /// inside a drain. On the retaining drive the parked victim still
    /// holds protected pre-images when the power goes, and rollback after
    /// the mount must restore the pre-window contents byte-exact.
    #[test]
    fn remount_drops_a_paused_gc_job() {
        for window in RETENTIONS {
            let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(window));
            // Write `i` of a hot/cold churn, 100 ms apart, each payload
            // unique; returns what it wrote, or the error that stopped it.
            let write = |f: &mut InsiderFtl, i: u64| {
                let lba = if i.is_multiple_of(2) {
                    Lba::new(100 + i / 2 % 100)
                } else {
                    Lba::new(0)
                };
                let now = SimTime::from_millis(i * 100);
                let data = Bytes::from(format!("{i}"));
                f.write(lba, data.clone(), now).map(|()| (now, lba, data))
            };
            let parked = |f: &InsiderFtl| {
                f.gc_job.is_some_and(|job| {
                    window.is_none() || f.blocks.protected[job.victim.index() as usize] > 0
                })
            };
            let mut history = Vec::new();
            let mut i = 0u64;
            while !parked(&f) {
                assert!(i < 2_000, "churn never parked a job");
                // A write below the reserve drains first, so its first
                // program is a migration whenever the victim holds a page
                // to copy: fail that one.
                let drains = f.free_blocks() < GC_RESERVE_BLOCKS as usize + 1;
                if drains {
                    let mut plan = FaultPlan::new();
                    plan.fail_nth(FaultKind::Program, 1);
                    f.set_fault_plan(plan);
                }
                // A failed write programmed nothing and leaves no history.
                if let Ok(done) = write(&mut f, i) {
                    history.push(done);
                }
                if drains {
                    f.set_fault_plan(FaultPlan::new());
                }
                i += 1;
            }
            let now = history.last().unwrap().0;
            f.power_cut(now).unwrap();
            assert!(!f.gc_job_pending(), "a job must not survive a power cut");
            if window.is_some() {
                let cutoff = f.rollback(now).unwrap().restored_to;
                let mut shadow = BTreeMap::new();
                for (stamp, lba, data) in &history {
                    shadow.entry(*lba).or_insert(None);
                    if *stamp < cutoff {
                        shadow.insert(*lba, Some(data.clone()));
                    }
                }
                for (lba, want) in shadow {
                    assert_eq!(get(&mut f, lba), want, "{lba} after rollback");
                }
            }
            // The half-collected victim is ordinary closed state after the
            // rebuild; collection proceeds from scratch.
            for k in i..i + 64 {
                write(&mut f, k).unwrap();
            }
            assert!(f.free_blocks() >= 2);
        }
    }
}
