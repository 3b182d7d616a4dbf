//! The power-on mount: one OOB scan of every programmed page rebuilds the
//! mapping table, the per-block state and, on a drive that retains, the
//! recovery queue.

use super::victim::Blocks;
use super::InsiderFtl;
use crate::mapping::MappingTable;
use crate::Result;
use insider_nand::{Lba, Pba, Ppa, SimTime};
use std::collections::VecDeque;

/// One OOB record surfaced by the mount-time scan, in the physical page it
/// was read from. [`InsiderFtl::remount`] returns these flat, sorted by
/// logical page and by `(stamp, seq)` — oldest version first — within each
/// page's adjacent run, so [`InsiderFtl::power_cut`] can rebuild the
/// recovery queue without a second scan.
#[derive(Debug, Clone, Copy)]
struct ScanPage {
    /// Physical page the record was read from.
    ppa: Ppa,
    /// Device-stamped monotone program sequence number.
    seq: u64,
    /// Host write time carried in the OOB tag (preserved across GC copies).
    stamp: SimTime,
    /// `true` when the page held the current version at program time;
    /// `false` for GC backup copies of superseded versions.
    live: bool,
}

/// A completed mount scan: the flat record set in canonical
/// `(logical page, stamp, seq)` order, plus the per-block programmed-page
/// watermarks and minimum OOB sequence numbers.
type MountScan = (Vec<(Lba, ScanPage)>, Vec<u32>, Vec<Option<u64>>);

impl InsiderFtl {
    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.mount_scan_entries
    }

    /// Simulates a power loss followed by a power-on mount (paper §III-E:
    /// the fsck analogy). All DRAM state is rebuilt from the OOB scan —
    /// including, on a drive with a protection window, the **recovery
    /// queue**, so rollback keeps working across a crash:
    ///
    /// Each logical page's scan chain, sorted oldest first by
    /// `(stamp, seq)`, is collapsed to one surviving copy per written
    /// version (a GC source and its relocated copy share a stamp; the
    /// fresher copy represents the version). Version `i` then corresponds
    /// to the host write that created it, and the queue entry for that
    /// write is `(lba, predecessor of version i, stamp of version i)` —
    /// `None` when version `i` is the page's first write. Entries older
    /// than the protection window (anchored at the preserved freeze time,
    /// or `now`) were already retired before the cut and are not rebuilt;
    /// for every rebuilt entry the protected predecessor is guaranteed to
    /// still be on flash, because the pre-crash queue protected it from GC.
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
        let chains = self.remount()?;
        let Some(window) = self.config.window() else {
            return Ok(());
        };
        self.queue.clear();
        let cutoff = self.anchor(now).saturating_sub(window);
        let mut rebuilt: Vec<(SimTime, u64, Lba, Option<Ppa>)> = Vec::new();
        // The scan is flat and sorted by logical page, oldest version
        // first — walk each page's adjacent run in place.
        for run in chains.chunk_by(|a, b| a.0 == b.0) {
            let lba = run[0].0;
            if lba.index() >= self.mapping.len() {
                continue;
            }
            // One representative (the freshest copy) per written version.
            let mut versions: Vec<ScanPage> = Vec::new();
            for &(_, page) in run {
                match versions.last_mut() {
                    Some(last) if last.stamp == page.stamp => *last = page,
                    _ => versions.push(page),
                }
            }
            for (i, v) in versions.iter().enumerate() {
                if v.stamp >= cutoff {
                    let old = (i > 0).then(|| versions[i - 1].ppa);
                    rebuilt.push((v.stamp, v.seq, lba, old));
                }
            }
        }
        // Retirement pops the queue front in stamp order, so the rebuilt
        // entries must be pushed globally time-sorted; the device sequence
        // number breaks stamp ties deterministically.
        rebuilt.sort_unstable();
        for (stamp, _seq, lba, old) in rebuilt {
            self.queue.push(lba, old, stamp);
            if let Some(old) = old {
                // Re-register the protection: the reverse mapping of the
                // old version was lost with DRAM, and the page is already
                // invalid — the mount revalidated only the newest copy of
                // each logical page — so superseding it only protects it.
                self.rmap[old.index() as usize] = Some(lba);
                self.supersede(old, true)?;
            }
        }
        #[cfg(debug_assertions)]
        self.reconcile_victim_index();
        Ok(())
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

    /// Power-cycles the device and rebuilds every DRAM structure except the
    /// recovery queue from the per-page OOB records.
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
    /// page's run ordered oldest version first by `(stamp, seq)`, so
    /// [`power_cut`](Self::power_cut) can rebuild the recovery queue
    /// without re-reading flash. Cumulative statistics survive (they model
    /// NVRAM-backed counters, as firmware keeps wear data); the protected
    /// counts restart at zero and are re-filled with the queue.
    fn remount(&mut self) -> Result<Vec<(Lba, ScanPage)>> {
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
        self.free_count = 0;
        self.blocks = Blocks::new(&g);
        self.active = vec![None; chips];
        self.next_chip = 0;
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
        for run in chains.chunk_by(|a, b| a.0 == b.0) {
            let lba = run[0].0;
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
        Ok(chains)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{get, RETENTIONS};
    use super::InsiderFtl;
    use crate::{Ftl, FtlConfig};
    use bytes::Bytes;
    use insider_nand::{Geometry, Lba, SimTime};
    use std::collections::BTreeMap;

    /// A power cut drops a GC job parked mid-block. On the retaining
    /// drive the parked victim still holds protected pre-images when the
    /// power goes, and rollback after the mount must restore the
    /// pre-window contents byte-exact.
    #[test]
    fn remount_drops_a_paused_gc_job() {
        for window in RETENTIONS {
            let mut f = InsiderFtl::new(
                FtlConfig::new(Geometry::tiny())
                    .protection_window(window)
                    .incremental_gc(true)
                    .gc_low_water_extra(1)
                    .gc_step_pages(1),
            );
            // Write `i` of a hot/cold churn, 100 ms apart, each payload
            // unique; returns what it wrote.
            let write = |f: &mut InsiderFtl, i: u64| {
                let lba = if i.is_multiple_of(2) {
                    Lba::new(100 + i / 2 % 100)
                } else {
                    Lba::new(0)
                };
                let now = SimTime::from_millis(i * 100);
                let data = Bytes::from(format!("{i}"));
                f.write(lba, data.clone(), now).unwrap();
                (now, lba, data)
            };
            let parked = |f: &InsiderFtl| {
                f.gc_job.is_some_and(|job| {
                    window.is_none() || f.blocks.protected[job.victim.index() as usize] > 0
                })
            };
            let mut history = Vec::new();
            let mut i = 0u64;
            while !parked(&f) {
                assert!(i < 2_000, "churn never paused a job");
                history.push(write(&mut f, i));
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
                write(&mut f, k);
            }
            f.gc_quiesce().unwrap();
            assert!(f.free_blocks() >= 2);
        }
    }
}
