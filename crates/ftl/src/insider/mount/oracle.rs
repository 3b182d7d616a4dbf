//! Differential oracle for the one-pass mount: the streaming fold against
//! the flat-sort reconstruction it replaced, kept here as the reference.
//!
//! The reference collects every OOB record into one vector, sorts it by
//! `(lba, stamp, seq)`, maps each page's highest-`seq` live record, and
//! rebuilds the recovery queue by collapsing each page's same-stamp copies
//! into one version and walking the version chain. Two drives take the
//! same random churn; at every cut one mounts with
//! [`InsiderFtl::power_cut`] and the other with the reference, and the
//! test compares everything the mount rebuilds: every logical page's
//! mapping, the reverse map, every physical page's state, the per-block
//! invalid and protected counts and flags, the free pools and active
//! blocks, the victim pick, the recovery queue's entries in order, the
//! decoded-record count and the charged reads. Equal after the cut, the
//! twins stay equal through the churn that follows.
//!
//! The churn covers both retention values, a frozen [`Hold`] across the
//! cut, rollback, power loss mid-extent (inside a GC drain, it parks the
//! job mid-victim), a spare-area record that fails its CRC and
//! back-to-back cuts. Stamps and cut times share a 250 ms
//! grid, so records land exactly on the cutoff. The vendored proptest
//! runs a fixed seed; `PROPTEST_RNG_SEED=<u64>` explores others and a
//! failure names it.

use super::super::{Hold, InsiderFtl};
use crate::mapping::{MappingTable, ReverseMap};
use crate::{Ftl, FtlConfig, FtlError, Result};
use bytes::Bytes;
use insider_nand::{FaultPlan, Geometry, Lba, NandError, PageState, Pba, Ppa, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One OOB record as the reference collects it.
#[derive(Debug, Clone, Copy)]
struct ScanPage {
    ppa: Ppa,
    seq: u64,
    stamp: SimTime,
    live: bool,
}

impl InsiderFtl {
    /// The flat-sort mount: [`InsiderFtl::power_cut`] as it was before the
    /// scan became one pass.
    fn reference_power_cut(&mut self, now: SimTime) -> Result<()> {
        self.device.set_now(now);
        let chains = self.reference_remount()?;
        if let Some(window) = self.config.window() {
            self.queue.clear();
            let cutoff = self.anchor(now).saturating_sub(window);
            let mut rebuilt: Vec<(SimTime, u64, Lba, Option<Ppa>)> = Vec::new();
            for run in chains.chunk_by(|a, b| a.0 == b.0) {
                let lba = run[0].0;
                if lba.index() >= self.mapping.len() {
                    continue;
                }
                // A record stamped after the page's winner was rolled back
                // and is dead. A page without a live record maps nothing
                // and keeps every record.
                let bound = run
                    .iter()
                    .map(|(_, p)| p)
                    .filter(|p| p.live)
                    .max_by_key(|p| p.seq)
                    .map(|winner| winner.stamp);
                // One representative (the freshest copy) per version.
                let mut versions: Vec<ScanPage> = Vec::new();
                for &(_, page) in run
                    .iter()
                    .filter(|(_, p)| bound.is_none_or(|b| p.stamp <= b))
                {
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
            rebuilt.sort_unstable();
            for (stamp, _seq, lba, old) in rebuilt {
                self.queue.push(lba, old, stamp);
                if let Some(old) = old {
                    self.rmap.set(old, Some(lba));
                    self.supersede(old, true)?;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.reconcile_victim_index();
        Ok(())
    }

    /// Every record flat, sorted by `(lba, stamp, seq)`; the newest live
    /// record of each page's run wins; blocks reclassified as the mount
    /// does.
    fn reference_remount(&mut self) -> Result<Vec<(Lba, ScanPage)>> {
        self.device.power_cut();
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks();
        let ppb = g.pages_per_block();
        let chips = g.total_chips() as usize;
        let endurance = self.config.nand().endurance_limit();
        self.mapping = MappingTable::new(self.config.logical_pages());
        self.rmap = ReverseMap::new(g.total_pages());
        self.free = vec![VecDeque::new(); chips];
        self.free_count = 0;
        self.blocks = super::Blocks::new(&g);
        self.active = vec![None; chips];
        self.next_chip = 0;
        self.gc_job = None;

        let mut chains = Vec::new();
        let mut corrupt = 0;
        let mut programmed = vec![0u32; total_blocks as usize];
        let mut min_seq: Vec<Option<u64>> = vec![None; total_blocks as usize];
        for raw in 0..total_blocks {
            let i = raw as usize;
            let pba = Pba::new(raw);
            let count = self.device.block(pba)?.write_ptr().unwrap_or(ppb);
            programmed[i] = count;
            for off in 0..count {
                let ppa = pba.page(&g, off);
                let rec = match self.device.read_oob(ppa) {
                    Ok(Some(rec)) => rec,
                    Ok(None) => continue,
                    Err(NandError::OobCorrupt(_)) => {
                        corrupt += 1;
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                let slot = &mut min_seq[i];
                *slot = Some(slot.map_or(rec.seq, |m| m.min(rec.seq)));
                chains.push((
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
        chains.sort_unstable_by_key(|e| (e.0.index(), e.1.stamp, e.1.seq));
        self.mount_scan_entries = chains.len() as u64;
        self.mount_scan_corrupt = corrupt;

        let mut winners = Vec::new();
        for run in chains.chunk_by(|a, b| a.0 == b.0) {
            let lba = run[0].0;
            if lba.index() >= self.mapping.len() {
                continue;
            }
            if let Some(winner) = run
                .iter()
                .map(|(_, p)| p)
                .filter(|p| p.live)
                .max_by_key(|p| p.seq)
            {
                winners.push(winner.ppa);
                self.rmap.set(winner.ppa, Some(lba));
                self.mapping.set(lba, Some(winner.ppa));
            }
        }
        for ppa in winners {
            self.device.revalidate(ppa)?;
        }

        let mut in_service = Vec::new();
        for raw in 0..total_blocks {
            let i = raw as usize;
            let block = self.device.block(Pba::new(raw))?;
            let wear = block.erase_count();
            self.blocks.invalid[i] = programmed[i] - block.valid_pages();
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

/// Asserts that two mounted drives rebuilt the same state.
fn assert_same_mount(a: &mut InsiderFtl, b: &mut InsiderFtl) {
    let g = *a.config.geometry();
    for i in 0..a.mapping.len() {
        let lba = Lba::new(i);
        assert_eq!(a.mapping.get(lba), b.mapping.get(lba), "mapping of {lba}");
    }
    assert_eq!(a.mapping.mapped_count(), b.mapping.mapped_count());
    for (lba, ppa) in a.mapping.iter() {
        assert_eq!(
            a.device.page_state(ppa).unwrap(),
            PageState::Valid,
            "{lba} is mapped to {ppa}"
        );
        assert!(
            !a.queue.is_protected(ppa),
            "{lba} is mapped to protected {ppa}"
        );
    }
    assert_eq!(a.rmap, b.rmap, "reverse map");
    for i in 0..g.total_pages() {
        let ppa = Ppa::new(i);
        assert_eq!(
            a.device.page_state(ppa).unwrap(),
            b.device.page_state(ppa).unwrap(),
            "state of {ppa}"
        );
    }
    assert_eq!(a.blocks.invalid, b.blocks.invalid, "invalid counts");
    assert_eq!(a.blocks.protected, b.blocks.protected, "protected counts");
    assert_eq!(a.blocks.free, b.blocks.free, "free flags");
    assert_eq!(a.blocks.bad, b.blocks.bad, "bad flags");
    assert_eq!(a.blocks.active, b.blocks.active, "active flags");
    assert_eq!(a.free, b.free, "free pools");
    assert_eq!(a.free_count, b.free_count);
    assert_eq!(a.active, b.active, "active blocks");
    assert_eq!(a.next_chip, b.next_chip);
    assert_eq!(a.select_victim(), b.select_victim(), "victim pick");
    assert!(
        a.queue.iter().eq(b.queue.iter()),
        "recovery queues differ:\n{:?}\n{:?}",
        a.queue.iter().collect::<Vec<_>>(),
        b.queue.iter().collect::<Vec<_>>()
    );
    assert_eq!(a.queue.protected_count(), b.queue.protected_count());
    assert_eq!(a.mount_scan_entries, b.mount_scan_entries);
    assert_eq!(a.mount_scan_corrupt, b.mount_scan_corrupt);
    // GC wall time is the one statistic that may differ.
    let (mut sa, mut sb) = (a.stats, b.stats);
    (sa.gc_ns, sb.gc_ns) = (0, 0);
    assert_eq!(sa, sb);
    assert_eq!(a.device.stats(), b.device.stats(), "charged NAND work");
}

/// 4 dies of 8 blocks of 8 pages: 256 physical pages.
fn geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(8)
        .pages_per_block(8)
        .page_size(64)
        .build()
}

/// Writes and trims hit this many logical pages of the drive's 238.
const SPAN: u64 = 160;

/// The time grid: every stamp and every cut instant is a multiple of it.
const TICK: SimTime = SimTime::from_millis(250);

/// Two seconds: eight ticks.
const WINDOW: SimTime = SimTime::from_secs(2);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// An extent write at the current time, then `ticks` ticks pass (0:
    /// the next operation shares the stamp).
    Write {
        lba: u64,
        len: u32,
        ticks: u64,
    },
    Trim {
        lba: u64,
        len: u32,
    },
    /// Time passes with no host command, then a retirement tick.
    Idle {
        ticks: u64,
    },
    /// The alarm: retirement freezes at the current time.
    Freeze,
    /// The incident closes: the hold is released.
    Release,
    /// Rollback under the current hold, then the hold is released.
    Rollback,
    /// `times` power cuts in a row at the current time.
    Cut {
        times: u32,
    },
    /// Power fails after `after` more programs or erases, during an
    /// extent write; then the drive mounts. At an odd `lba` the first
    /// tagged program also leaves a corrupt spare area, so the mounts meet
    /// a record that fails its check, this time and at every later cut
    /// until GC erases it; at an even one every landed record is clean.
    CutDuring {
        after: u64,
        lba: u64,
        len: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (0..SPAN, 1u32..=4, 0u64..=2)
            .prop_map(|(lba, len, ticks)| Op::Write { lba, len, ticks }),
        2 => (0..SPAN, 1u32..=4).prop_map(|(lba, len)| Op::Trim { lba, len }),
        2 => (1u64..=12).prop_map(|ticks| Op::Idle { ticks }),
        1 => Just(Op::Freeze),
        1 => Just(Op::Release),
        1 => Just(Op::Rollback),
        2 => (1u32..=2).prop_map(|times| Op::Cut { times }),
        1 => (1u64..6, 0..SPAN, 2u32..=6)
            .prop_map(|(after, lba, len)| Op::CutDuring { after, lba, len }),
    ]
}

/// The configuration under test.
fn config(window: Option<SimTime>) -> FtlConfig {
    FtlConfig::new(geometry()).protection_window(window)
}

/// Errors a twin may return from host commands in this churn; both twins
/// must return the same one.
fn tolerated(e: &FtlError) -> bool {
    matches!(
        e,
        FtlError::NoReclaimableSpace | FtlError::ReadOnly | FtlError::Nand(NandError::PowerLoss)
    )
}

/// What a replay reached: cuts compared, cuts that found a GC job parked,
/// and cuts whose mount met a corrupt record.
#[derive(Debug, Default)]
struct Reached {
    cuts: u32,
    parked: u32,
    corrupt: u32,
}

/// Mounts `a` with the one-pass scan and `b` with the reference, then
/// compares them.
fn cut_both(a: &mut InsiderFtl, b: &mut InsiderFtl, now: SimTime, reached: &mut Reached) {
    a.power_cut(now).unwrap();
    b.reference_power_cut(now).unwrap();
    assert_same_mount(a, b);
    reached.cuts += 1;
    reached.corrupt += u32::from(a.mount_scan_corrupt > 0);
}

/// Replays `ops` on both twins, comparing the mounts at every cut.
fn replay(window: Option<SimTime>, ops: &[Op]) -> Reached {
    let mut a = InsiderFtl::new(config(window));
    let mut b = InsiderFtl::new(config(window));
    let mut now = SimTime::from_secs(1);
    let mut reached = Reached::default();
    for (i, &op) in ops.iter().enumerate() {
        let page = |k: u32| Bytes::from(format!("op{i}p{k}"));
        match op {
            Op::Write { lba, len, ticks } => {
                let data: Vec<Bytes> = (0..len).map(page).collect();
                let ra = a.write_extent(Lba::new(lba), &data, now);
                let rb = b.write_extent(Lba::new(lba), &data, now);
                assert_eq!(ra, rb, "write {i}");
                if let Err(e) = ra {
                    assert!(tolerated(&e), "write {i}: {e}");
                }
                now += SimTime::from_micros(TICK.as_micros() * ticks);
            }
            Op::Trim { lba, len } => {
                let ra = a.trim_extent(Lba::new(lba), len, now);
                assert_eq!(ra, b.trim_extent(Lba::new(lba), len, now), "trim {i}");
                if let Err(e) = ra {
                    assert!(tolerated(&e), "trim {i}: {e}");
                }
            }
            Op::Idle { ticks } => {
                now += SimTime::from_micros(TICK.as_micros() * ticks);
                a.tick(now);
                b.tick(now);
            }
            Op::Freeze => {
                let hold = Hold {
                    read_only: false,
                    frozen_at: Some(now),
                };
                a.set_hold(hold);
                b.set_hold(hold);
            }
            Op::Release => {
                a.set_hold(Hold::default());
                b.set_hold(Hold::default());
            }
            Op::Rollback => {
                assert_eq!(a.rollback(now), b.rollback(now), "rollback {i}");
                a.set_hold(Hold::default());
                b.set_hold(Hold::default());
            }
            Op::Cut { times } => {
                reached.parked += u32::from(a.gc_job_pending());
                for _ in 0..times {
                    cut_both(&mut a, &mut b, now, &mut reached);
                }
            }
            Op::CutDuring { after, lba, len } => {
                let mut plan = FaultPlan::new();
                plan.power_cut_after(after);
                if lba % 2 == 1 {
                    plan.corrupt_oob_nth(1);
                }
                a.set_fault_plan(plan.clone());
                b.set_fault_plan(plan);
                let data: Vec<Bytes> = (0..len).map(page).collect();
                let ra = a.write_extent(Lba::new(lba), &data, now);
                assert_eq!(ra, b.write_extent(Lba::new(lba), &data, now), "write {i}");
                if let Err(e) = ra {
                    assert!(tolerated(&e), "write {i}: {e}");
                }
                reached.parked += u32::from(a.gc_job_pending());
                cut_both(&mut a, &mut b, now, &mut reached);
                a.set_fault_plan(FaultPlan::new());
                b.set_fault_plan(FaultPlan::new());
            }
        }
    }
    cut_both(&mut a, &mut b, now, &mut reached);
    reached
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_pass_mount_matches_the_flat_sort(
        ops in proptest::collection::vec(op_strategy(), 200..500),
        retains in any::<bool>(),
    ) {
        replay(retains.then_some(WINDOW), &ops);
    }
}

/// A fixed churn that reaches what the random cases are for, on both
/// retention values: a parked GC job at a cut, a frozen hold across two
/// back-to-back cuts, rollback after a remount, a clean cut mid-extent and
/// one that leaves a corrupt record. The job is parked by the cut in
/// round 4: a 16-page extent raises the GC target by two blocks, so the
/// write drains first and the power fails inside the drain.
#[test]
fn scripted_churn_reaches_parked_jobs_holds_and_mid_extent_cuts() {
    let mut ops = Vec::new();
    for round in 0..7u64 {
        for k in 0..60u64 {
            let lba = if k % 3 == 0 {
                k % 8
            } else {
                8 + (round * 60 + k) % 150
            };
            ops.push(Op::Write {
                lba,
                len: 1 + (k % 3) as u32,
                ticks: k % 2,
            });
        }
        match round {
            1 => ops.extend([Op::Freeze, Op::Cut { times: 2 }, Op::Rollback]),
            3 => ops.push(Op::CutDuring {
                after: 3,
                lba: 20,
                len: 5,
            }),
            4 => ops.push(Op::CutDuring {
                after: 2,
                lba: 40,
                len: 16,
            }),
            6 => ops.push(Op::CutDuring {
                after: 3,
                lba: 21,
                len: 5,
            }),
            _ => ops.push(Op::Cut { times: 1 }),
        }
    }
    for window in [Some(WINDOW), None] {
        let reached = replay(window, &ops);
        assert!(reached.cuts >= 7);
        assert!(reached.parked > 0, "no cut found a parked GC job");
        assert!(reached.corrupt > 0, "no mount met a corrupt record");
    }
}
