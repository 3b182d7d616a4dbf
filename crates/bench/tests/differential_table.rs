//! Differential oracle for the counting table: the interval-indexed
//! [`CountingTable`] against a per-LBA reference, the paper's Fig. 3 layout
//! (a hash slot per covered LBA, a full-table scan per eviction), kept here
//! as a private type because nothing else needs it.
//!
//! Both tables get the same request stream, sliced and evicted on the
//! feature engine's schedule: every slice close evicts entries last touched
//! before `cur + 1 − N`, and a gap of more than `2N` slices closes `N + 1`
//! slices, evicts everything and jumps. After every request and every
//! eviction the test compares all the engine ever reads from its table —
//! the overwrite count and the overwritten sub-ranges a write reports,
//! `len()`, `avg_wl()` bit for bit, the evicted count — plus the sorted
//! entry list. Equal outputs therefore imply equal feature series.
//!
//! Inputs: adversarial proptest streams (bursts, idle gaps past the `2N`
//! cutover, adjacent reads that force run merging, trims) and three
//! realistic traces (sequential, random, ransomware mixed with cloud
//! sync). The vendored proptest runs a fixed seed; `PROPTEST_RNG_SEED=<u64>`
//! explores others and a failure names it.

use insider_bench::small_space;
use insider_detect::{CountingTable, Entry, IoMode, IoReq};
use insider_nand::{Lba, SimTime};
use insider_workloads::{merge, AppKind, FileSpace, RansomwareKind, Trace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The engine's slice length and window (`N`).
const SLICE: SimTime = SimTime::from_secs(1);
const WINDOW: u64 = 10;

/// Run-length counting table with a per-LBA hash index: O(blocks) per
/// request, O(covered blocks) memory, a full scan per eviction.
#[derive(Default)]
struct NaiveCountingTable {
    entries: HashMap<u64, Entry>,
    index: HashMap<Lba, u64>,
    next_id: u64,
}

impl NaiveCountingTable {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Records a one-block read, growing or merging runs.
    fn record_read(&mut self, lba: Lba, slice: u64) {
        // Already covered: refresh the run's timestamp.
        if let Some(&id) = self.index.get(&lba) {
            self.entries.get_mut(&id).expect("indexed").slice = slice;
            return;
        }
        // Extend the run ending at `lba` (UpdateEntryR)…
        let prev = lba
            .index()
            .checked_sub(1)
            .and_then(|p| self.index.get(&Lba::new(p)).copied());
        if let Some(id) = prev {
            let e = self.entries.get_mut(&id).expect("indexed");
            e.rl = e.rl.saturating_add(1);
            e.slice = slice;
            self.index.insert(lba, id);
            // …and merge with a run starting right after (MergeEntry).
            if let Some(&next) = self.index.get(&lba.next()) {
                if next != id {
                    let dropped = self.entries.remove(&next).expect("indexed");
                    for b in 0..dropped.rl as u64 {
                        self.index.insert(dropped.start.offset(b), id);
                    }
                    let e = self.entries.get_mut(&id).expect("indexed");
                    e.rl = e.rl.saturating_add(dropped.rl);
                    e.wl = e.wl.saturating_add(dropped.wl);
                }
            }
            return;
        }
        // Prepend to a run starting at `lba + 1`.
        if let Some(&id) = self.index.get(&lba.next()) {
            let e = self.entries.get_mut(&id).expect("indexed");
            e.start = lba;
            e.rl = e.rl.saturating_add(1);
            e.slice = slice;
            self.index.insert(lba, id);
            return;
        }
        // Fresh run (NewEntry).
        let id = self.next_id;
        self.next_id += 1;
        let entry = Entry {
            slice,
            start: lba,
            rl: 1,
            wl: 0,
        };
        self.entries.insert(id, entry);
        self.index.insert(lba, id);
    }

    fn record_read_range(&mut self, lba: Lba, len: u32, slice: u64) {
        for b in 0..len as u64 {
            self.record_read(lba.offset(b), slice);
        }
    }

    /// Counts every covered block as an overwrite (UpdateEntryW) and
    /// reports maximal contiguous overwritten sub-ranges. Runs are never
    /// adjacent, so each sub-range lies inside one run.
    fn record_write_extent(
        &mut self,
        lba: Lba,
        len: u32,
        slice: u64,
        on_overwrite: &mut dyn FnMut(Lba, u32),
    ) -> u32 {
        let mut total = 0;
        let mut pending: Option<(Lba, u32)> = None;
        for b in 0..len as u64 {
            let block = lba.offset(b);
            if let Some(&id) = self.index.get(&block) {
                let e = self.entries.get_mut(&id).expect("indexed");
                e.wl = e.wl.saturating_add(1);
                e.slice = slice;
                total += 1;
                pending = match pending {
                    Some((start, n)) => Some((start, n + 1)),
                    None => Some((block, 1)),
                };
            } else if let Some((start, n)) = pending.take() {
                on_overwrite(start, n);
            }
        }
        if let Some((start, n)) = pending {
            on_overwrite(start, n);
        }
        total
    }

    fn evict_older_than(&mut self, cutoff_slice: u64) -> usize {
        let stale: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.slice < cutoff_slice)
            .map(|(&id, _)| id)
            .collect();
        for id in &stale {
            let e = self.entries.remove(id).expect("listed");
            for b in 0..e.rl as u64 {
                self.index.remove(&e.start.offset(b));
            }
        }
        stale.len()
    }

    fn avg_wl(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            let sum: u64 = self.entries.values().map(|e| e.wl as u64).sum();
            sum as f64 / self.entries.len() as f64
        }
    }
}

fn sorted(entries: impl Iterator<Item = Entry>) -> Vec<(u64, u32, u32, u64)> {
    let mut v: Vec<_> = entries
        .map(|e| (e.start.index(), e.rl, e.wl, e.slice))
        .collect();
    v.sort_unstable();
    v
}

/// What a replay exercised, so a trace that never overwrites or never
/// evicts cannot pass vacuously.
#[derive(Debug, Default)]
struct Exercised {
    overwrites: u64,
    evicted: u64,
}

/// Both tables, driven on the engine's slice schedule.
struct Pair {
    interval: CountingTable,
    naive: NaiveCountingTable,
    cur_slice: u64,
    seen: Exercised,
}

impl Pair {
    fn new() -> Self {
        Pair {
            interval: CountingTable::new(),
            naive: NaiveCountingTable::default(),
            cur_slice: 0,
            seen: Exercised::default(),
        }
    }

    /// `len()`, `avg_wl()` bits and the sorted entry lists must agree.
    fn compare_state(&self, at: &str) -> Result<(), String> {
        let (i, n) = (&self.interval, &self.naive);
        if i.len() != n.len() {
            return Err(format!("{at}: len {} vs reference {}", i.len(), n.len()));
        }
        if i.avg_wl().to_bits() != n.avg_wl().to_bits() {
            return Err(format!(
                "{at}: avg_wl {} vs reference {}",
                i.avg_wl(),
                n.avg_wl()
            ));
        }
        let (ie, ne) = (
            sorted(i.iter().copied()),
            sorted(n.entries.values().copied()),
        );
        if ie != ne {
            return Err(format!("{at}: entries {ie:?} vs reference {ne:?}"));
        }
        Ok(())
    }

    fn evict(&mut self, cutoff: u64, at: &str) -> Result<(), String> {
        let (a, b) = (
            self.interval.evict_older_than(cutoff),
            self.naive.evict_older_than(cutoff),
        );
        if a != b {
            return Err(format!(
                "{at}: evicted {a} vs reference {b} (cutoff {cutoff})"
            ));
        }
        self.seen.evicted += a as u64;
        self.compare_state(at)
    }

    /// `FeatureEngine::close_slice`'s eviction.
    fn close_slice(&mut self) -> Result<(), String> {
        let cutoff = (self.cur_slice + 1).saturating_sub(WINDOW);
        self.evict(cutoff, &format!("close of slice {}", self.cur_slice))?;
        self.cur_slice += 1;
        Ok(())
    }

    /// `FeatureEngine::advance_to`, including the long-gap jump.
    fn advance_to(&mut self, target: u64) -> Result<(), String> {
        if target > self.cur_slice + 2 * WINDOW {
            for _ in 0..=WINDOW {
                self.close_slice()?;
            }
            self.evict(u64::MAX, &format!("gap jump to slice {target}"))?;
            self.cur_slice = target - WINDOW;
        }
        while self.cur_slice < target {
            self.close_slice()?;
        }
        Ok(())
    }

    fn apply(&mut self, step: usize, req: &IoReq) -> Result<(), String> {
        self.advance_to(req.time.slice_index(SLICE))?;
        let at = format!("request {step} {req}");
        let slice = self.cur_slice;
        match req.mode {
            IoMode::Read => {
                self.interval.record_read_range(req.lba, req.len, slice);
                self.naive.record_read_range(req.lba, req.len, slice);
            }
            IoMode::Write | IoMode::Trim => {
                let (mut ranges, mut ref_ranges) = (Vec::new(), Vec::new());
                let n = self
                    .interval
                    .record_write_extent(req.lba, req.len, slice, &mut |s, n| {
                        ranges.push((s.index(), n))
                    });
                let ref_n = self
                    .naive
                    .record_write_extent(req.lba, req.len, slice, &mut |s, n| {
                        ref_ranges.push((s.index(), n))
                    });
                if n != ref_n {
                    return Err(format!("{at}: {n} overwrites vs reference {ref_n}"));
                }
                if ranges != ref_ranges {
                    return Err(format!(
                        "{at}: overwritten ranges {ranges:?} vs reference {ref_ranges:?}"
                    ));
                }
                self.seen.overwrites += n as u64;
            }
        }
        self.compare_state(&at)
    }
}

/// Replays `reqs` (time-ordered) through both tables and flushes slices
/// 5 s past the last request, comparing at every step.
fn replay(reqs: &[IoReq]) -> Result<Exercised, String> {
    let mut pair = Pair::new();
    for (step, req) in reqs.iter().enumerate() {
        pair.apply(step, req)?;
    }
    let end = reqs.last().map_or(SimTime::ZERO, |r| r.time);
    pair.advance_to(end.saturating_add(SimTime::from_secs(5)).slice_index(SLICE))?;
    Ok(pair.seen)
}

fn assert_identical(name: &str, reqs: &[IoReq]) {
    let seen = replay(reqs).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        seen.overwrites > 0,
        "{name}: trace never overwrote: {seen:?}"
    );
    assert!(seen.evicted > 0, "{name}: trace never evicted: {seen:?}");
}

#[derive(Debug, Clone)]
enum Op {
    /// Read `len` blocks at `slot * 2`: adjacent and overlapping runs occur
    /// by construction, exercising the merge paths.
    Read {
        slot: u8,
        len: u8,
    },
    Write {
        slot: u8,
        len: u8,
    },
    Trim {
        slot: u8,
        len: u8,
    },
    /// Idle gap of up to 30 s, past the `2N` cutover, so both the dense
    /// and the gap-jump advance are compared.
    Sleep {
        micros: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0u8..32;
    let len = 1u8..=6;
    prop_oneof![
        4 => (slot.clone(), len.clone()).prop_map(|(slot, len)| Op::Read { slot, len }),
        5 => (slot.clone(), len.clone()).prop_map(|(slot, len)| Op::Write { slot, len }),
        1 => (slot, len).prop_map(|(slot, len)| Op::Trim { slot, len }),
        2 => (1u32..30_000_000).prop_map(|micros| Op::Sleep { micros }),
    ]
}

fn req_stream(ops: &[Op]) -> Vec<IoReq> {
    let mut t = SimTime::ZERO;
    let mut reqs = Vec::new();
    for op in ops {
        let (slot, len, mode) = match *op {
            Op::Read { slot, len } => (slot, len, IoMode::Read),
            Op::Write { slot, len } => (slot, len, IoMode::Write),
            Op::Trim { slot, len } => (slot, len, IoMode::Trim),
            Op::Sleep { micros } => {
                t = t.plus_micros(micros as u64);
                continue;
            }
        };
        reqs.push(IoReq::new(t, Lba::new(slot as u64 * 2), mode, len as u32));
        t = t.plus_micros(500);
    }
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tables_agree_on_adversarial_streams(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        let outcome = replay(&req_stream(&ops));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Sequential sweep: large extent reads then full overwrites — the workload
/// the interval index optimizes hardest.
#[test]
fn differential_sequential_trace() {
    let mut reqs = Vec::new();
    for s in 0..8u64 {
        for i in 0..24u64 {
            let lba = Lba::new(s * 8192 + i * 256);
            let t = SimTime::from_secs(s).plus_micros(i * 1_000);
            reqs.push(IoReq::new(t, lba, IoMode::Read, 256));
            reqs.push(IoReq::new(t.plus_micros(500), lba, IoMode::Write, 256));
        }
    }
    assert_identical("sequential", &reqs);
}

/// Random mixed I/O with variable-length extents, including writes that
/// partially overlap read runs and trims.
#[test]
fn differential_random_trace() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF);
    let mut reqs = Vec::new();
    for i in 0..4_000u64 {
        let t = SimTime::from_micros(i * 3_000); // ~12 s of traffic
        let lba = Lba::new(rng.random_range(0u64..5_000));
        let len = rng.random_range(1u32..=16);
        let mode = match rng.random_range(0u32..10) {
            0..=4 => IoMode::Read,
            5..=8 => IoMode::Write,
            _ => IoMode::Trim,
        };
        reqs.push(IoReq::new(t, lba, mode, len));
    }
    assert_identical("random", &reqs);
}

/// Ransomware mixed with background cloud-storage traffic — the realistic
/// detection workload.
#[test]
fn differential_ransomware_mix_trace() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let space = FileSpace::generate(&mut rng, &small_space());
    let duration = SimTime::from_secs(10);
    let ransom = RansomwareKind::Mole
        .model()
        .generate(&mut rng, &space, duration);
    let cloud = AppKind::CloudStorage
        .model()
        .generate(&mut rng, &space, duration);
    let mixed: Trace = merge([ransom, cloud]);
    assert!(mixed.is_sorted());
    assert_identical("ransomware-mix", mixed.reqs());
}
