//! Power-loss crash tests at the FTL layer (ISSUE 5 satellites).
//!
//! * Proptest: after an arbitrary write/trim sequence cut short by a power
//!   loss at an arbitrary program/erase boundary, the remounted FTL's full
//!   logical contents equal a never-crashed differential oracle that
//!   replayed only the *acknowledged* operations (then power-cycled
//!   cleanly, so both sides share the documented trim-volatility
//!   semantics). Run with and without a protection window.
//! * Mid-GC crash: a cut landing exactly on a victim erase — after the
//!   migration programs — must lose nothing, and the rebuilt victim index
//!   must survive further garbage collection (the PR-3 debug
//!   reconciliation asserts run on every post-remount GC).
//! * Mount charge: the one mount path reads every programmed page's spare
//!   area once, and each read costs its die and its channel bus exactly
//!   one read and one transfer.
//! * Corrupt spare area: a record that fails its CRC at mount is treated as
//!   untagged; its page is never mapped and only its own logical page can
//!   lose its latest version.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Geometry, Lba, NandConfig, NandError, PageState, Pba, Ppa, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const WINDOW: SimTime = SimTime::from_millis(50);

fn config() -> FtlConfig {
    FtlConfig::new(Geometry::tiny()).protection_window(WINDOW)
}

#[derive(Debug, Clone)]
enum Op {
    Write { lba: u64, len: u32 },
    Trim { lba: u64, len: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..120, 1u32..=4).prop_map(|(lba, len)| Op::Write { lba, len }),
        1 => (0u64..120, 1u32..=4).prop_map(|(lba, len)| Op::Trim { lba, len }),
    ]
}

fn unique_payload(lba: u64, op: usize) -> Bytes {
    Bytes::from(format!("L{lba}O{op}"))
}

fn is_power_loss(e: &FtlError) -> bool {
    matches!(e, FtlError::Nand(NandError::PowerLoss))
}

/// The acknowledged portion of a crashed replay, in replay order.
#[derive(Debug, Default)]
struct Acked {
    ops: Vec<(SimTime, Op, Vec<Bytes>)>,
    hist: HashMap<u64, Vec<Bytes>>,
    trimmed: HashSet<u64>,
    now: SimTime,
    crashed: bool,
}

/// Replays `ops` until the scheduled cut fires, recording exactly what the
/// FTL acknowledged (a partially completed extent contributes its completed
/// prefix).
fn replay_until_crash(ftl: &mut InsiderFtl, ops: &[Op], cut: u64) -> Acked {
    let mut plan = FaultPlan::new();
    plan.power_cut_after(cut);
    ftl.set_fault_plan(plan);
    let mut acked = Acked::default();
    for (i, op) in ops.iter().enumerate() {
        let now = SimTime::from_millis(10 + 10 * i as u64);
        acked.now = now;
        match *op {
            Op::Write { lba, len } => {
                let payloads: Vec<Bytes> = (0..len as u64)
                    .map(|j| unique_payload(lba + j, i))
                    .collect();
                let before = ftl.stats().host_writes;
                let result = ftl.write_extent(Lba::new(lba), &payloads, now);
                let done = (ftl.stats().host_writes - before) as usize;
                if done > 0 {
                    for (j, p) in payloads[..done].iter().enumerate() {
                        acked
                            .hist
                            .entry(lba + j as u64)
                            .or_default()
                            .push(p.clone());
                        acked.trimmed.remove(&(lba + j as u64));
                    }
                    acked.ops.push((
                        now,
                        Op::Write {
                            lba,
                            len: done as u32,
                        },
                        payloads[..done].to_vec(),
                    ));
                }
                match result {
                    Ok(()) => assert_eq!(done, len as usize),
                    Err(e) if is_power_loss(&e) => {
                        acked.crashed = true;
                        return acked;
                    }
                    Err(e) => panic!("replay write failed: {e}"),
                }
            }
            Op::Trim { lba, len } => match ftl.trim_extent(Lba::new(lba), len, now) {
                Ok(()) => {
                    for j in 0..len as u64 {
                        acked.trimmed.insert(lba + j);
                    }
                    acked.ops.push((now, Op::Trim { lba, len }, Vec::new()));
                }
                Err(e) if is_power_loss(&e) => {
                    acked.crashed = true;
                    return acked;
                }
                Err(e) => panic!("replay trim failed: {e}"),
            },
        }
    }
    acked
}

/// Replays only the acknowledged ops on a fresh, never-faulted FTL.
fn replay_acked(ftl: &mut InsiderFtl, acked: &Acked) {
    for (now, op, payloads) in &acked.ops {
        match *op {
            Op::Write { lba, .. } => {
                ftl.write_extent(Lba::new(lba), payloads, *now)
                    .expect("oracle write failed");
            }
            Op::Trim { lba, len } => {
                ftl.trim_extent(Lba::new(lba), len, *now)
                    .expect("oracle trim failed");
            }
        }
    }
}

/// Crash-vs-oracle differential run: contents must match page for page,
/// with the documented trim-volatility relaxation; afterwards both drives
/// must keep absorbing writes (exercising GC over the rebuilt per-block
/// state and victim index — the PR-3 reconciliation asserts run in debug).
fn check_crash_matches_oracle(window: Option<SimTime>, ops: &[Op], cut: u64) {
    let make = || InsiderFtl::new(config().protection_window(window));
    let mut crashed = make();
    let acked = replay_until_crash(&mut crashed, ops, cut);
    crashed.power_cut(acked.now).expect("remount failed");
    // A cut scheduled beyond the replay's mutation count is still pending;
    // the restored device must not inherit it.
    crashed.set_fault_plan(FaultPlan::new());

    let mut oracle = make();
    replay_acked(&mut oracle, &acked);
    oracle.power_cut(acked.now).expect("oracle remount failed");

    assert_eq!(crashed.logical_pages(), oracle.logical_pages());
    for lba in 0..crashed.logical_pages() {
        let c = crashed.read(Lba::new(lba), acked.now).expect("read failed");
        let o = oracle
            .read(Lba::new(lba), acked.now)
            .expect("oracle read failed");
        if acked.trimmed.contains(&lba) {
            // Trims are volatile across power loss; both sides must still
            // hold either nothing or an acknowledged version of this page.
            for (side, v) in [("crashed", &c), ("oracle", &o)] {
                assert!(
                    v.is_none()
                        || acked
                            .hist
                            .get(&lba)
                            .is_some_and(|h| h.contains(v.as_ref().unwrap())),
                    "{side} resurrected foreign data at lba {lba} (cut={cut})"
                );
            }
        } else {
            assert_eq!(c, o, "lba {lba} diverged from the oracle (cut={cut})");
            let want = acked.hist.get(&lba).and_then(|h| h.last());
            assert_eq!(
                c.as_ref(),
                want,
                "lba {lba} lost an acked write (cut={cut})"
            );
        }
    }

    // The remounted block state must sustain further service: overwrite a
    // working set hard enough to force garbage collection on both drives.
    let mut t = acked.now + SimTime::from_secs(1);
    for round in 0..40u64 {
        for lba in 0..8u64 {
            let payload = Bytes::from(format!("post{round}:{lba}"));
            crashed
                .write(Lba::new(lba), payload.clone(), t)
                .expect("post-remount write");
            oracle
                .write(Lba::new(lba), payload, t)
                .expect("post-oracle write");
            t += SimTime::from_millis(5);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conventional_remount_matches_acked_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        cut in 1u64..160,
    ) {
        check_crash_matches_oracle(None, &ops, cut);
    }

    #[test]
    fn insider_remount_matches_acked_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        cut in 1u64..160,
    ) {
        check_crash_matches_oracle(Some(WINDOW), &ops, cut);
    }
}

/// GC-heavy workload: a hot working set overwritten until garbage
/// collection must run, with one fresh cold page per round interleaved so
/// victim blocks always hold live pages and GC must migrate (a pure hot
/// set leaves victims fully invalid — nothing to copy, nothing to test).
/// Times advance 5 ms per write against a 50 ms window, so retirement
/// churns protection on and off as GC runs.
fn gc_workload() -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut t = SimTime::from_millis(10);
    for round in 0..120u64 {
        for lba in 0..7u64 {
            out.push((lba, t));
            t += SimTime::from_millis(5);
        }
        out.push((8 + round, t));
        t += SimTime::from_millis(5);
    }
    out
}

/// Runs the GC workload with a cut after `cut` mutations. Returns the
/// remounted FTL, the NAND (programs, erases) it had applied before the
/// cut, and the expected surviving contents.
/// A crashed-and-remounted FTL, the `(programs, erases)` that actually
/// applied before the cut, and the payloads that must survive.
type GcCrashRun = (InsiderFtl, (u64, u64), HashMap<u64, Bytes>);

fn run_gc_crash(cut: u64) -> GcCrashRun {
    let mut ftl = InsiderFtl::new(config());
    let mut plan = FaultPlan::new();
    plan.power_cut_after(cut);
    ftl.set_fault_plan(plan);
    let mut expected = HashMap::new();
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in gc_workload().into_iter().enumerate() {
        now = t;
        let payload = unique_payload(lba, i);
        match ftl.write(Lba::new(lba), payload.clone(), t) {
            Ok(()) => {
                expected.insert(lba, payload);
            }
            Err(e) if is_power_loss(&e) => break,
            Err(e) => panic!("gc workload write failed: {e}"),
        }
    }
    let s = ftl.nand_stats();
    let applied = (s.programs, s.erases);
    ftl.power_cut(now).expect("remount failed");
    (ftl, applied, expected)
}

#[test]
fn crash_between_gc_migration_and_victim_erase_loses_nothing() {
    // Find cut points that land exactly ON a victim erase: the migration
    // programs for that victim completed, the erase itself failed. The op
    // at boundary k is an erase iff allowing one more op (cut k+1) bumps
    // the applied erase count.
    let mut prev: Option<GcCrashRun> = None;
    let mut mid_gc_points = 0;
    let mut k = 1;
    while mid_gc_points < 3 && k < 4000 {
        let run = run_gc_crash(k);
        if let Some((mut ftl, (_, erases), expected)) = prev.take() {
            let erased_next = run.1 .1 > erases;
            if erased_next && ftl.stats().gc_page_copies > 0 {
                ftl.set_fault_plan(FaultPlan::new());
                // `ftl` crashed between the migration programs and the
                // victim erase. Nothing may be lost — in particular the
                // protected (delayed-deletion) pages the migration moved.
                mid_gc_points += 1;
                for (lba, payload) in &expected {
                    let got = ftl.read(Lba::new(*lba), SimTime::from_secs(10)).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        Some(payload),
                        "lba {lba} lost across a mid-GC crash (cut={})",
                        k - 1
                    );
                }
                // The rebuilt victim index and protected mirror must
                // reconcile through further GC (debug asserts in
                // select_victim/tick fire on divergence).
                let mut t = SimTime::from_secs(20);
                for round in 0..120u64 {
                    for lba in 0..8u64 {
                        ftl.write(Lba::new(lba), Bytes::from(format!("p{round}:{lba}")), t)
                            .expect("post-remount GC write failed");
                        t += SimTime::from_millis(5);
                    }
                }
                assert!(ftl.stats().gc_invocations > 0);
            }
        }
        prev = Some(run);
        k += 1;
    }
    assert_eq!(
        mid_gc_points, 3,
        "workload never produced a mid-GC crash point"
    );
}

/// The mount scan reads every programmed page's spare area exactly once,
/// and each of those reads is charged like any other: one read latency on
/// the die it lands on, one transfer on that die's channel bus. Across a
/// remount the read count grows by the summed block write pointers, and
/// the summed die and bus busy integrals by that count times the read and
/// transfer latencies.
#[test]
fn mount_scan_reads_every_programmed_page_and_is_charged_per_read() {
    const READ_NS: u64 = 50_000;
    const BUS_NS: u64 = 30_000;
    let nand = NandConfig::new(Geometry::tiny())
        .read_latency_ns(READ_NS)
        .bus_transfer_ns(BUS_NS);
    let mut ftl = InsiderFtl::new(FtlConfig::with_nand(nand).protection_window(WINDOW));
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in gc_workload().into_iter().enumerate() {
        now = t;
        ftl.write(Lba::new(lba), unique_payload(lba, i), t)
            .expect("write failed");
    }
    assert!(
        ftl.stats().gc_erases > 0,
        "the workload must recycle blocks"
    );
    let g = *ftl.device().geometry();
    let programmed: u64 = (0..g.total_blocks())
        .map(|raw| {
            let block = ftl.device().block(Pba::new(raw)).expect("block in range");
            u64::from(block.write_ptr().unwrap_or(g.pages_per_block()))
        })
        .sum();
    let busy = |ftl: &InsiderFtl| {
        let s = ftl.nand_stats();
        (
            s.reads,
            s.die_busy_ns.iter().sum::<u64>(),
            s.bus_busy_ns.iter().sum::<u64>(),
        )
    };
    let (reads, die, bus) = busy(&ftl);
    ftl.power_cut(now).expect("remount failed");
    let (reads_after, die_after, bus_after) = busy(&ftl);
    let scanned = reads_after - reads;
    assert_eq!(
        scanned, programmed,
        "one spare-area read per programmed page"
    );
    assert_eq!(die_after - die, scanned * READ_NS, "die time");
    assert_eq!(bus_after - bus, scanned * BUS_NS, "bus time");
}

/// The GC workload with the spare area of its `n`-th tagged program (host
/// write or GC copy) corrupted, then a power cut. Returns the remounted
/// drive, every payload each logical page was written with, oldest first,
/// and the corrupt page if it was still on flash at the cut.
fn run_corrupt_oob(n: u64) -> (InsiderFtl, HashMap<u64, Vec<Bytes>>, Option<Ppa>) {
    let mut ftl = InsiderFtl::new(config());
    let mut plan = FaultPlan::new();
    plan.corrupt_oob_nth(n);
    ftl.set_fault_plan(plan);
    let mut hist: HashMap<u64, Vec<Bytes>> = HashMap::new();
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in gc_workload().into_iter().enumerate() {
        now = t;
        let payload = unique_payload(lba, i);
        ftl.write(Lba::new(lba), payload.clone(), t)
            .expect("corrupt-OOB workload write failed");
        hist.entry(lba).or_default().push(payload);
    }
    let pages = ftl.device().geometry().total_pages();
    let corrupt: Vec<Ppa> = (0..pages)
        .map(Ppa::new)
        .filter(|&p| matches!(ftl.device().oob(p), Err(NandError::OobCorrupt(_))))
        .collect();
    assert!(
        corrupt.len() <= 1,
        "one corruption was scheduled: {corrupt:?}"
    );
    ftl.power_cut(now)
        .expect("mount over a corrupt record failed");
    (ftl, hist, corrupt.first().copied())
}

#[test]
fn mount_over_a_corrupt_spare_area_maps_only_what_checks() {
    let tagged = {
        let (ftl, _, corrupt) = run_corrupt_oob(u64::MAX);
        assert_eq!(corrupt, None);
        ftl.device().last_seq()
    };
    let mut met = 0;
    for n in (1..=tagged).step_by(23) {
        let (mut ftl, hist, corrupt) = run_corrupt_oob(n);
        assert_eq!(
            ftl.mount_scan_corrupt(),
            u64::from(corrupt.is_some()),
            "n={n}"
        );
        // The one logical page that may have lost its latest version: the
        // one the corrupt page holds a payload of (`L{lba}O{op}`).
        let lost = corrupt.map(|ppa| {
            met += 1;
            assert_ne!(
                ftl.device().page_state(ppa).unwrap(),
                PageState::Valid,
                "n={n}: the corrupt page {ppa} was mapped"
            );
            let data = ftl.device().peek_data(ppa).unwrap().unwrap().clone();
            let text = String::from_utf8(data.to_vec()).unwrap();
            let lba: u64 = text[1..text.find('O').unwrap()].parse().unwrap();
            lba
        });
        let late = SimTime::from_secs(100);
        for (&lba, versions) in &hist {
            let got = ftl.read(Lba::new(lba), late).unwrap();
            if Some(lba) == lost {
                assert!(
                    got.as_ref().is_none_or(|g| versions.contains(g)),
                    "n={n}: lba {lba} reads a payload it was never written with"
                );
            } else {
                assert_eq!(got.as_ref(), versions.last(), "n={n}: lba {lba}");
            }
        }
        // The drive keeps collecting over the skipped page.
        let mut t = late;
        for round in 0..40u64 {
            for lba in 0..8u64 {
                ftl.write(Lba::new(lba), Bytes::from(format!("p{round}:{lba}")), t)
                    .expect("post-mount write failed");
                t += SimTime::from_millis(5);
            }
        }
    }
    assert!(met > 0, "no corrupt record survived to a mount");
}
