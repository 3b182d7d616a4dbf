//! Differential oracle for the incremental GC victim index.
//!
//! The index is the only victim selector a release build has. The
//! full-device scan it replaced is compiled under `cfg(debug_assertions)`
//! and asserted equal to the index inside *every* `select_victim` call,
//! from independent inputs (the scan recounts protected pages from the
//! recovery queue's entries, the index reads the FTL's own counts). Tier 1 runs the
//! debug profile, so each workload below checks
//! every selection it causes — the comparison this suite used to make
//! between an indexed and a scan-configured instance, made at the call
//! instead of at the end of the run. On top, in any profile (the only part
//! `cargo test --release` keeps): the surviving data equals a model of the
//! operations, before and after rollback.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
}

/// Writes hit a 96-page span of a 192-page drive, so utilization stays
/// high enough to force GC but leaves slack for delayed deletion.
const SPAN: u64 = 96;

fn geometry() -> Geometry {
    Geometry::builder()
        .blocks_per_chip(24)
        .pages_per_block(8)
        .page_size(64)
        .build()
}

fn config() -> FtlConfig {
    FtlConfig::new(geometry()).record_gc_victims(true)
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0..SPAN).prop_map(Op::Write),
            1 => (0..SPAN).prop_map(Op::Trim),
        ],
        150..400,
    )
}

fn time_of(op_index: usize) -> SimTime {
    SimTime::from_secs(1) + SimTime::from_millis(200 * op_index as u64)
}

/// Replays `ops` — every selection checked in-process in debug builds — and
/// returns how many were applied: all of them, or the prefix before the
/// first `NoReclaimableSpace`, the one error an infeasible protection load
/// may legitimately raise (and which changes nothing). 200 ms per op keeps
/// one 10 s window of pre-images (~50 pages) inside the drive's slack, so
/// the insider FTL stays feasible for almost any op mix the strategy draws.
fn run(ftl: &mut InsiderFtl, ops: &[Op]) -> usize {
    for (i, op) in ops.iter().enumerate() {
        let now = time_of(i);
        let result = match *op {
            Op::Write(lba) => ftl.write(Lba::new(lba), tag(i), now),
            Op::Trim(lba) => ftl.trim(Lba::new(lba), now),
        };
        match result {
            Ok(()) => {}
            Err(FtlError::NoReclaimableSpace) => return i,
            Err(e) => panic!("unexpected error at op {i}: {e}"),
        }
    }
    ops.len()
}

/// What write number `op_index` stores.
fn tag(op_index: usize) -> Bytes {
    Bytes::copy_from_slice(&(op_index as u32).to_le_bytes())
}

/// What the span must hold after the first `applied` operations.
fn model(ops: &[Op], applied: usize) -> Vec<Option<Bytes>> {
    let mut pages = vec![None; SPAN as usize];
    for (i, op) in ops[..applied].iter().enumerate() {
        let (Op::Write(lba) | Op::Trim(lba)) = *op;
        pages[lba as usize] = matches!(op, Op::Write(_)).then(|| tag(i));
    }
    pages
}

fn contents(ftl: &mut InsiderFtl, now: SimTime) -> Vec<Option<Bytes>> {
    ftl.read_extent(Lba::new(0), SPAN as u32, now).unwrap()
}

/// Deterministic anchor for the random suite: a hot/cold split long enough
/// to guarantee reclaim selections happen, so the in-process equivalence is
/// known to cover them.
#[test]
fn deterministic_churn_covers_reclaim() {
    let mut f = InsiderFtl::new(config().protection_window(None));
    for lba in 0..SPAN / 2 {
        f.write(Lba::new(lba), Bytes::from_static(b"cold"), SimTime::ZERO)
            .unwrap();
    }
    for i in 0..6_000u64 {
        f.write(
            Lba::new(SPAN / 2 + i % 8),
            Bytes::copy_from_slice(&(i as u32).to_le_bytes()),
            SimTime::ZERO,
        )
        .unwrap();
    }
    let stats = *f.stats();
    assert!(stats.gc_invocations > 0, "reclaim GC must run");
    assert_eq!(
        f.gc_victims().len() as u64,
        stats.gc_invocations,
        "every selection must have been logged and collected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conventional FTL under random write/trim churn: each selection
    /// agrees with the scan, and the data survives.
    #[test]
    fn conventional_index_matches_scan(ops in op_strategy()) {
        let mut ftl = InsiderFtl::new(config().protection_window(None));
        let applied = run(&mut ftl, &ops);
        prop_assert_eq!(applied, ops.len(), "a conventional FTL never runs dry here");
        prop_assert_eq!(contents(&mut ftl, time_of(applied)), model(&ops, applied));
    }

    /// Insider FTL: the same with delayed-deletion protection live —
    /// protected counts flow through the index incrementally and through
    /// the recovery queue for the scan.
    #[test]
    fn insider_index_matches_scan(ops in op_strategy()) {
        let mut ftl = InsiderFtl::new(config());
        let applied = run(&mut ftl, &ops);
        prop_assert_eq!(contents(&mut ftl, time_of(applied)), model(&ops, applied));
    }

    /// Rollback after random churn restores exactly the state one window
    /// back: GC migration decisions never leak into recovery.
    #[test]
    fn rollback_state_identical_under_both_selectors(ops in op_strategy()) {
        let mut ftl = InsiderFtl::new(config());
        let applied = run(&mut ftl, &ops);
        let end = time_of(ops.len());
        let report = ftl.rollback(end).unwrap();
        // Operations stamped before the cutoff stay; younger ones are undone.
        let kept = (0..applied)
            .take_while(|&i| time_of(i) < report.restored_to)
            .count();
        prop_assert_eq!(contents(&mut ftl, end), model(&ops, kept));
    }
}
