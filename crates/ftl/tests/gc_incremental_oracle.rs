//! Differential oracle for the two policies of the one GC engine.
//!
//! Blocking (`incremental_gc(false)`, the default) and incremental GC run
//! the same resumable job engine; the flag moves only the trigger and the
//! budget. Two equivalences are proved over random workloads:
//!
//! 1. **Degenerate parity** — with the low watermark collapsed onto the
//!    blocking trigger (`gc_low_water_extra(0)`) and an unbounded step
//!    budget the flag has nothing left to move, so the two policies must
//!    agree *byte for byte*: same victim sequence, same statistics, same
//!    surviving data, errors at the same operations.
//! 2. **Quiescent-state equivalence** — with a real (finite) budget the
//!    collection *schedule* legitimately differs, but once the incremental
//!    policy's paused job is drained the logical contents must be identical
//!    to the blocking run, and rollback must restore identical state.
//!
//! A deterministic anchor additionally forces a rollback *while a GC job
//! is paused mid-block* — the revalidated backups may point back into the
//! pinned victim, and the resumed job must migrate them as live data.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, FtlError, FtlStats, GcVictim, Hold, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
}

/// Writes hit a 96-page span of a 192-page drive — high enough utilization
/// to keep GC busy, with slack for delayed deletion (see
/// `victim_index_oracle.rs` for the feasibility argument).
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

/// The degenerate incremental configuration: the blocking policy's trigger
/// and its unbounded budget, reached through the other arm of the flag.
fn degenerate() -> FtlConfig {
    config()
        .incremental_gc(true)
        .gc_low_water_extra(0)
        .gc_step_pages(u32::MAX)
}

/// A production-shaped incremental configuration: early trigger, small
/// budgeted steps, jobs routinely paused across host writes.
fn budgeted() -> FtlConfig {
    config()
        .incremental_gc(true)
        .gc_low_water_extra(2)
        .gc_step_pages(2)
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

/// Everything observable about a run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    victims: Vec<GcVictim>,
    stats: FtlStats,
    contents: Vec<Option<Bytes>>,
    first_error: Option<(usize, String)>,
}

/// Replays `ops` at 200 ms apart (old versions keep expiring, so the mix
/// stays feasible) and snapshots the observable end state. The step and
/// fallback counters and wall-clock GC time are scrubbed: the oracle
/// compares *what* was collected, not how the work was sliced.
fn run(ftl: &mut InsiderFtl, ops: &[Op]) -> (Outcome, SimTime) {
    let mut now = SimTime::from_secs(1);
    let mut first_error = None;
    for (i, op) in ops.iter().enumerate() {
        let result = match *op {
            Op::Write(lba) => {
                let tag = (i as u32).to_le_bytes();
                ftl.write(Lba::new(lba), Bytes::copy_from_slice(&tag), now)
            }
            Op::Trim(lba) => ftl.trim(Lba::new(lba), now),
        };
        match result {
            Ok(()) => {}
            Err(FtlError::NoReclaimableSpace) => {
                first_error = Some((i, FtlError::NoReclaimableSpace.to_string()));
                break;
            }
            Err(e) => panic!("unexpected error at op {i}: {e}"),
        }
        now += SimTime::from_millis(200);
    }
    let contents = ftl.read_extent(Lba::new(0), SPAN as u32, now).unwrap();
    let mut stats = *ftl.stats();
    stats.gc_ns = 0;
    stats.gc_steps = 0;
    stats.gc_stw_fallbacks = 0;
    (
        Outcome {
            victims: ftl.gc_victims().to_vec(),
            stats,
            contents,
            first_error,
        },
        now,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conventional FTL: the degenerate incremental configuration is
    /// indistinguishable from the blocking policy.
    #[test]
    fn conventional_degenerate_matches_blocking(ops in op_strategy()) {
        let mut blocking = InsiderFtl::new(config().protection_window(None));
        let mut incremental = InsiderFtl::new(degenerate().protection_window(None));
        let (a, _) = run(&mut blocking, &ops);
        let (b, _) = run(&mut incremental, &ops);
        prop_assert_eq!(a, b);
    }

    /// Insider FTL: same degenerate parity with delayed-deletion
    /// protection live — backup relocation decisions included.
    #[test]
    fn insider_degenerate_matches_blocking(ops in op_strategy()) {
        let mut blocking = InsiderFtl::new(config());
        let mut incremental = InsiderFtl::new(degenerate());
        let (a, _) = run(&mut blocking, &ops);
        let (b, _) = run(&mut incremental, &ops);
        prop_assert_eq!(
            blocking.recovery_queue().protected_count(),
            incremental.recovery_queue().protected_count()
        );
        prop_assert_eq!(a, b);
    }

    /// A real budgeted configuration slices GC differently, but at
    /// quiescence (paused job drained) the logical contents are identical
    /// to the blocking run.
    #[test]
    fn budgeted_contents_match_blocking_at_quiescence(ops in op_strategy()) {
        let mut blocking = InsiderFtl::new(config());
        let mut incremental = InsiderFtl::new(budgeted());
        let (a, end) = run(&mut blocking, &ops);
        let (b, _) = run(&mut incremental, &ops);
        // Divergent infeasibility points would make the executed prefixes
        // (and thus contents) legitimately differ; the strategy is built
        // to stay feasible, so in practice both arms complete.
        if a.first_error.is_none() && b.first_error.is_none() {
            incremental.gc_quiesce().unwrap();
            prop_assert!(!incremental.gc_job_pending());
            let after = incremental.read_extent(Lba::new(0), SPAN as u32, end).unwrap();
            prop_assert_eq!(&a.contents, &after);
            prop_assert_eq!(a.stats.host_writes, b.stats.host_writes);
        }
    }

    /// Rollback restores identical logical state whether GC ran blocking
    /// or incrementally: collection scheduling never leaks into recovery.
    #[test]
    fn rollback_identical_under_blocking_and_incremental(ops in op_strategy()) {
        let mut blocking = InsiderFtl::new(config());
        let mut incremental = InsiderFtl::new(budgeted());
        let (a, end) = run(&mut blocking, &ops);
        let (b, _) = run(&mut incremental, &ops);
        if a.first_error.is_none() && b.first_error.is_none() {
            let ra = blocking.rollback(end).unwrap();
            let rb = incremental.rollback(end).unwrap();
            prop_assert_eq!(ra, rb);
            prop_assert_eq!(
                blocking.read_extent(Lba::new(0), SPAN as u32, end).unwrap(),
                incremental.read_extent(Lba::new(0), SPAN as u32, end).unwrap()
            );
        }
    }
}

/// Deterministic anchor for the budgeted proptests: a fixed churn that
/// provably pauses jobs (`gc_steps > 0` with a 2-page budget against
/// 8-page blocks) and still converges to the blocking contents.
#[test]
fn deterministic_budgeted_churn_pauses_jobs_and_converges() {
    let churn = |cfg: FtlConfig| -> (InsiderFtl, SimTime) {
        let mut f = InsiderFtl::new(cfg);
        let mut now = SimTime::from_secs(1);
        for i in 0..800u64 {
            // Half the writes churn an 8-page hot set, half sweep the span.
            let lba = if i.is_multiple_of(2) {
                i / 2 % 8
            } else {
                8 + i / 2 % (SPAN - 8)
            };
            f.write(
                Lba::new(lba),
                Bytes::copy_from_slice(&(i as u32).to_le_bytes()),
                now,
            )
            .unwrap();
            now += SimTime::from_millis(200);
        }
        (f, now)
    };
    let (mut blocking, end) = churn(config());
    let (mut incremental, _) = churn(budgeted());
    assert!(blocking.stats().gc_invocations > 0, "churn must trigger GC");
    assert!(
        incremental.stats().gc_steps > 0,
        "budgeted engine must pump in steps"
    );
    incremental.gc_quiesce().unwrap();
    assert_eq!(
        blocking.read_extent(Lba::new(0), SPAN as u32, end).unwrap(),
        incremental
            .read_extent(Lba::new(0), SPAN as u32, end)
            .unwrap()
    );
}

/// Rollback-after-alarm **while a GC job is paused mid-block**. The
/// revalidated backup pages may sit inside (or ahead of) the pinned
/// victim's cursor; the resumed job must treat them as live data and the
/// drive must stay fully serviceable afterwards.
///
/// Staging matters: a frozen queue protects every new invalidation, and
/// `select_victim` only counts *unprotected* invalid pages, so GC can
/// only run post-freeze on reclaimable stock built up beforehand. The
/// pre-attack churn provides that stock on a drive big enough to absorb
/// the frozen growth.
#[test]
fn rollback_mid_gc_job_restores_pre_attack_data() {
    let geometry = Geometry::builder()
        .blocks_per_chip(48)
        .pages_per_block(8)
        .page_size(64)
        .build();
    // A high extra watermark engages the incremental engine long before
    // the hard floor, so the frozen phase never risks NoReclaimableSpace;
    // the 1-page step pauses jobs on any victim holding live data.
    let mut f = InsiderFtl::new(
        FtlConfig::new(geometry)
            .incremental_gc(true)
            .gc_low_water_extra(8)
            .gc_step_pages(1),
    );
    // The user's data, long before the attack.
    let precious: Vec<Bytes> = (0..32u64)
        .map(|i| Bytes::copy_from_slice(format!("precious{i:02}").as_bytes()))
        .collect();
    for (i, page) in precious.iter().enumerate() {
        f.write(Lba::new(i as u64), page.clone(), SimTime::from_secs(1))
            .unwrap();
    }
    // Normal-life churn on unrelated LBAs: drains the free pool until the
    // incremental engine runs steadily, and (because old versions expire
    // at this 200 ms cadence) stockpiles unprotected-invalid pages for
    // the frozen phase to collect.
    let mut t = SimTime::from_secs(60);
    let churn_lba = |i: u64| {
        if i.is_multiple_of(2) {
            Lba::new(32)
        } else {
            Lba::new(33 + i / 2 % 47)
        }
    };
    for i in 0..600u64 {
        f.write(churn_lba(i), Bytes::from_static(b"user-data"), t)
            .unwrap();
        t += SimTime::from_millis(200);
    }
    // The attack: encrypt the whole precious set quickly (well inside the
    // 10 s protection window), then freeze retirement as the device would
    // on the alarm.
    for i in 0..32u64 {
        f.write(Lba::new(i), Bytes::from_static(b"3ncryp7ed!!!"), t)
            .unwrap();
        t += SimTime::from_millis(100);
    }
    f.set_hold(Hold {
        read_only: false,
        frozen_at: Some(t),
    });
    // The ransomware keeps churning; GC works the pre-freeze stock until
    // the 1-page budget leaves a collection job paused mid-block.
    let mut guard = 0u64;
    while !f.gc_job_pending() {
        f.write(churn_lba(guard), Bytes::from_static(b"3ncryp7ed!!!"), t)
            .unwrap();
        t += SimTime::from_millis(100);
        guard += 1;
        assert!(guard < 150, "GC job never paused under churn");
    }
    // Roll back with the job still parked, then release the hold as the
    // device's reboot would.
    let report = f.rollback(t).unwrap();
    f.set_hold(Hold::default());
    assert!(report.restored >= 32, "all 32 pages must be restored");
    for (i, page) in precious.iter().enumerate() {
        assert_eq!(
            f.read(Lba::new(i as u64), t).unwrap().as_ref(),
            Some(page),
            "lba {i} must hold the pre-attack version"
        );
    }
    // The paused job drains cleanly over the restored state, and the
    // drive keeps serving writes.
    f.gc_quiesce().unwrap();
    assert!(!f.gc_job_pending());
    for i in 0..32u64 {
        f.write(Lba::new(i), Bytes::from_static(b"fresh"), t)
            .unwrap();
    }
    for i in 0..32u64 {
        assert_eq!(f.read(Lba::new(i), t).unwrap().unwrap().as_ref(), b"fresh");
    }
}
