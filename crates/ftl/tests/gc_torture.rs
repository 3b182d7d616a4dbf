//! GC torture tests: sustained high-utilization workloads with varying
//! geometries, checking that neither FTL ever loses live data, that
//! delayed-deletion protection is watertight while the window is open, and
//! that space accounting stays exact.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

fn payload(tag: u32) -> Bytes {
    Bytes::copy_from_slice(&tag.to_le_bytes())
}

fn read_tag(ftl: &mut dyn Ftl, lba: u64, now: SimTime) -> Option<u32> {
    ftl.read(Lba::new(lba), now)
        .unwrap()
        .map(|d| u32::from_le_bytes([d[0], d[1], d[2], d[3]]))
}

/// Fill to ~90 % utilization, then overwrite a rotating hot set for many
/// rounds with time advancing, so GC cycles the whole drive repeatedly.
fn torture(ftl: &mut dyn Ftl, hot_set: u64, rounds: u64, step_ms: u64) {
    let logical = ftl.logical_pages();
    let cold = (logical * 9) / 10;
    let mut model: HashMap<u64, u32> = HashMap::new();
    for lba in 0..cold {
        ftl.write(Lba::new(lba), payload(lba as u32), SimTime::ZERO)
            .unwrap();
        model.insert(lba, lba as u32);
    }
    let mut now = SimTime::from_secs(60);
    for round in 0..rounds {
        for k in 0..hot_set {
            let lba = k % cold;
            let tag = (round * hot_set + k) as u32 | 0x8000_0000;
            ftl.write(Lba::new(lba), payload(tag), now).unwrap();
            model.insert(lba, tag);
            now += SimTime::from_millis(step_ms);
        }
    }
    // Every logical page reads back its last write, despite GC churn.
    for (lba, tag) in model {
        assert_eq!(
            read_tag(ftl, lba, now),
            Some(tag),
            "lba {lba} lost its data"
        );
    }
}

#[test]
fn conventional_survives_sustained_churn() {
    let g = Geometry::builder()
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g).protection_window(None));
    torture(&mut ftl, 24, 120, 5);
    assert!(ftl.stats().gc_invocations > 0, "torture must exercise GC");
}

/// Delayed deletion has a physical feasibility bound: a drive cannot
/// protect more in-window pre-images than it has reclaimable slack. When a
/// workload exceeds that bound, the insider FTL must fail cleanly with
/// `NoReclaimableSpace` rather than corrupt data or spin.
#[test]
fn insider_reports_infeasible_protection_load_cleanly() {
    let g = Geometry::builder()
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g));
    let logical = ftl.logical_pages();
    for lba in 0..(logical * 9) / 10 {
        ftl.write(Lba::new(lba), payload(lba as u32), SimTime::ZERO)
            .unwrap();
    }
    // 200 writes/s: a 10 s window would pin ~2000 pages, far beyond the
    // ~180 pages of slack — must surface as an error, not data loss.
    let mut now = SimTime::from_secs(60);
    let mut saw_error = false;
    for i in 0..3_000u64 {
        match ftl.write(Lba::new(i % 24), payload(i as u32), now) {
            Ok(()) => {}
            Err(insider_ftl::FtlError::NoReclaimableSpace) => {
                saw_error = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        now += SimTime::from_millis(5);
    }
    assert!(saw_error, "infeasible protection load must be reported");
    // Cold data is still intact after the clean failure.
    assert_eq!(read_tag(&mut ftl, 400, now), Some(400));
}

#[test]
fn insider_survives_sustained_churn_with_retirement() {
    let g = Geometry::builder()
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g));
    // 100 ms per write keeps one window of pre-images (≈100 pages) inside
    // the drive's reclaimable slack — the feasibility bound above.
    torture(&mut ftl, 24, 120, 100);
    assert!(ftl.stats().gc_invocations > 0, "torture must exercise GC");
}

#[test]
fn insider_rollback_after_torture_still_restores_window() {
    let g = Geometry::builder()
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g));
    let logical = ftl.logical_pages();
    let cold = (logical * 8) / 10;
    for lba in 0..cold {
        ftl.write(Lba::new(lba), payload(lba as u32), SimTime::ZERO)
            .unwrap();
    }
    // Long pre-attack churn on a disjoint hot region, aged out.
    let mut now = SimTime::from_secs(30);
    for i in 0..2_000u64 {
        ftl.write(Lba::new(i % 16), payload(0xAAAA_0000 | i as u32), now)
            .unwrap();
        now += SimTime::from_millis(50);
    }
    // Quiet period so the churn retires.
    now += SimTime::from_secs(30);
    ftl.tick(now);

    // Attack: overwrite 64 cold pages within the window.
    let attack_start = now;
    for k in 0..64u64 {
        let lba = 100 + k;
        ftl.write(Lba::new(lba), payload(0xDEAD_0000 | k as u32), now)
            .unwrap();
        now += SimTime::from_millis(50);
    }
    assert!(now.saturating_sub(attack_start) < SimTime::from_secs(10));

    let report = ftl.rollback(now).unwrap();
    assert!(report.restored >= 64);
    for k in 0..64u64 {
        let lba = 100 + k;
        assert_eq!(
            read_tag(&mut ftl, lba, now),
            Some(lba as u32),
            "attacked page must revert to pre-attack content"
        );
    }
}

/// The torture run on the insider FTL over one drawn geometry.
fn churn_on_geometry(blocks: u32, pages: u32, hot: u64, rounds: u64) {
    let g = Geometry::builder()
        .blocks_per_chip(blocks)
        .pages_per_block(pages)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g));
    // Delayed deletion is only feasible when one 10 s window of writes
    // fits in the drive's reclaimable slack; derive the write cadence
    // from the drawn geometry so every case is physically possible
    // (windowed writes ≤ slack/2).
    let total = g.total_pages();
    let cold = (ftl.logical_pages() * 9) / 10;
    let slack = total - cold - g.pages_per_block() as u64;
    let step_ms = (20_000 / slack.max(1)) + 1;
    torture(&mut ftl, hot, rounds, step_ms);
}

/// A recorded counterexample of `churn_is_safe_across_geometries`: the
/// smallest drawable geometry, once shrunk to by two separate failures.
#[test]
fn churn_is_safe_on_recorded_smallest_geometry() {
    churn_on_geometry(24, 8, 4, 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The invariant suite holds across random geometries.
    #[test]
    fn churn_is_safe_across_geometries(
        blocks in 24u32..80,
        pages in 8u32..24,
        hot in 4u64..32,
        rounds in 20u64..60,
    ) {
        churn_on_geometry(blocks, pages, hot, rounds);
    }

    /// Utilization reported by the FTL equals live mapped pages / logical.
    #[test]
    fn utilization_accounting_is_exact(writes in 1u64..200, trims in 0u64..50) {
        let g = Geometry::builder()
            .blocks_per_chip(64)
            .pages_per_block(16)
            .page_size(64)
            .build();
        let mut ftl = InsiderFtl::new(FtlConfig::new(g));
        let logical = ftl.logical_pages();
        let mut live = std::collections::HashSet::new();
        let mut now = SimTime::ZERO;
        for i in 0..writes {
            let lba = (i * 37) % 256;
            ftl.write(Lba::new(lba), payload(i as u32), now).unwrap();
            live.insert(lba);
            now += SimTime::from_millis(3);
        }
        for i in 0..trims {
            let lba = (i * 53) % 256;
            ftl.trim(Lba::new(lba), now).unwrap();
            live.remove(&lba);
            now += SimTime::from_millis(3);
        }
        let expected = live.len() as f64 / logical as f64;
        prop_assert!((ftl.utilization() - expected).abs() < 1e-12);
    }
}

mod gc_policies {
    use super::*;

    /// The two GC policies: blocking, and incremental with one-page steps
    /// from the blocking trigger.
    fn config(incremental: bool) -> FtlConfig {
        let g = Geometry::builder()
            .blocks_per_chip(64)
            .pages_per_block(16)
            .page_size(64)
            .build();
        FtlConfig::new(g)
            .incremental_gc(incremental)
            .gc_low_water_extra(0)
            .gc_step_pages(1)
    }

    /// Every policy preserves data (torture asserts it) and actually runs GC.
    #[test]
    fn all_policies_survive_churn() {
        for incremental in [false, true] {
            let mut ftl = InsiderFtl::new(config(incremental).protection_window(None));
            torture(&mut ftl, 24, 120, 5);
            assert!(
                ftl.stats().gc_invocations > 0,
                "incremental {incremental}: GC must run under churn"
            );
        }
    }

    /// The insider FTL collects under either policy, and rollback still works.
    #[test]
    fn insider_rollback_works_under_every_policy() {
        for incremental in [false, true] {
            let mut ftl = InsiderFtl::new(config(incremental));
            ftl.write(Lba::new(0), payload(111), SimTime::ZERO).unwrap();
            // Churn to force GC with the pre-image protected part of the time.
            let mut now = SimTime::from_secs(30);
            for i in 0..1_500u64 {
                ftl.write(Lba::new(1 + i % 8), payload(i as u32), now)
                    .unwrap();
                now += SimTime::from_millis(60);
            }
            assert!(ftl.stats().gc_invocations > 0);
            // Attack within the window, then roll back.
            ftl.write(Lba::new(0), payload(0xBAD), now).unwrap();
            ftl.rollback(now + SimTime::from_secs(1)).unwrap();
            assert_eq!(
                read_tag(&mut ftl, 0, now),
                Some(111),
                "incremental {incremental}: rollback must restore the pre-attack value"
            );
        }
    }
}

mod fault_injection {
    use super::*;
    use insider_ftl::FtlError;
    use insider_nand::{FaultKind, FaultPlan, NandError};

    #[test]
    fn injected_program_fault_surfaces_and_drive_stays_consistent() {
        let g = Geometry::builder()
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let mut ftl = InsiderFtl::new(FtlConfig::new(g));
        ftl.write(Lba::new(0), payload(1), SimTime::ZERO).unwrap();

        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 1);
        ftl.set_fault_plan(plan);

        // The faulted write fails loudly…
        let err = ftl
            .write(Lba::new(1), payload(2), SimTime::from_millis(1))
            .unwrap_err();
        assert!(matches!(
            err,
            insider_ftl::FtlError::Nand(NandError::InjectedFault(_))
        ));
        // …and the drive still serves existing data and accepts new writes.
        assert_eq!(read_tag(&mut ftl, 0, SimTime::from_millis(2)), Some(1));
        ftl.write(Lba::new(1), payload(3), SimTime::from_millis(3))
            .unwrap();
        assert_eq!(read_tag(&mut ftl, 1, SimTime::from_millis(4)), Some(3));
    }

    #[test]
    fn faulted_overwrite_does_not_poison_the_recovery_queue() {
        let g = Geometry::builder()
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let mut ftl = InsiderFtl::new(FtlConfig::new(g));
        ftl.write(Lba::new(0), payload(7), SimTime::ZERO).unwrap();
        ftl.tick(SimTime::from_secs(20)); // creation entry retires

        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 1);
        ftl.set_fault_plan(plan);
        let attack_t = SimTime::from_secs(21);
        assert!(ftl.write(Lba::new(0), payload(666), attack_t).is_err());
        // The failed overwrite must not have invalidated or re-protected the
        // live page; a later successful overwrite and rollback still work.
        assert_eq!(read_tag(&mut ftl, 0, attack_t), Some(7));
        ftl.write(Lba::new(0), payload(666), attack_t).unwrap();
        ftl.rollback(attack_t + SimTime::from_secs(1)).unwrap();
        assert_eq!(read_tag(&mut ftl, 0, attack_t), Some(7));
    }

    /// Applies `ops[range]`, op `i` writing tag `i`.
    fn apply(ftl: &mut InsiderFtl, ops: &[(u64, SimTime)], range: std::ops::Range<usize>) {
        for i in range {
            ftl.write(Lba::new(ops[i].0), payload(i as u32), ops[i].1)
                .unwrap();
        }
    }

    /// Under the blocking policy a NAND error in the middle of a drain
    /// parks the half-collected victim as the engine's job, exactly as the
    /// incremental policy's budget would: the write fails, the next write —
    /// or `gc_quiesce` — resumes the *same* victim from the failed offset,
    /// and nothing is lost. Checked for a fault at every program of one
    /// collection. The script: eight blocks of cold data, two rounds of
    /// overwrites 20 s apart (so by the second the first round's pre-images
    /// have expired and every cold block holds valid, dead *and* protected
    /// pages), then fresh pages until the pool sinks below the reserve.
    #[test]
    fn program_fault_inside_a_drain_parks_the_job() {
        let g = Geometry::builder()
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let fresh = || InsiderFtl::new(FtlConfig::new(g).record_gc_victims(true));
        let round = |rem: Option<u64>, secs: u64| {
            let keep = move |l: &u64| rem.is_none_or(|r| l % 4 == r);
            (0..64)
                .filter(keep)
                .map(move |l| (l, SimTime::from_secs(secs)))
        };
        let ops: Vec<(u64, SimTime)> = round(None, 0)
            .chain(round(Some(1), 20))
            .chain(round(Some(2), 40))
            .chain((64..78).map(|l| (l, SimTime::from_secs(41))))
            .collect();

        // Probe run: which write is the first to collect, and how many
        // pages (valid and protected) that one collection programs.
        let mut probe = fresh();
        let collected = |i: &usize| {
            apply(&mut probe, &ops, *i..*i + 1);
            !probe.gc_victims().is_empty()
        };
        let trigger = (0..ops.len()).find(collected).unwrap();
        assert_eq!(probe.gc_victims().len(), 1, "one collection, one victim");
        let victim = probe.gc_victims()[0];
        let copies = probe.stats().gc_page_copies;
        assert!(
            probe.stats().gc_protected_copies > 0 && copies > probe.stats().gc_protected_copies
        );

        for k in 1..=copies {
            for resume_by_write in [true, false] {
                let mut ftl = fresh();
                apply(&mut ftl, &ops, 0..trigger);
                let mut plan = FaultPlan::new();
                plan.fail_nth(FaultKind::Program, k);
                ftl.set_fault_plan(plan);
                let (lba, now) = ops[trigger];
                let err = ftl.write(Lba::new(lba), payload(trigger as u32), now);
                let injected = matches!(err, Err(FtlError::Nand(NandError::InjectedFault(_))));
                assert!(injected, "k={k}: {err:?}");
                assert!(ftl.gc_job_pending(), "k={k}: the victim must be parked");
                assert_eq!(ftl.gc_victims(), [victim]);
                assert_eq!(ftl.stats().gc_page_copies, k - 1);
                assert_eq!(ftl.stats().gc_erases, 0);

                if resume_by_write {
                    apply(&mut ftl, &ops, trigger..trigger + 1);
                } else {
                    ftl.gc_quiesce().unwrap();
                }
                assert!(!ftl.gc_job_pending(), "k={k}");
                // Resumed, not re-selected: still one selection, now erased,
                // and no page was copied twice.
                assert_eq!(ftl.gc_victims(), [victim], "k={k}");
                assert_eq!(ftl.stats().gc_invocations, 1);
                assert_eq!(ftl.stats().gc_page_copies, copies, "k={k}");

                apply(
                    &mut ftl,
                    &ops,
                    trigger + usize::from(resume_by_write)..ops.len(),
                );
                let end = SimTime::from_secs(42);
                let last_before = |lba: u64, t: SimTime| {
                    let i = ops.iter().rposition(|&(l, at)| l == lba && at < t);
                    i.map(|i| i as u32)
                };
                for lba in 0..78 {
                    assert_eq!(read_tag(&mut ftl, lba, end), last_before(lba, end), "k={k}");
                }
                // The second round's pre-images survived the faulted drain.
                ftl.rollback(end).unwrap();
                for lba in (0..64).filter(|l| l % 4 == 2) {
                    let want = last_before(lba, SimTime::from_secs(32));
                    assert_eq!(read_tag(&mut ftl, lba, end), want, "k={k}: rollback");
                }
            }
        }
    }
}

mod bad_blocks {
    use super::*;
    use insider_nand::{FaultKind, FaultPlan, NandConfig, NandError};

    /// A block that hits its endurance limit during GC is retired; writes
    /// keep flowing on the remaining blocks, and no data is lost.
    #[test]
    fn worn_out_victim_is_retired_not_fatal() {
        let g = Geometry::builder()
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        // Endurance 2: blocks wear out quickly under churn.
        let cfg = FtlConfig::with_nand(NandConfig::new(g).endurance(2));
        let mut ftl = InsiderFtl::new(cfg.protection_window(None));
        ftl.write(Lba::new(100), payload(777), SimTime::ZERO)
            .unwrap();
        let mut i = 0u64;
        // Churn until blocks start wearing out; stop at the capacity wall.
        loop {
            match ftl.write(Lba::new(i % 4), payload(i as u32), SimTime::ZERO) {
                Ok(()) => i += 1,
                Err(insider_ftl::FtlError::NoReclaimableSpace) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(i < 100_000, "churn never hit the endurance wall");
        }
        assert!(ftl.stats().bad_blocks > 0, "blocks must have been retired");
        // The cold page survived every retirement.
        assert_eq!(read_tag(&mut ftl, 100, SimTime::ZERO), Some(777));
    }

    /// A transient erase fault aborts the GC pass but leaves the drive
    /// consistent; the next write retries the same victim successfully.
    #[test]
    fn transient_erase_fault_is_retryable() {
        let g = Geometry::builder()
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let mut ftl = InsiderFtl::new(FtlConfig::new(g));
        ftl.write(Lba::new(100), payload(777), SimTime::ZERO)
            .unwrap();
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Erase, 1);
        ftl.set_fault_plan(plan);

        let mut now = SimTime::from_secs(20);
        let mut faulted = false;
        let mut i = 0u64;
        while i < 1_000 {
            match ftl.write(Lba::new(i % 4), payload(i as u32), now) {
                Ok(()) => i += 1,
                Err(insider_ftl::FtlError::Nand(NandError::InjectedFault(_))) => {
                    faulted = true;
                    // Retry the same write: GC re-selects the victim (now
                    // fully invalid) and erases it cleanly.
                }
                Err(e) => panic!("unexpected error {e}"),
            }
            // 200 ms per write keeps one protection window of pre-images
            // (~50 pages) well inside this 128-page drive's slack.
            now += SimTime::from_millis(200);
        }
        assert!(faulted, "the injected erase fault must have fired");
        assert_eq!(read_tag(&mut ftl, 100, now), Some(777));
        for k in 0..4u64 {
            assert!(read_tag(&mut ftl, k, now).is_some());
        }
    }
}

/// Page allocation stripes across channels: on a multi-channel geometry a
/// sequential write burst must overlap nearly perfectly, with the
/// per-channel-parallel makespan close to serial ÷ channels.
#[test]
fn allocation_stripes_across_channels() {
    let g = Geometry::builder()
        .channels(4)
        .chips_per_channel(1)
        .blocks_per_chip(16)
        .pages_per_block(8)
        .page_size(64)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g).protection_window(None));
    for i in 0..256u64 {
        ftl.write(Lba::new(i), payload(i as u32), SimTime::ZERO)
            .unwrap();
    }
    let (serial, parallel) = ftl.nand_busy_ns();
    assert!(
        parallel * 3 < serial,
        "4 channels must overlap: serial {serial} vs parallel {parallel}"
    );
    // And everything still reads back.
    for i in (0..256u64).step_by(17) {
        assert_eq!(read_tag(&mut ftl, i, SimTime::ZERO), Some(i as u32));
    }
}
