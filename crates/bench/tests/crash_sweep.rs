//! Bounded power-loss crash sweep (tier-1 fast configuration).
//!
//! Runs the full matrix — three standard traces × both retention values — with
//! a large stride and a small write budget so the quadratic sweep fits in
//! the test budget. `make crash-sweep` runs the same matrix at stride 1
//! via the `crash_sweep` binary; `CRASH_SWEEP_STRIDE` / `CRASH_SWEEP_PAGES`
//! override both.

use bytes::Bytes;
use insider_bench::{flavour, sweep_ftl_config, SweepConfig};
use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Lba, NandError, SimTime};

fn check_matrix(config: &SweepConfig) {
    let rows = insider_bench::sweep_matrix(config);
    assert_eq!(rows.len(), 6, "three traces x two retention values");
    for (trace, flavour, summary) in rows {
        // Every trace in the sweep mutates (the sequential trace carries
        // its own fill phase), so every row must expose crash points and
        // actually fire cuts at them.
        assert!(
            summary.mutation_ops > 0,
            "{trace}/{flavour}: no crash space"
        );
        assert!(
            summary.points_tested > 1,
            "{trace}/{flavour}: nothing swept"
        );
        assert!(
            summary.crashes_fired > 0,
            "{trace}/{flavour}: no cut ever fired"
        );
        assert!(
            summary.pages_verified > 0,
            "{trace}/{flavour}: nothing verified"
        );
        if flavour == "insider" {
            assert_eq!(
                summary.rollbacks_verified, summary.points_tested,
                "{trace}: every remount must support rollback"
            );
        } else {
            assert_eq!(
                summary.rollbacks_verified, 0,
                "{trace}: baseline has no queue"
            );
        }
    }
}

#[test]
fn bounded_crash_sweep_matrix_upholds_durability_contract() {
    check_matrix(&SweepConfig::fast().from_env());
}

/// The same bounded matrix with the incremental GC engine and
/// erase-suspend armed: a 1-page step budget keeps a `GcJob` paused across
/// most host writes, so strided cuts land inside half-migrated victim
/// blocks (and suspended erases), and every remount must drop the job and
/// rebuild to the identical durability contract.
#[test]
fn bounded_crash_sweep_matrix_with_incremental_gc() {
    check_matrix(&SweepConfig::fast().from_env().incremental());
}

/// In-flight-queue crash point: power drops while an 8-page extent write is
/// mid-batch inside the NAND command scheduler. `FaultPlan` counts in
/// *issue* order, so exactly the issued prefix is acked and the
/// queued-but-unissued tail is lost atomically; the OOB remount must
/// surface the acked prefix as new data and the lost tail as the old data.
fn mid_batch_cut_loses_exactly_the_unissued_tail(config: &FtlConfig) {
    const SPAN: u64 = 8;
    let label = flavour(config);
    let page = |tag: &str, i: u64| Bytes::from(format!("{tag}{i}").into_bytes());
    for cut in 1..=SPAN {
        let mut ftl = InsiderFtl::new(config.clone());
        let old: Vec<Bytes> = (0..SPAN).map(|i| page("old", i)).collect();
        ftl.write_extent(Lba::new(0), &old, SimTime::from_secs(1))
            .unwrap();

        let mut plan = FaultPlan::new();
        plan.power_cut_after(cut);
        ftl.set_fault_plan(plan);

        let new: Vec<Bytes> = (0..SPAN).map(|i| page("new", i)).collect();
        let before = ftl.stats().host_writes;
        let now = SimTime::from_secs(2);
        let err = ftl.write_extent(Lba::new(0), &new, now).unwrap_err();
        assert!(
            matches!(err, FtlError::Nand(NandError::PowerLoss)),
            "[{label}] cut={cut}: expected a power loss, got {err}"
        );
        let acked = ftl.stats().host_writes - before;
        assert_eq!(
            acked,
            cut - 1,
            "[{label}] cut={cut}: acked prefix diverges from issue order"
        );

        // Power restored: remount from the OOB scan and verify the prefix
        // committed while the tail atomically kept its pre-cut contents.
        ftl.power_cut(now).unwrap();
        for i in 0..SPAN {
            let got = ftl.read(Lba::new(i), now).unwrap();
            let want = if i < acked {
                &new[i as usize]
            } else {
                &old[i as usize]
            };
            assert_eq!(
                got.as_deref(),
                Some(want.as_ref()),
                "[{label}] cut={cut}: lba {i} diverged after remount"
            );
        }
    }
}

#[test]
fn in_flight_queue_crash_points_remount_cleanly() {
    let retaining = sweep_ftl_config(SweepConfig::fast().window);
    for config in [retaining.clone().protection_window(None), retaining] {
        mid_batch_cut_loses_exactly_the_unissued_tail(&config);
    }
}
