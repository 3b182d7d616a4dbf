//! Exhaustive power-loss crash sweep (the headline durability check).
//!
//! Part 1 — FTL matrix: every program/erase boundary of three standard
//! traces, with and without retention, via [`insider_bench::sweep_matrix`]. Each
//! crash point asserts the full contract inside the harness: no acked write
//! lost, no unacked write resurrected (module trim volatility), and — on
//! the insider FTL — a post-remount rollback restoring the pre-window
//! state. A contract violation panics, so the process exits non-zero.
//!
//! Part 2 — filesystem scenario: the MiniExt ransomware attack cut at a
//! spread of mutation boundaries; every cut must still end in full file
//! recovery and a clean second-pass fsck.
//!
//! Usage:
//!   cargo run --release -p insider-bench --bin crash_sweep
//!
//! `CRASH_SWEEP_STRIDE` / `CRASH_SWEEP_PAGES` tune part 1 (defaults: stride
//! 1, 600-page write budget); `CRASH_SWEEP_FS_POINTS` tunes how many cut
//! points part 2 samples (default 24).

use insider_bench::crash::fs_attack_crash;
use insider_bench::{sweep_matrix, SweepConfig};
use std::time::Instant;

fn run_matrix(config: &SweepConfig) {
    println!(
        "crash sweep: stride={} write_budget={} window={:?}",
        config.stride, config.write_budget, config.window
    );
    println!();
    println!(
        "{:<12} {:<14} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "trace", "ftl", "mutations", "points", "crashes", "pages", "rollbacks"
    );
    let started = Instant::now();
    for (trace, flavour, s) in sweep_matrix(config) {
        println!(
            "{:<12} {:<14} {:>10} {:>8} {:>8} {:>10} {:>10}",
            trace,
            flavour,
            s.mutation_ops,
            s.points_tested,
            s.crashes_fired,
            s.pages_verified,
            s.rollbacks_verified
        );
    }
    println!(
        "ftl matrix clean in {:.2?}: zero acked losses, zero phantoms",
        started.elapsed()
    );
    println!();
}

fn main() {
    let config = SweepConfig::full().from_env();
    run_matrix(&config);

    // Filesystem scenario: probe the clean run for the crash-space size,
    // then cut at an even spread of mutation boundaries across the attack.
    let fs_points: u64 = std::env::var("CRASH_SWEEP_FS_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let started = Instant::now();
    let probe = fs_attack_crash(None);
    assert!(probe.crashed_post_alarm && probe.files_recovered == probe.files_total);
    let space = probe.attack_mutations;
    let stride = (space / fs_points.max(1)).max(1);
    println!("fs attack: {space} mutations in the crash space, cutting every {stride}");
    let mut cuts = 0u64;
    let mut cut = 1;
    while cut <= space {
        let out = fs_attack_crash(Some(cut));
        assert!(out.cut_fired, "cut {cut} inside the attack must fire");
        assert_eq!(
            out.files_recovered, out.files_total,
            "cut {cut}: a victim file failed to byte-compare after rollback"
        );
        assert!(
            out.fsck_second_pass_clean,
            "cut {cut}: fsck left damage behind"
        );
        assert!(
            out.restored_entries > 0,
            "cut {cut}: rollback restored nothing"
        );
        cuts += 1;
        cut += stride;
    }
    println!(
        "fs sweep clean in {:.2?}: {cuts} cuts, {} files recovered at every point",
        started.elapsed(),
        probe.files_total
    );
}
