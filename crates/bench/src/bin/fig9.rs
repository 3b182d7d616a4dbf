//! Fig. 9 — garbage-collection cost: page copies of the conventional FTL
//! vs. the SSD-Insider FTL, under the paper's worst case (90 % of the SSD
//! pre-filled with user data) and average case (70 %).
//!
//! The extra copies come from delayed deletion: invalid pages still inside
//! the 10 s protection window must be migrated instead of discarded. The
//! paper measures ≈0 % extra at 70 % utilization and ≈22 % extra on the
//! copy-heavy traces at 90 %.
//!
//! Usage: `cargo run --release -p insider-bench --bin fig9 [duration_secs]`

use insider_bench::replay_geometry;
use insider_bench::{prefill_ftl, render_table, replay_ftl, small_space};
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::SimTime;
use insider_workloads::table1;

fn run_one(trace: &insider_workloads::Trace, utilization: f64, insider: bool) -> (u64, u64) {
    let cfg = FtlConfig::new(replay_geometry());
    let mut ftl = InsiderFtl::new(if insider {
        cfg
    } else {
        cfg.protection_window(None)
    });
    prefill_ftl(&mut ftl, utilization);
    let outcome = replay_ftl(trace, &mut ftl);
    assert_eq!(outcome.skipped, 0, "fig9 traces must fit the replay drive");
    (ftl.stats().gc_page_copies, ftl.stats().gc_invocations)
}

fn main() {
    let duration_secs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let duration = SimTime::from_secs(duration_secs);

    for utilization in [0.9, 0.7] {
        let label = if utilization == 0.9 {
            "worst case (90% pre-filled)"
        } else {
            "average case (70% pre-filled)"
        };
        println!("== Fig 9, {label} ==\n");
        let mut rows = Vec::new();
        let mut sum_conv = 0u64;
        let mut sum_ins = 0u64;
        for scenario in table1().into_iter().filter(|s| !s.training) {
            eprintln!("replaying {} at {utilization:.0?}...", scenario.name());
            let run = scenario.build_with_space(0xF169, duration, &small_space());
            let (conv_copies, _) = run_one(&run.trace, utilization, false);
            let (ins_copies, _) = run_one(&run.trace, utilization, true);
            let extra = if conv_copies == 0 {
                if ins_copies == 0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (ins_copies as f64 - conv_copies as f64) / conv_copies as f64 * 100.0
            };
            sum_conv += conv_copies;
            sum_ins += ins_copies;
            rows.push(vec![
                scenario.name(),
                conv_copies.to_string(),
                ins_copies.to_string(),
                format!("{extra:+.1}%"),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["scenario", "conventional copies", "insider copies", "extra"],
                &rows
            )
        );
        let avg_extra = if sum_conv == 0 {
            0.0
        } else {
            (sum_ins as f64 - sum_conv as f64) / sum_conv as f64 * 100.0
        };
        println!("aggregate extra copies: {avg_extra:+.1}%\n");
    }
    println!("Expected shape (paper): at 90% utilization the insider FTL needs ~22%");
    println!("more page copies on copy-heavy traces and only a few elsewhere; at 70%");
    println!("utilization the extra cost is almost zero.");
}
