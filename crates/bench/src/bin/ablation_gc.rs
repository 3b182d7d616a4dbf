//! GC design-space ablation: how the victim-selection policy interacts with
//! delayed deletion.
//!
//! The paper's prototype uses greedy selection; this ablation compares
//! greedy, FIFO and cost-benefit on the Fig. 9 worst case (90 % pre-filled,
//! shuffled cold data) for both FTLs, reporting page copies, protected
//! migrations and write amplification.
//!
//! Usage: `cargo run --release -p insider-bench --bin ablation_gc [duration_secs]` (default 180)

use insider_bench::{prefill_ftl, render_table, replay_ftl, replay_geometry, small_space};
use insider_ftl::{ConventionalFtl, Ftl, FtlConfig, GcPolicy, InsiderFtl};
use insider_nand::SimTime;
use insider_workloads::{table1, ScenarioClass};

fn main() {
    let duration_secs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(180);
    let duration = SimTime::from_secs(duration_secs);

    // The heaviest GC workloads from the test split.
    let scenarios: Vec<_> = table1()
        .into_iter()
        .filter(|s| {
            !s.training
                && matches!(
                    s.class,
                    ScenarioClass::IoIntensive | ScenarioClass::CpuIntensive
                )
        })
        .collect();

    println!("== GC policy ablation (90% pre-filled, worst-case traces) ==\n");
    for scenario in scenarios {
        eprintln!("replaying {}...", scenario.name());
        let run = scenario.build_with_space(0x6Cu64, duration, &small_space());
        let mut rows = Vec::new();
        for policy in [GcPolicy::Greedy, GcPolicy::Fifo, GcPolicy::CostBenefit] {
            for insider in [false, true] {
                let cfg = FtlConfig::new(replay_geometry()).gc_policy(policy);
                let mut conv;
                let mut ins;
                let ftl: &mut dyn Ftl = if insider {
                    ins = InsiderFtl::new(cfg);
                    &mut ins
                } else {
                    conv = ConventionalFtl::new(cfg);
                    &mut conv
                };
                prefill_ftl(ftl, 0.9);
                let outcome = replay_ftl(&run.trace, ftl);
                assert_eq!(
                    outcome.skipped, 0,
                    "ablation traces must fit the replay drive"
                );
                let s = ftl.stats();
                let (wmin, wmax, wmean) = ftl.wear_summary();
                rows.push(vec![
                    policy.to_string(),
                    if insider { "insider" } else { "conventional" }.to_string(),
                    s.gc_page_copies.to_string(),
                    s.gc_protected_copies.to_string(),
                    format!("{:.3}", s.write_amplification()),
                    format!("{wmin}/{wmax} (μ {wmean:.1})"),
                ]);
            }
        }
        println!("-- {} --", scenario.name());
        println!(
            "{}",
            render_table(
                &["policy", "ftl", "copies", "protected", "WA", "wear min/max"],
                &rows
            )
        );
    }
    println!("Expected shape: greedy minimizes copies; FIFO pays the most (it");
    println!("ignores reclaimability); cost-benefit sits between, trading copies");
    println!("for age-balanced wear. Delayed deletion adds protected migrations");
    println!("under every policy, but never changes who wins.");
}
