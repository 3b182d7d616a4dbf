//! Fig. 7 — detection accuracy: FRR/FAR vs score threshold, per
//! background-application class, on the Table I *test* split (ransomware
//! families never seen in training).
//!
//! Also reports the §V-B headline numbers at the paper's threshold of 3:
//! FRR, FAR, and the detection-latency distribution ("within 10 s").
//!
//! Usage: `cargo run --release -p insider-bench --bin fig7 [reps] [duration_secs]`
//! (defaults: 20 repetitions × 90 s, like the paper's 20 runs per scenario).

use insider_bench::outcome::{RateAccumulator, RunOutcome};
use insider_bench::{render_table, replay_detector, train_tree};
use insider_detect::DetectorConfig;
use insider_nand::SimTime;
use insider_workloads::{table1, ScenarioClass};
use std::collections::BTreeMap;

fn main() {
    let reps: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let duration_secs: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(90);
    let duration = SimTime::from_secs(duration_secs);
    let config = DetectorConfig::default();

    eprintln!("training ID3 tree on the Table I training split...");
    let tree = train_tree(&config);
    eprintln!(
        "trained tree ({} nodes, depth {}):",
        tree.node_count(),
        tree.depth()
    );
    eprintln!("{}", tree.render());
    let usage = tree.feature_usage();
    eprintln!(
        "splits per feature: {}",
        insider_detect::FEATURE_NAMES
            .iter()
            .zip(usage)
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // One replay per (scenario, seed); every threshold reuses the scores.
    let mut runs: Vec<(ScenarioClass, String, RunOutcome)> = Vec::new();
    for scenario in table1().into_iter().filter(|s| !s.training) {
        eprintln!("replaying {} x{reps}...", scenario.name());
        for rep in 0..reps {
            let run = scenario.build(0xF167 ^ (rep * 7919 + 13), duration);
            let verdicts = replay_detector(&run.trace, tree.clone(), config);
            runs.push((
                scenario.class,
                scenario.name(),
                RunOutcome::new(verdicts, run.active, config.slice),
            ));
        }
    }

    let classes = [
        ScenarioClass::HeavyOverwriting,
        ScenarioClass::IoIntensive,
        ScenarioClass::CpuIntensive,
        ScenarioClass::NormalApp,
    ];

    println!("== Fig 7: FRR / FAR (%) vs score threshold, per class ==\n");
    for class in classes {
        let class_runs: Vec<&RunOutcome> = runs
            .iter()
            .filter(|(c, _, _)| *c == class || *c == ScenarioClass::RansomOnly)
            .map(|(_, _, r)| r)
            .collect();
        let mut rows = Vec::new();
        for threshold in 1..=10u32 {
            let mut acc = RateAccumulator::new();
            for run in &class_runs {
                acc.add(run, threshold);
            }
            rows.push(vec![
                threshold.to_string(),
                format!("{:.1}", acc.frr_pct()),
                format!("{:.1}", acc.far_pct()),
            ]);
        }
        println!("-- {} --", class.name());
        println!("{}", render_table(&["threshold", "FRR %", "FAR %"], &rows));
    }

    // Headline numbers at the paper's operating point (threshold 3).
    let threshold = config.threshold;
    let mut overall = RateAccumulator::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut by_class: BTreeMap<&str, RateAccumulator> = BTreeMap::new();
    let mut by_scenario: BTreeMap<String, (RateAccumulator, Vec<f64>)> = BTreeMap::new();
    for (class, name, run) in &runs {
        overall.add(run, threshold);
        by_class
            .entry(class.name())
            .or_default()
            .add(run, threshold);
        let slot = by_scenario.entry(name.clone()).or_default();
        slot.0.add(run, threshold);
        if let Some(lat) = run.detection_latency(threshold) {
            latencies.push(lat.as_secs_f64());
            slot.1.push(lat.as_secs_f64());
        }
    }
    latencies.sort_by(f64::total_cmp);
    let mean_lat = insider_bench::stats::mean(&latencies);
    let max_lat = latencies.last().copied().unwrap_or(0.0);

    println!("== §V-B headline numbers at threshold {threshold} ==\n");
    let mut rows: Vec<Vec<String>> = by_class
        .iter()
        .map(|(name, acc)| {
            vec![
                name.to_string(),
                format!("{:.1}", acc.frr_pct()),
                format!("{:.1}", acc.far_pct()),
            ]
        })
        .collect();
    rows.push(vec![
        "ALL".to_string(),
        format!("{:.1}", overall.frr_pct()),
        format!("{:.1}", overall.far_pct()),
    ]);
    println!("{}", render_table(&["class", "FRR %", "FAR %"], &rows));
    println!(
        "detection latency: mean {mean_lat:.1} s, max {max_lat:.1} s over {} detections\n",
        latencies.len()
    );

    println!("== per-scenario detail at threshold {threshold} ==\n");
    let rows: Vec<Vec<String>> = by_scenario
        .iter()
        .map(|(name, (acc, lats))| {
            vec![
                name.clone(),
                format!("{:.0}", acc.frr_pct()),
                format!("{:.0}", acc.far_pct()),
                format!("{:.1}", insider_bench::stats::mean(lats)),
                format!("{:.1}", insider_bench::stats::max(lats)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["scenario", "FRR %", "FAR %", "lat mean s", "lat max s"],
            &rows
        )
    );
    println!();
    println!("Expected shape (paper): FRR 0% in all classes at threshold 3; FAR near 0%");
    println!("except heavy-overwriting (data wiping / DB) at up to ~5%; FRR grows at");
    println!("high thresholds (slowed ransomware), FAR grows at low thresholds;");
    println!("detection within 10 s.");
}
