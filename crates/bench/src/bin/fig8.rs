//! Fig. 8 — software elapsed time per 4-KB I/O: FTL code vs. the extra
//! SSD-Insider detection code, for the 12 test traces.
//!
//! Like the paper, this measures *CPU nanoseconds of firmware work* per
//! 4 KiB host page, excluding (simulated) NAND latency. The drive reads no
//! clock, so the split is measured from outside it: each test trace
//! replays on fresh devices in two arms, detection on and detection off
//! (`set_detection(false)`), alternating which arm goes first, `REPS`
//! times each, while `replay_device` times every extent call. Per mode,
//! the FTL cost is the off arm's median ns per 4 KiB and the SSD-Insider
//! cost is the on arm's median minus the off arm's.
//!
//! Absolute numbers depend on the host CPU (the paper used a 1.2 GHz-clocked
//! Xeon; their FTL was C firmware) — the *shape* to reproduce is that the
//! SSD-Insider addition is a small fraction of FTL work and a negligible
//! fraction of NAND latency (50 µs reads / 500 µs writes).
//!
//! Usage: `cargo run --release -p insider-bench --bin fig8 [duration_secs]`

use insider_bench::replay_geometry;
use insider_bench::stats::{max, mean, median};
use insider_bench::{render_table, replay_detection_arms, small_space, train_tree};
use insider_detect::{DetectorConfig, IoMode};
use insider_ftl::FtlConfig;
use insider_nand::SimTime;
use insider_workloads::table1;
use ssd_insider::InsiderConfig;

/// Repetitions of each arm per trace.
const REPS: usize = 9;
const MODES: [(IoMode, &str); 3] = [
    (IoMode::Read, "read"),
    (IoMode::Write, "write"),
    (IoMode::Trim, "trim"),
];

/// One mode's result on one trace: FTL ns, SSD-Insider ns and the spread
/// (max − min) of the off arm's repetitions, all per 4 KiB.
struct Cost {
    ftl: f64,
    insider: f64,
    spread: f64,
}

fn main() {
    let duration_secs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let duration = SimTime::from_secs(duration_secs);
    let config = DetectorConfig::default();

    eprintln!("training ID3 tree...");
    let tree = train_tree(&config);
    let insider_cfg = InsiderConfig::from_parts(FtlConfig::new(replay_geometry()), config);

    let mut rows = Vec::new();
    let mut costs: [Vec<Cost>; 3] = Default::default();
    for scenario in table1().into_iter().filter(|s| !s.training) {
        eprintln!(
            "replaying {} ({REPS} alternating pairs)...",
            scenario.name()
        );
        let run = scenario.build_with_space(0xF168, duration, &small_space());
        // ns per 4 KiB of every repetition, per mode: `[on, off]`.
        let mut samples: [[Vec<f64>; 2]; 3] = Default::default();
        for rep in 0..REPS {
            let arms = replay_detection_arms(&run.trace, &insider_cfg, &tree, rep % 2 == 0);
            for (arm, (outcome, _)) in arms.iter().enumerate() {
                assert_eq!(outcome.skipped, 0, "fig8 traces must fit the replay drive");
                for (m, (mode, _)) in MODES.into_iter().enumerate() {
                    samples[m][arm].extend(outcome.mode(mode).ns_per_page());
                }
            }
        }
        let mut row = vec![scenario.name()];
        for (m, [on, off]) in samples.iter().enumerate() {
            if off.is_empty() {
                row.extend(["-".to_string(), "-".to_string()]);
                continue;
            }
            let ftl = median(off);
            let cost = Cost {
                ftl,
                insider: median(on) - ftl,
                spread: max(off) - off.iter().copied().fold(f64::INFINITY, f64::min),
            };
            row.push(format!("{:.0}", cost.ftl));
            row.push(format!("{:+.0}", cost.insider));
            costs[m].push(cost);
        }
        rows.push(row);
    }

    println!("== Fig 8: per-4KB-I/O software elapsed time (ns) ==\n");
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "FTL read",
                "+insider read",
                "FTL write",
                "+insider write",
                "FTL trim",
                "+insider trim",
            ],
            &rows
        )
    );
    println!("medians of {REPS} alternating on/off repetitions per trace; averages over traces:");
    let mut insider = [0.0; 3];
    for (m, (_, mode)) in MODES.into_iter().enumerate() {
        let list = &costs[m];
        if list.is_empty() {
            continue;
        }
        let avg = |field: fn(&Cost) -> f64| mean(&list.iter().map(field).collect::<Vec<_>>());
        insider[m] = avg(|c| c.insider);
        println!(
            "  {mode}: FTL {:.0} ns, +{:.0} ns insider over {} traces \
             (off-arm max-min spread {:.0} ns)",
            avg(|c| c.ftl),
            insider[m],
            list.len(),
            avg(|c| c.spread)
        );
    }
    let nand_read_pct = insider[0] / 50_000.0 * 100.0;
    let nand_write_pct = insider[1] / 500_000.0 * 100.0;
    println!(
        "insider addition vs NAND latency: {nand_read_pct:.2}% of a 50 µs page read, \
         {nand_write_pct:.3}% of a 500 µs page program"
    );
    println!();
    println!("Expected shape (paper): insider adds 147 ns (read) / 254 ns (write) on");
    println!("top of 477/1372 ns FTL work — a small fraction of FTL time and a");
    println!("negligible fraction (≤0.3%) of NAND chip latency.");
}
