//! Ablation study — not a paper figure, but the natural companion the
//! paper's feature discussion (§III-A) implies:
//!
//! 1. **Feature ablation** — retrain the ID3 tree with one feature masked
//!    at a time and measure FRR/FAR on the test split. Shows which of the
//!    six features carry the detection (the paper argues OWIO is principal
//!    and PWIO rescues slow families).
//! 2. **Window-size ablation** — vary the sliding window `N` (the paper
//!    fixes 10 slices) and measure accuracy and detection latency.
//! 3. **Slice-length ablation** — vary the slice from 0.5 s to 2 s.
//!
//! Usage: `cargo run --release -p insider-bench --bin ablation [reps] [duration_secs]`

use insider_bench::outcome::{RateAccumulator, RunOutcome};
use insider_bench::{render_table, replay_detector, training_samples};
use insider_detect::{
    DecisionTree, DetectorConfig, FeatureVector, Id3Params, Sample, FEATURE_NAMES,
};
use insider_nand::SimTime;
use insider_workloads::table1;

/// Zeroes feature `mask` in a sample set (the ID3 trainer then cannot split
/// on it — a constant column has zero information gain).
fn mask_feature(samples: &[Sample], mask: usize) -> Vec<Sample> {
    samples
        .iter()
        .map(|s| {
            let mut a = s.features.to_array();
            a[mask] = 0.0;
            Sample {
                features: FeatureVector::from_array(a),
                label: s.label,
            }
        })
        .collect()
}

struct EvalResult {
    frr_pct: f64,
    far_pct: f64,
    mean_latency_s: f64,
    detections: usize,
}

/// Replays the full test split under `config`, judging with `tree`
/// (features masked with `mask` at inference time too, when given).
fn evaluate(
    config: &DetectorConfig,
    tree: &DecisionTree,
    mask: Option<usize>,
    reps: u64,
    duration: SimTime,
) -> EvalResult {
    let mut acc = RateAccumulator::new();
    let mut latencies = Vec::new();
    let mut detections = 0usize;
    for scenario in table1().into_iter().filter(|s| !s.training) {
        for rep in 0..reps {
            let run = scenario.build(0xAB1A ^ (rep * 104_729 + 7), duration);
            let mut verdicts = replay_detector(&run.trace, tree.clone(), *config);
            if let Some(m) = mask {
                // Re-judge with the feature zeroed so inference matches the
                // ablated training distribution.
                for v in &mut verdicts {
                    let mut a = v.features.to_array();
                    a[m] = 0.0;
                    v.features = FeatureVector::from_array(a);
                }
            }
            let outcome = RunOutcome::new(verdicts, run.active, config.slice);
            acc.add(&outcome, config.threshold);
            if let Some(lat) = outcome.detection_latency(config.threshold) {
                latencies.push(lat.as_secs_f64());
                detections += 1;
            }
        }
    }
    EvalResult {
        frr_pct: acc.frr_pct(),
        far_pct: acc.far_pct(),
        mean_latency_s: insider_bench::stats::mean(&latencies),
        detections,
    }
}

fn main() {
    let reps: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let duration_secs: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(60);
    let duration = SimTime::from_secs(duration_secs);
    let params = Id3Params::default();

    // --- 1. Feature ablation ------------------------------------------------
    let base_config = DetectorConfig::default();
    eprintln!("collecting training samples...");
    let samples = training_samples(&base_config);

    println!("== Ablation 1: drop one feature at a time (threshold 3) ==\n");
    let mut rows = Vec::new();
    let full_tree = DecisionTree::train(&samples, &params);
    let full = evaluate(&base_config, &full_tree, None, reps, duration);
    rows.push(vec![
        "(all six)".to_string(),
        format!("{:.1}", full.frr_pct),
        format!("{:.1}", full.far_pct),
        format!("{:.1}", full.mean_latency_s),
    ]);
    for (i, name) in FEATURE_NAMES.iter().enumerate() {
        eprintln!("masking {name}...");
        let masked = mask_feature(&samples, i);
        let tree = DecisionTree::train(&masked, &params);
        let r = evaluate(&base_config, &tree, Some(i), reps, duration);
        rows.push(vec![
            format!("without {name}"),
            format!("{:.1}", r.frr_pct),
            format!("{:.1}", r.far_pct),
            format!("{:.1}", r.mean_latency_s),
        ]);
    }
    println!(
        "{}",
        render_table(&["model", "FRR %", "FAR %", "mean latency s"], &rows)
    );
    println!("Expected shape: masking OWIO (the principal feature) hurts most;");
    println!("masking PWIO costs the slow families (higher FRR or latency);");
    println!("secondary features cost little on their own.\n");

    // --- 2. Window-size ablation ---------------------------------------------
    println!("== Ablation 2: sliding-window size N (threshold scales as ~N*0.3) ==\n");
    let mut rows = Vec::new();
    for window_slices in [4usize, 6, 10, 16] {
        let threshold = ((window_slices as f64) * 0.3).round().max(1.0) as u32;
        let config = DetectorConfig {
            slice: SimTime::from_secs(1),
            window_slices,
            threshold,
        };
        eprintln!("window {window_slices} (threshold {threshold})...");
        let samples = training_samples(&config);
        let tree = DecisionTree::train(&samples, &params);
        let r = evaluate(&config, &tree, None, reps, duration);
        rows.push(vec![
            format!("N={window_slices}, th={threshold}"),
            format!("{:.1}", r.frr_pct),
            format!("{:.1}", r.far_pct),
            format!("{:.1}", r.mean_latency_s),
            r.detections.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["window", "FRR %", "FAR %", "mean latency s", "detections"],
            &rows
        )
    );
    println!("Expected shape: small windows detect faster but are noisier;");
    println!("large windows smooth noise at the cost of latency. The paper's");
    println!("N=10 sits on the flat part of the accuracy curve.\n");

    // --- 3. Slice-length ablation ---------------------------------------------
    println!("== Ablation 3: time-slice length (N=10, threshold 3) ==\n");
    let mut rows = Vec::new();
    for slice_ms in [500u64, 1000, 2000] {
        let config = DetectorConfig {
            slice: SimTime::from_millis(slice_ms),
            window_slices: 10,
            threshold: 3,
        };
        eprintln!("slice {slice_ms} ms...");
        let samples = training_samples(&config);
        let tree = DecisionTree::train(&samples, &params);
        let r = evaluate(&config, &tree, None, reps, duration);
        rows.push(vec![
            format!("{slice_ms} ms"),
            format!("{:.1}", r.frr_pct),
            format!("{:.1}", r.far_pct),
            format!("{:.1}", r.mean_latency_s),
        ]);
    }
    println!(
        "{}",
        render_table(&["slice", "FRR %", "FAR %", "mean latency s"], &rows)
    );
    println!("Expected shape: shorter slices cut latency (smaller window span)");
    println!("but see fewer events per slice, so per-slice features get noisier.");
}
