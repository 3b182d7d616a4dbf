//! Training the deployed decision tree from Table I's training split.

use insider_detect::{
    DecisionTree, DetectorConfig, DetectorVariant, Id3Params, Sample, TrainingSet,
};
use insider_nand::SimTime;
use insider_workloads::{table1, AdversaryKind};
use std::path::PathBuf;

/// Seeds used for the training replays (the paper runs each combination
/// multiple times; three seeded runs per training row keep the harness fast
/// while still averaging out generator noise).
pub const TRAIN_SEEDS: [u64; 8] = [101, 202, 303, 404, 505, 606, 707, 808];

/// Seeds for the adversarial runs mixed into the *evolved* variant's
/// training set. Disjoint from [`TRAIN_SEEDS`] and from the ROC harness's
/// evaluation seeds (`0xA000`-based), so every ROC number measures
/// generalization to unseen runs, not memorization.
pub const ADV_TRAIN_SEEDS: [u64; 2] = [31, 62];

/// Duration of each training trace.
pub fn training_duration() -> SimTime {
    SimTime::from_secs(60)
}

/// Builds the labeled training set from the Table I training rows and
/// trains the ID3 tree the experiments deploy.
///
/// Training rows never include the test-split ransomware families, so all
/// detection results measure generalization to unknown ransomware.
pub fn train_tree(config: &DetectorConfig) -> DecisionTree {
    train_tree_variant(config, DetectorVariant::Baseline)
}

/// [`train_tree`] for a specific detector variant.
///
/// * [`DetectorVariant::Baseline`] trains on the Table I split restricted
///   to the paper's six features — byte-identical to the pre-variant trees
///   (the entropy stamps change no paper feature and draw no RNG), so the
///   baseline cache file keeps its historical name.
/// * [`DetectorVariant::Evolved`] sees all nine features and additionally
///   trains on the adversarial families ([`ADV_TRAIN_SEEDS`]) with
///   window-smeared labels: a slice is positive if the adversary issued
///   destructive I/O within the last `window_slices` slices, because the
///   window features (`WENT`/`RHEW`/`OWBURST`) are exactly the evidence
///   that persists through an adversary's idle slices. The deployed
///   evolved tree is the baseline tree with this specialist grafted onto
///   its benign leaves (see [`train_tree_variant_uncached`]), so it never
///   votes below the baseline on any slice.
pub fn train_tree_variant(config: &DetectorConfig, variant: DetectorVariant) -> DecisionTree {
    // Training replays the full Table I training split (15-30 s), so the
    // result is cached on disk keyed by the detector config. Delete the
    // cache file or set INSIDER_RETRAIN=1 after changing the workload
    // generators or the trainer.
    let cache = cache_path(config, variant);
    if std::env::var_os("INSIDER_RETRAIN").is_none() {
        if let Some(tree) = std::fs::read_to_string(&cache)
            .ok()
            .and_then(|json| DecisionTree::from_json(&json).ok())
        {
            eprintln!("(using cached tree from {})", cache.display());
            return tree;
        }
    }
    let tree = train_tree_variant_uncached(config, variant);
    if let Ok(json) = tree.to_json() {
        let _ = std::fs::create_dir_all(cache.parent().expect("cache path has a parent"));
        let _ = std::fs::write(&cache, json);
    }
    tree
}

/// Bump when the training recipe changes (labeling, weighting, seeds,
/// Id3Params) so stale cached trees are never reused.
const TRAINING_RECIPE_VERSION: u32 = 2;

fn cache_path(config: &DetectorConfig, variant: DetectorVariant) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join(format!(
        "insider-tree-v{}-{}us-{}w{}.json",
        TRAINING_RECIPE_VERSION,
        config.slice.as_micros(),
        config.window_slices,
        // The baseline keeps the historical (suffix-free) cache file name.
        match variant {
            DetectorVariant::Baseline => "",
            DetectorVariant::Evolved => "-evolved",
        }
    ))
}

/// [`train_tree`] without the disk cache.
///
/// Positive (ransomware-active) samples are weighted 3× by replication:
/// the paper's priority is FRR 0 % — a missed attack destroys data, while a
/// false alarm costs one user prompt — so decision boundaries are pushed
/// into ambiguous regions (early data-wiping slices look genuinely
/// ransomware-like) at the cost of a few per-run false alarms, exactly the
/// ≤5 % FAR trade the paper reports for heavy overwriting.
pub fn train_tree_uncached(config: &DetectorConfig) -> DecisionTree {
    train_tree_variant_uncached(config, DetectorVariant::Baseline)
}

/// [`train_tree_variant`] without the disk cache.
///
/// The evolved variant is a monotone strengthening of the baseline: the
/// baseline tree with an adversarial-specialist tree grafted onto its
/// `benign` leaves ([`DecisionTree::or_graft`]). The specialist trains on
/// the Table I split *plus* the adversarial families over all nine
/// features; a greedy tree trained that way keys on the window features
/// and can lose a paper class in an early split (observed: rooting on
/// `RHEW` hides Class C, which writes ciphertext to fresh LBAs), so the
/// composite keeps the paper tree's verdicts as a floor — its per-slice
/// votes are a superset of the baseline's by construction.
pub fn train_tree_variant_uncached(
    config: &DetectorConfig,
    variant: DetectorVariant,
) -> DecisionTree {
    let mut samples = training_samples(config);
    if variant == DetectorVariant::Evolved {
        samples.extend(adversarial_training_samples(config));
    }
    let positives: Vec<_> = samples.iter().copied().filter(|s| s.label).collect();
    for _ in 0..2 {
        samples.extend(positives.iter().copied());
    }
    let tree =
        DecisionTree::train_with_features(&samples, &Id3Params::default(), variant.features());
    match variant {
        DetectorVariant::Baseline => tree,
        DetectorVariant::Evolved => {
            train_tree_variant_uncached(config, DetectorVariant::Baseline).or_graft(&tree)
        }
    }
}

/// Labeled per-slice samples from the adversarial families, used only by
/// the evolved variant. Labels are window-smeared (see
/// [`train_tree_variant`]): the evidence an adversary leaves is in the
/// window features, which stay hot for `window_slices` slices after each
/// destructive burst.
pub fn adversarial_training_samples(config: &DetectorConfig) -> Vec<Sample> {
    let duration = training_duration();
    let smear = config.window_slices as u64;
    let mut set = TrainingSet::for_config(config);
    for kind in AdversaryKind::ALL {
        for seed in ADV_TRAIN_SEEDS {
            let run = kind.build(seed, duration);
            let active = run.attack_activity_slices(config.slice);
            set.add_trace(run.trace.reqs(), duration, |slice_idx| {
                (slice_idx.saturating_sub(smear.saturating_sub(1))..=slice_idx)
                    .any(|s| active.contains(&s))
            });
        }
    }
    set.samples().to_vec()
}

/// Labels one training run: a slice is positive iff the ransomware issued
/// destructive I/O in it (see
/// [`ScenarioTrace::ransom_activity_slices`](insider_workloads::ScenarioTrace)).
fn add_run(
    set: &mut TrainingSet,
    run: &insider_workloads::ScenarioTrace,
    config: &DetectorConfig,
    duration: SimTime,
) {
    let active = run.ransom_activity_slices(config.slice);
    set.add_trace(run.trace.reqs(), duration, |slice_idx| {
        active.contains(&slice_idx)
    });
}

/// The labeled per-slice samples from replaying the Table I training split
/// under `config` — shared by the trainer and the ablation study so both
/// always see the same distribution.
pub fn training_samples(config: &DetectorConfig) -> Vec<Sample> {
    let duration = training_duration();
    let mut set = TrainingSet::for_config(config);
    for scenario in table1().into_iter().filter(|s| s.training) {
        for seed in TRAIN_SEEDS {
            let run = scenario.build(seed, duration);
            add_run(&mut set, &run, config, duration);
        }
    }
    set.samples().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_produces_a_nontrivial_tree() {
        let tree = train_tree(&DetectorConfig::default());
        assert!(
            tree.depth() >= 1,
            "tree must actually split:\n{}",
            tree.render()
        );
        assert!(tree.node_count() >= 3);
    }
}
