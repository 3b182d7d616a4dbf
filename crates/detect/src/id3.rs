//! An ID3-trained binary decision tree over the detector features.
//!
//! ID3 (Quinlan, 1986) selects splits by maximum information gain. The
//! original formulation handles nominal attributes; SSD-Insider's features
//! are continuous, so — as the paper's "binary decision tree" implies — we
//! use the standard extension: each internal node is a binary threshold test
//! `feature ≤ t`, with `t` chosen among midpoints of consecutive distinct
//! feature values to maximize information gain.

use crate::features::{FeatureVector, FEATURE_COUNT, FEATURE_NAMES};
use serde::{Deserialize, Serialize};

/// One labeled training example: a slice's features plus whether ransomware
/// was active during that slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The slice's feature vector.
    pub features: FeatureVector,
    /// `true` if ransomware was active during the slice.
    pub label: bool,
}

/// Hyper-parameters for ID3 training.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Id3Params {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples: usize,
    /// Do not split when the best information gain is below this.
    pub min_gain: f64,
}

impl Default for Id3Params {
    fn default() -> Self {
        // Shallow trees generalize to unknown ransomware families; deeper
        // trees memorize generator noise (the paper's resource argument for
        // a small tree points the same way).
        Id3Params {
            max_depth: 4,
            min_samples: 24,
            min_gain: 0.02,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf(bool),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A binary decision tree mapping a [`FeatureVector`] to a ransomware vote.
///
/// # Example
///
/// ```rust
/// use insider_detect::{DecisionTree, FeatureVector, Id3Params, Sample};
///
/// // Two clusters: heavy overwriting (ransomware) vs. none (benign).
/// let mut samples = Vec::new();
/// for i in 0..60 {
///     let mut f = FeatureVector::default();
///     f.owio = if i % 2 == 0 { 100.0 + i as f64 } else { 0.0 };
///     samples.push(Sample { features: f, label: i % 2 == 0 });
/// }
/// let tree = DecisionTree::train(&samples, &Id3Params::default());
///
/// let mut probe = FeatureVector::default();
/// probe.owio = 500.0;
/// assert!(tree.predict(&probe));
/// probe.owio = 0.0;
/// assert!(!tree.predict(&probe));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
}

fn entropy(pos: usize, neg: usize) -> f64 {
    let total = pos + neg;
    if total == 0 || pos == 0 || neg == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    let q = 1.0 - p;
    -(p * p.log2() + q * q.log2())
}

fn majority(samples: &[&Sample]) -> bool {
    let pos = samples.iter().filter(|s| s.label).count();
    // Exact ties vote ransomware: the paper's priority is FRR 0 % (a missed
    // attack is unrecoverable; a false alarm costs one user prompt).
    pos * 2 >= samples.len() && pos > 0
}

/// Best `(threshold, gain)` for splitting `samples` on `feature`.
fn best_threshold(samples: &[&Sample], feature: usize) -> Option<(f64, f64)> {
    let mut values: Vec<(f64, bool)> = samples
        .iter()
        .map(|s| (s.features.get(feature), s.label))
        .collect();
    values.sort_by(|a, b| a.0.total_cmp(&b.0));

    let total_pos = values.iter().filter(|(_, l)| *l).count();
    let total = values.len();
    let base = entropy(total_pos, total - total_pos);

    let mut best: Option<(f64, f64)> = None;
    let mut left_pos = 0usize;
    let mut left_n = 0usize;
    for i in 0..total - 1 {
        if values[i].1 {
            left_pos += 1;
        }
        left_n += 1;
        // Candidate boundaries sit between distinct values only.
        if values[i].0 == values[i + 1].0 {
            continue;
        }
        let mut threshold = (values[i].0 + values[i + 1].0) / 2.0;
        // For adjacent floats the midpoint can round up to the larger
        // value, which would put values[i+1] on the wrong side of the
        // `<=` test; pin the boundary to the left value instead.
        if threshold >= values[i + 1].0 {
            threshold = values[i].0;
        }
        let right_pos = total_pos - left_pos;
        let right_n = total - left_n;
        let weighted = (left_n as f64 / total as f64) * entropy(left_pos, left_n - left_pos)
            + (right_n as f64 / total as f64) * entropy(right_pos, right_n - right_pos);
        let gain = base - weighted;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((threshold, gain));
        }
    }
    best
}

fn build(samples: &[&Sample], depth: usize, params: &Id3Params, features: &[usize]) -> Node {
    let pos = samples.iter().filter(|s| s.label).count();
    if pos == 0 {
        return Node::Leaf(false);
    }
    if pos == samples.len() {
        return Node::Leaf(true);
    }
    if depth >= params.max_depth || samples.len() < params.min_samples {
        return Node::Leaf(majority(samples));
    }

    let mut best: Option<(usize, f64, f64)> = None;
    for &feature in features {
        if let Some((threshold, gain)) = best_threshold(samples, feature) {
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((feature, threshold, gain));
            }
        }
    }
    let Some((feature, threshold, gain)) = best else {
        return Node::Leaf(majority(samples));
    };
    if gain < params.min_gain {
        return Node::Leaf(majority(samples));
    }

    let (left, right): (Vec<&Sample>, Vec<&Sample>) = samples
        .iter()
        .partition(|s| s.features.get(feature) <= threshold);
    if left.is_empty() || right.is_empty() {
        return Node::Leaf(majority(samples));
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(&left, depth + 1, params, features)),
        right: Box::new(build(&right, depth + 1, params, features)),
    }
}

impl DecisionTree {
    /// Trains a tree with ID3 over `samples`, considering every feature.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[Sample], params: &Id3Params) -> Self {
        let all: Vec<usize> = (0..FEATURE_COUNT).collect();
        Self::train_with_features(samples, params, &all)
    }

    /// Trains a tree with ID3 over `samples`, restricted to splitting on
    /// `features` (indices into [`FEATURE_NAMES`]).
    /// This is how detector variants differ: the paper-faithful baseline
    /// trains on the header-only six, the evolved variant on all nine.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `features` is empty, or any index is out of
    /// range.
    pub fn train_with_features(samples: &[Sample], params: &Id3Params, features: &[usize]) -> Self {
        assert!(!samples.is_empty(), "training requires at least one sample");
        assert!(
            !features.is_empty(),
            "training requires at least one feature"
        );
        for &f in features {
            assert!(f < FEATURE_COUNT, "feature index {f} out of range");
        }
        let refs: Vec<&Sample> = samples.iter().collect();
        DecisionTree {
            root: build(&refs, 0, params, features),
        }
    }

    /// A single-split tree voting `true` when `feature > threshold`.
    /// Useful as a deterministic baseline and in tests.
    ///
    /// # Panics
    ///
    /// Panics if `feature >= FEATURE_COUNT`.
    pub fn stump(feature: usize, threshold: f64) -> Self {
        assert!(feature < FEATURE_COUNT, "feature index out of range");
        DecisionTree {
            root: Node::Split {
                feature,
                threshold,
                left: Box::new(Node::Leaf(false)),
                right: Box::new(Node::Leaf(true)),
            },
        }
    }

    /// A tree that always answers `vote`.
    pub fn constant(vote: bool) -> Self {
        DecisionTree {
            root: Node::Leaf(vote),
        }
    }

    /// Disjunction of two trees as a single tree: the result predicts
    /// `true` exactly when `self` **or** `other` does, built by grafting a
    /// copy of `other` onto every `benign` leaf of `self`.
    ///
    /// This is how the evolved detector variant is assembled: the
    /// paper-faithful tree keeps the final say on everything it already
    /// flags, and an adversarial-specialist tree re-examines only what the
    /// paper tree would wave through. The composite's per-slice votes are
    /// a superset of the baseline's, so on any trace its vote-window score
    /// — and therefore run-level TPR at every alarm threshold — dominates
    /// the baseline's by construction.
    pub fn or_graft(&self, other: &DecisionTree) -> DecisionTree {
        fn graft(n: &Node, fallback: &Node) -> Node {
            match n {
                Node::Leaf(true) => Node::Leaf(true),
                Node::Leaf(false) => fallback.clone(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => Node::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: Box::new(graft(left, fallback)),
                    right: Box::new(graft(right, fallback)),
                },
            }
        }
        DecisionTree {
            root: graft(&self.root, &other.root),
        }
    }

    /// Classifies one feature vector.
    pub fn predict(&self, features: &FeatureVector) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features.get(*feature) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// How many internal nodes split on each feature, in
    /// [`FEATURE_NAMES`] order — a cheap importance
    /// signal for the ablation study.
    pub fn feature_usage(&self) -> [usize; FEATURE_COUNT] {
        fn walk(n: &Node, counts: &mut [usize; FEATURE_COUNT]) {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = n
            {
                counts[*feature] += 1;
                walk(left, counts);
                walk(right, counts);
            }
        }
        let mut counts = [0; FEATURE_COUNT];
        walk(&self.root, &mut counts);
        counts
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => 1 + c(left) + c(right),
            }
        }
        c(&self.root)
    }

    /// Serializes the tree to JSON (for persistence between training and
    /// deployment, as firmware would ship a baked-in model).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails (never expected
    /// for in-memory trees).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a tree from [`DecisionTree::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Human-readable rendering of the tree, one node per line.
    pub fn render(&self) -> String {
        fn walk(n: &Node, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match n {
                Node::Leaf(v) => {
                    out.push_str(&format!(
                        "{pad}-> {}\n",
                        if *v { "RANSOMWARE" } else { "benign" }
                    ));
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.push_str(&format!(
                        "{pad}{} <= {threshold:.3}?\n",
                        FEATURE_NAMES[*feature]
                    ));
                    walk(left, indent + 1, out);
                    walk(right, indent + 1, out);
                }
            }
        }
        let mut out = String::new();
        walk(&self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(owio: f64, io: f64) -> FeatureVector {
        FeatureVector {
            owio,
            io,
            ..Default::default()
        }
    }

    fn sample(owio: f64, io: f64, label: bool) -> Sample {
        Sample {
            features: fv(owio, io),
            label,
        }
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 0), 0.0);
        assert!((entropy(5, 5) - 1.0).abs() < 1e-12);
        assert!(entropy(3, 7) > 0.0 && entropy(3, 7) < 1.0);
    }

    #[test]
    fn pure_training_set_yields_leaf() {
        let samples = vec![sample(1.0, 1.0, true), sample(2.0, 2.0, true)];
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&fv(0.0, 0.0)));
    }

    #[test]
    fn separable_set_is_classified_perfectly() {
        let mut samples = Vec::new();
        for i in 0..50 {
            samples.push(sample(50.0 + i as f64, 100.0, true));
            samples.push(sample(i as f64 * 0.1, 100.0, false));
        }
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        for s in &samples {
            assert_eq!(tree.predict(&s.features), s.label);
        }
    }

    #[test]
    fn conjunction_needs_depth_two() {
        // label = (owio > 5) AND (io > 5): one split cannot separate it, but
        // greedy ID3 finds it in two levels.
        let mut samples = Vec::new();
        for &(a, b) in &[(1.0, 1.0), (1.0, 9.0), (9.0, 1.0), (9.0, 9.0)] {
            let label = a > 5.0 && b > 5.0;
            // Enough copies that the second-level split clears min_samples.
            for _ in 0..30 {
                samples.push(sample(a, b, label));
            }
        }
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        assert!(tree.depth() >= 2);
        for s in &samples {
            assert_eq!(tree.predict(&s.features), s.label);
        }
    }

    #[test]
    fn max_depth_limits_tree() {
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push(sample(i as f64, (i * 7 % 13) as f64, i % 3 == 0));
        }
        let params = Id3Params {
            max_depth: 2,
            ..Default::default()
        };
        let tree = DecisionTree::train(&samples, &params);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn stump_votes_above_threshold() {
        let tree = DecisionTree::stump(0, 10.0);
        assert!(!tree.predict(&fv(10.0, 0.0)));
        assert!(tree.predict(&fv(10.1, 0.0)));
    }

    #[test]
    fn constant_tree() {
        assert!(DecisionTree::constant(true).predict(&fv(0.0, 0.0)));
        assert!(!DecisionTree::constant(false).predict(&fv(9.0, 9.0)));
    }

    #[test]
    fn or_graft_is_exact_disjunction() {
        // owio > 10 OR io > 20, over the four quadrants.
        let a = DecisionTree::stump(0, 10.0);
        let b = DecisionTree::stump(5, 20.0);
        let grafted = a.or_graft(&b);
        for &(owio, io) in &[(0.0, 0.0), (0.0, 30.0), (15.0, 0.0), (15.0, 30.0)] {
            let f = fv(owio, io);
            assert_eq!(
                grafted.predict(&f),
                a.predict(&f) || b.predict(&f),
                "owio={owio} io={io}"
            );
        }
    }

    #[test]
    fn or_graft_identities() {
        let a = DecisionTree::stump(0, 10.0);
        // OR false is self; OR true is constant true.
        assert_eq!(a.or_graft(&DecisionTree::constant(false)), a);
        let always = a.or_graft(&DecisionTree::constant(true));
        assert!(always.predict(&fv(0.0, 0.0)));
        assert!(always.predict(&fv(99.0, 0.0)));
    }

    #[test]
    fn json_round_trip() {
        let mut samples = Vec::new();
        for i in 0..20 {
            samples.push(sample(i as f64, 0.0, i >= 10));
        }
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        let json = tree.to_json().unwrap();
        let back = DecisionTree::from_json(&json).unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    fn render_names_features() {
        let tree = DecisionTree::stump(3, 2.5);
        let text = tree.render();
        assert!(text.contains("AVGWIO"));
        assert!(text.contains("RANSOMWARE"));
        assert!(text.contains("benign"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_training_panics() {
        DecisionTree::train(&[], &Id3Params::default());
    }

    #[test]
    fn node_count_consistent_with_depth() {
        let tree = DecisionTree::stump(0, 1.0);
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn feature_usage_counts_splits() {
        let stump = DecisionTree::stump(3, 1.0);
        assert_eq!(stump.feature_usage(), [0, 0, 0, 1, 0, 0, 0, 0, 0]);
        assert_eq!(
            DecisionTree::constant(true).feature_usage(),
            [0; FEATURE_COUNT]
        );
        // A trained tree reports usage summing to its split count.
        let mut samples = Vec::new();
        for i in 0..60 {
            samples.push(sample(i as f64, (i % 7) as f64, i % 2 == 0));
        }
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        let splits: usize = tree.feature_usage().iter().sum();
        assert_eq!(splits * 2 + 1, tree.node_count());
    }

    #[test]
    fn feature_mask_restricts_splits() {
        // Labels perfectly separable on OWIO, noise on IO: a tree denied
        // OWIO must not split on it, while the unrestricted tree does.
        let mut samples = Vec::new();
        for i in 0..60 {
            samples.push(sample(
                if i % 2 == 0 { 100.0 } else { 0.0 },
                i as f64,
                i % 2 == 0,
            ));
        }
        let full = DecisionTree::train(&samples, &Id3Params::default());
        assert!(full.feature_usage()[0] > 0);
        let masked = DecisionTree::train_with_features(&samples, &Id3Params::default(), &[5]);
        assert_eq!(masked.feature_usage()[0], 0, "split on a denied feature");
        // Restricting to the separating feature reproduces the full tree.
        let owio_only = DecisionTree::train_with_features(&samples, &Id3Params::default(), &[0]);
        assert_eq!(owio_only, full);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn empty_feature_mask_panics() {
        DecisionTree::train_with_features(&[sample(1.0, 1.0, true)], &Id3Params::default(), &[]);
    }

    #[test]
    fn noisy_labels_fall_back_to_majority() {
        // Identical features, conflicting labels: must produce a leaf with
        // the majority label rather than looping.
        let mut samples = vec![sample(1.0, 1.0, true); 7];
        samples.extend(vec![sample(1.0, 1.0, false); 3]);
        let tree = DecisionTree::train(&samples, &Id3Params::default());
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&fv(1.0, 1.0)));
    }
}
