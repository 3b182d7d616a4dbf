//! Dataset assembly and model evaluation for the ID3 detector.

use crate::detector::FeatureEngine;
use crate::id3::{DecisionTree, Id3Params, Sample};
use crate::ioreq::IoReq;
use insider_nand::SimTime;
use serde::{Deserialize, Serialize};

/// A labeled collection of per-slice feature vectors, built by replaying
/// traces through the [`FeatureEngine`].
///
/// # Example
///
/// ```rust
/// use insider_detect::{IoReq, TrainingSet, Id3Params};
/// use insider_nand::{Lba, SimTime};
///
/// let mut set = TrainingSet::new(SimTime::from_secs(1), 10);
/// // A benign trace: plain writes, never preceded by reads.
/// let benign: Vec<IoReq> = (0..400)
///     .map(|i| IoReq::write(SimTime::from_millis(i * 100), Lba::new(i)))
///     .collect();
/// set.add_trace(&benign, SimTime::from_secs(41), |_slice| false);
/// // A ransomware trace: read-then-overwrite on every block.
/// let mut evil = Vec::new();
/// for i in 0..400u64 {
///     let t = SimTime::from_millis(i * 100);
///     evil.push(IoReq::read(t, Lba::new(i)));
///     evil.push(IoReq::write(t.plus_micros(50), Lba::new(i)));
/// }
/// set.add_trace(&evil, SimTime::from_secs(41), |_slice| true);
///
/// let tree = set.train(&Id3Params::default());
/// let eval = set.evaluate(&tree);
/// assert_eq!(eval.frr(), 0.0);
/// assert_eq!(eval.far(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrainingSet {
    slice: SimTime,
    window_slices: usize,
    samples: Vec<Sample>,
}

impl TrainingSet {
    /// An empty set whose traces will be sliced with the given slice length
    /// and window size (must match the deployment detector's config).
    pub fn new(slice: SimTime, window_slices: usize) -> Self {
        TrainingSet {
            slice,
            window_slices,
            samples: Vec::new(),
        }
    }

    /// An empty set mirroring a full detector configuration — training and
    /// deployment must compute features identically, or the learned
    /// thresholds are meaningless at inference.
    pub fn for_config(config: &crate::DetectorConfig) -> Self {
        Self::new(config.slice, config.window_slices)
    }

    /// Replays `reqs` (time-ordered) through a fresh feature engine, labels
    /// each closed slice with `label(slice_index)`, and appends the samples.
    /// `end` closes trailing slices so the tail of the trace is captured.
    pub fn add_trace(&mut self, reqs: &[IoReq], end: SimTime, label: impl Fn(u64) -> bool) {
        let mut engine = FeatureEngine::new(self.slice, self.window_slices);
        let mut closed = Vec::new();
        for req in reqs {
            closed.extend(engine.ingest(*req));
        }
        closed.extend(engine.flush_until(end));
        for (slice, features) in closed {
            self.samples.push(Sample {
                features,
                label: label(slice),
            });
        }
    }

    /// Appends pre-computed samples.
    pub fn add_samples(&mut self, samples: impl IntoIterator<Item = Sample>) {
        self.samples.extend(samples);
    }

    /// The collected samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of positive (ransomware) samples.
    pub fn positives(&self) -> usize {
        self.samples.iter().filter(|s| s.label).count()
    }

    /// Number of negative (benign) samples.
    pub fn negatives(&self) -> usize {
        self.samples.len() - self.positives()
    }

    /// Trains a decision tree on the collected samples.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn train(&self, params: &Id3Params) -> DecisionTree {
        DecisionTree::train(&self.samples, params)
    }

    /// Scores `tree` against this set's samples.
    pub fn evaluate(&self, tree: &DecisionTree) -> Confusion {
        let mut c = Confusion::default();
        for s in &self.samples {
            c.record(s.label, tree.predict(&s.features));
        }
        c
    }

    /// K-fold cross-validation: partitions the samples into `k` interleaved
    /// folds, trains on `k-1` and scores on the held-out fold, and returns
    /// the summed confusion matrix — an unbiased estimate of slice-level
    /// generalization (run-level FRR/FAR is what the experiments report;
    /// this is the ML-hygiene check on the sample distribution itself).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or there are fewer than `k` samples.
    pub fn cross_validate(&self, k: usize, params: &Id3Params) -> Confusion {
        assert!(k >= 2, "cross-validation needs at least two folds");
        assert!(
            self.samples.len() >= k,
            "cannot make {k} folds from {} samples",
            self.samples.len()
        );
        let mut total = Confusion::default();
        for fold in 0..k {
            let train: Vec<Sample> = self
                .samples
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k != fold)
                .map(|(_, s)| *s)
                .collect();
            let tree = DecisionTree::train(&train, params);
            for (_, s) in self
                .samples
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k == fold)
            {
                total.record(s.label, tree.predict(&s.features));
            }
        }
        total
    }
}

/// A binary confusion matrix with the paper's FAR/FRR terminology.
///
/// * **FRR** (false rejection rate): ransomware slices the detector missed —
///   `fn / (tp + fn)`.
/// * **FAR** (false acceptance rate): benign slices the detector flagged —
///   `fp / (fp + tn)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Ransomware slices correctly flagged.
    pub tp: u64,
    /// Benign slices wrongly flagged.
    pub fp: u64,
    /// Benign slices correctly passed.
    pub tn: u64,
    /// Ransomware slices missed.
    pub fn_: u64,
}

impl Confusion {
    /// Records one `(actual, predicted)` outcome.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// False rejection rate (missed ransomware); 0.0 with no positives.
    pub fn frr(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.fn_ as f64 / pos as f64
        }
    }

    /// False acceptance rate (false alarms); 0.0 with no negatives.
    pub fn far(&self) -> f64 {
        let neg = self.fp + self.tn;
        if neg == 0 {
            0.0
        } else {
            self.fp as f64 / neg as f64
        }
    }

    /// Overall accuracy; 1.0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            1.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }
}

impl std::fmt::Display for Confusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} FRR={:.3} FAR={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.frr(),
            self.far()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Lba;

    fn ransom_trace(blocks: u64, start_ms: u64) -> Vec<IoReq> {
        let mut reqs = Vec::new();
        for i in 0..blocks {
            let t = SimTime::from_millis(start_ms + i * 20);
            reqs.push(IoReq::read(t, Lba::new(i)));
            reqs.push(IoReq::write(t.plus_micros(100), Lba::new(i)));
        }
        reqs
    }

    fn benign_trace(blocks: u64) -> Vec<IoReq> {
        (0..blocks)
            .map(|i| IoReq::write(SimTime::from_millis(i * 20), Lba::new(i)))
            .collect()
    }

    #[test]
    fn traces_become_labeled_slices() {
        let mut set = TrainingSet::new(SimTime::from_secs(1), 10);
        set.add_trace(&benign_trace(200), SimTime::from_secs(5), |_| false);
        set.add_trace(&ransom_trace(200, 0), SimTime::from_secs(5), |_| true);
        assert!(set.positives() >= 4);
        assert!(set.negatives() >= 4);
    }

    #[test]
    fn trained_tree_separates_obvious_cases() {
        let mut set = TrainingSet::new(SimTime::from_secs(1), 10);
        // Long traces: the default Id3Params require min_samples per split.
        set.add_trace(&benign_trace(2500), SimTime::from_secs(51), |_| false);
        set.add_trace(&ransom_trace(2500, 0), SimTime::from_secs(51), |_| true);
        let tree = set.train(&Id3Params::default());
        let eval = set.evaluate(&tree);
        assert_eq!(eval.frr(), 0.0, "{eval}");
        assert_eq!(eval.far(), 0.0, "{eval}");
        assert_eq!(eval.accuracy(), 1.0);
    }

    #[test]
    fn cross_validation_scores_held_out_folds() {
        let mut set = TrainingSet::new(SimTime::from_secs(1), 10);
        set.add_trace(&benign_trace(2500), SimTime::from_secs(51), |_| false);
        set.add_trace(&ransom_trace(2500, 0), SimTime::from_secs(51), |_| true);
        let cv = set.cross_validate(5, &Id3Params::default());
        assert_eq!(cv.total(), set.samples().len() as u64);
        // Clearly separable data should generalize nearly perfectly.
        assert!(cv.accuracy() > 0.9, "{cv}");
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn cross_validation_rejects_k1() {
        let mut set = TrainingSet::new(SimTime::from_secs(1), 10);
        set.add_trace(&benign_trace(100), SimTime::from_secs(3), |_| false);
        set.cross_validate(1, &Id3Params::default());
    }

    #[test]
    fn confusion_rates() {
        let mut c = Confusion::default();
        c.record(true, true);
        c.record(true, false);
        c.record(false, false);
        c.record(false, true);
        assert_eq!(c.frr(), 0.5);
        assert_eq!(c.far(), 0.5);
        assert_eq!(c.accuracy(), 0.5);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn empty_confusion_is_benign() {
        let c = Confusion::default();
        assert_eq!(c.frr(), 0.0);
        assert_eq!(c.far(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn display_reports_rates() {
        let mut c = Confusion::default();
        c.record(true, true);
        let s = c.to_string();
        assert!(s.contains("FRR"));
        assert!(s.contains("FAR"));
    }
}
