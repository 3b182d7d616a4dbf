//! The behavioral features of SSD-Insider (paper §III-A) plus the three
//! evolved features (payload entropy and overwrite burstiness) that counter
//! the adversarial workloads of DESIGN.md §14.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of features the detector computes per time slice: the paper's six
/// header-only features followed by the three evolved ones.
pub const FEATURE_COUNT: usize = 9;

/// Number of features available to the paper-faithful baseline detector
/// (the first [`PAPER_FEATURE_COUNT`] entries of [`FEATURE_NAMES`]).
pub const PAPER_FEATURE_COUNT: usize = 6;

/// Canonical feature names, in vector order.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "OWIO", "OWST", "PWIO", "AVGWIO", "OWSLOPE", "IO", "WENT", "RHEW", "OWBURST",
];

/// One slice's feature values, in [`FEATURE_NAMES`] order.
///
/// The paper's six (computed from request headers only):
///
/// * `owio` — overwrites during the slice (principal feature: ransomware
///   reads, encrypts and overwrites the same blocks within seconds).
/// * `owst` — distinct overwritten blocks divided by write blocks during the
///   slice. Separates ransomware (each block overwritten once) from DoD-style
///   wipers (each block overwritten 7×, so `owst ≈ 1/7`).
/// * `pwio` — overwrites accumulated over the previous window (catches slow
///   ransomware such as Jaff that evades the per-slice features).
/// * `avgwio` — mean overwrite-run length in the counting table. Ransomware
///   targets documents (short runs); wipers/defrag/DB touch long runs.
/// * `owslope` — `owio` relative to the previous window's per-slice average:
///   the abrupt ramp-up when ransomware starts.
/// * `io` — total read+write blocks in the slice (activity level).
///
/// The evolved three (window-scoped, so evidence survives the idle slices a
/// throttled attacker hides behind; DESIGN.md §14):
///
/// * `went` — mean write-payload entropy (bits/byte) over the window,
///   averaged across entropy-stamped write blocks. Ciphertext ≈ 8.
/// * `rhew` — replacement high-entropy writes: blocks written during the
///   window with payload entropy above the gate *onto LBAs the host had
///   accessed before*. Catches read–sleep–overwrite attacks that wait out
///   the counting table, while fresh-LBA bulk writers (compression, P2P,
///   video encode) score zero by construction.
/// * `owburst` — burstiness (index of dispersion, variance/mean) of the
///   per-slice overwrite counts across the window. Threshold-throttled
///   attackers concentrate overwrites into 1–2 slices per window, which
///   drives this far above steady benign overwrite traffic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Overwrites in the current slice.
    pub owio: f64,
    /// Distinct overwritten blocks / write blocks, current slice.
    pub owst: f64,
    /// Overwrites across the previous window.
    pub pwio: f64,
    /// Mean overwrite run length in the counting table.
    pub avgwio: f64,
    /// `owio` over the previous window's per-slice average.
    pub owslope: f64,
    /// Total read+write blocks in the current slice.
    pub io: f64,
    /// Mean write-payload entropy over the window, bits/byte.
    #[serde(default)]
    pub went: f64,
    /// High-entropy replacement write blocks across the window.
    #[serde(default)]
    pub rhew: f64,
    /// Variance/mean of per-slice overwrite counts across the window.
    #[serde(default)]
    pub owburst: f64,
}

impl FeatureVector {
    /// The feature at `index`, in [`FEATURE_NAMES`] order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FEATURE_COUNT`.
    pub fn get(&self, index: usize) -> f64 {
        match index {
            0 => self.owio,
            1 => self.owst,
            2 => self.pwio,
            3 => self.avgwio,
            4 => self.owslope,
            5 => self.io,
            6 => self.went,
            7 => self.rhew,
            8 => self.owburst,
            // Cannot fire from a tree: `DecisionTree`'s constructors assert
            // and its loader rejects any split on an index past the vector.
            _ => panic!("feature index {index} out of range"),
        }
    }

    /// The features as an array, in [`FEATURE_NAMES`] order.
    pub fn to_array(&self) -> [f64; FEATURE_COUNT] {
        [
            self.owio,
            self.owst,
            self.pwio,
            self.avgwio,
            self.owslope,
            self.io,
            self.went,
            self.rhew,
            self.owburst,
        ]
    }

    /// Builds a vector from an array in [`FEATURE_NAMES`] order.
    pub fn from_array(a: [f64; FEATURE_COUNT]) -> Self {
        FeatureVector {
            owio: a[0],
            owst: a[1],
            pwio: a[2],
            avgwio: a[3],
            owslope: a[4],
            io: a[5],
            went: a[6],
            rhew: a[7],
            owburst: a[8],
        }
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OWIO={:.1} OWST={:.3} PWIO={:.1} AVGWIO={:.2} OWSLOPE={:.2} IO={:.1} \
             WENT={:.2} RHEW={:.1} OWBURST={:.2}",
            self.owio,
            self.owst,
            self.pwio,
            self.avgwio,
            self.owslope,
            self.io,
            self.went,
            self.rhew,
            self.owburst
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_round_trip() {
        let v = FeatureVector {
            owio: 1.0,
            owst: 0.5,
            pwio: 10.0,
            avgwio: 2.0,
            owslope: 3.0,
            io: 100.0,
            went: 7.5,
            rhew: 40.0,
            owburst: 9.0,
        };
        assert_eq!(FeatureVector::from_array(v.to_array()), v);
        for (i, name) in FEATURE_NAMES.iter().enumerate() {
            assert_eq!(v.get(i), v.to_array()[i], "feature {name}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        FeatureVector::default().get(FEATURE_COUNT);
    }

    #[test]
    fn display_names_every_feature() {
        let s = FeatureVector::default().to_string();
        for name in FEATURE_NAMES {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }

    #[test]
    fn paper_features_lead_the_vector() {
        const { assert!(PAPER_FEATURE_COUNT < FEATURE_COUNT) }
        assert_eq!(FEATURE_NAMES[PAPER_FEATURE_COUNT - 1], "IO");
        assert_eq!(FEATURE_NAMES[PAPER_FEATURE_COUNT], "WENT");
    }

    #[test]
    fn six_feature_json_still_deserializes() {
        // Feature vectors serialized before the evolved features existed
        // must load with the new fields defaulting to zero.
        let old = r#"{"owio":1.0,"owst":0.5,"pwio":2.0,"avgwio":3.0,"owslope":4.0,"io":5.0}"#;
        let v: FeatureVector = serde_json::from_str(old).unwrap();
        assert_eq!(v.owio, 1.0);
        assert_eq!(v.went, 0.0);
        assert_eq!(v.rhew, 0.0);
        assert_eq!(v.owburst, 0.0);
    }
}
