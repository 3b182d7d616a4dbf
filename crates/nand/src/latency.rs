//! Log-bucketed latency histograms for scheduled NAND commands.
//!
//! The command scheduler ([`crate::CmdScheduler`]) records one sample per
//! completed command: `completion − arrival`, in nanoseconds of simulated
//! time. Samples land in a histogram with power-of-two buckets refined by
//! 16 linear sub-buckets each, so quantiles carry at most ~6 % relative
//! error while the whole structure stays a fixed ~8 KiB regardless of how
//! many billions of samples it absorbs. Quantile reads interpolate
//! linearly *within* the containing sub-bucket (samples assumed uniform
//! across it), so percentile deltas smaller than one sub-bucket — under
//! ~10 % relative — still resolve instead of collapsing onto pow2 bucket
//! edges like 507904. The estimate is clamped to the exact observed
//! maximum, so a single-sample histogram reports that sample precisely.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 16;

/// Bucket count: values 0–15 get exact buckets, then 16 sub-buckets per
/// exponent 4..=63.
const BUCKETS: usize = 61 * SUB_BUCKETS;

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= 4 here
    let sub = ((v >> (exp - 4)) & 0xf) as usize;
    (exp - 3) * SUB_BUCKETS + sub
}

fn bucket_floor(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let exp = index / SUB_BUCKETS + 3;
    let sub = (index % SUB_BUCKETS) as u64;
    (1u64 << exp) + (sub << (exp - 4))
}

/// Exclusive upper bound of a sub-bucket (the next bucket's floor).
fn bucket_ceil(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_floor(index + 1)
}

/// A fixed-size log-bucketed histogram of nanosecond latencies.
///
/// # Example
///
/// ```rust
/// use insider_nand::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [50_000u64, 50_000, 500_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 3);
/// // Interpolated within the sub-bucket: within ~4 % of the true median.
/// assert!(h.quantile(0.50).abs_diff(50_000) < 2_048);
/// assert!(h.quantile(0.99) <= 500_000);
/// assert_eq!(h.max_ns(), 500_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// One histogram holding every sample of `parts` — equal to having
    /// recorded each part's samples into a single histogram.
    pub fn merged(parts: &[&LatencyHistogram]) -> Self {
        let mut out = LatencyHistogram::new();
        for part in parts {
            for (total, &c) in out.counts.iter_mut().zip(&part.counts) {
                *total += c;
            }
            out.count += part.count;
            out.sum_ns = out.sum_ns.saturating_add(part.sum_ns);
            out.max_ns = out.max_ns.max(part.max_ns);
        }
        out
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest sample, in nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample, in nanoseconds; zero when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The latency at quantile `q` (e.g. `0.99` for p99), linearly
    /// interpolated inside the sub-bucket containing the
    /// `ceil(q × count)`-th smallest sample: the bucket's samples are
    /// assumed to spread uniformly across its width, and the rank is mapped
    /// to the midpoint of its equal slice. The estimate never exceeds the
    /// exact observed maximum. Zero when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_floor(i);
                let width = bucket_ceil(i) - lo;
                // The r-th of c samples sits at the midpoint of the r-th of
                // c equal slices of the bucket.
                let r = (rank - seen) as u128;
                let est = lo as u128 + (width as u128 * (2 * r - 1)) / (2 * c as u128);
                return est.min(self.max_ns as u128) as u64;
            }
            seen += c;
        }
        self.max_ns
    }

    /// Resets the histogram to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum_ns = 0;
        self.max_ns = 0;
    }
}

/// Summary percentiles for one command kind, extracted from a
/// [`LatencyHistogram`]. All figures are nanoseconds of simulated time; a
/// zeroed summary means no command of this kind completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindLatency {
    /// Completed commands of this kind.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 95th-percentile latency.
    pub p95_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency (exact).
    pub max_ns: u64,
    /// Mean latency.
    pub mean_ns: u64,
}

impl KindLatency {
    /// Summary of a histogram's current contents.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        KindLatency {
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            max_ns: h.max_ns(),
            mean_ns: h.mean_ns(),
        }
    }
}

impl std::fmt::Display for KindLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={}ns p95={}ns p99={}ns max={}ns",
            self.count, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns
        )
    }
}

/// Per-kind latency percentiles for every command the scheduler completed.
///
/// `total` aggregates reads, programs and erases into one distribution —
/// the "what does a command issued to this device experience" view a host
/// sees. Queued-but-unfinalized commands are not included until the
/// scheduler is flushed (see `NandDevice::sync`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Page reads.
    pub read: KindLatency,
    /// Page programs.
    pub program: KindLatency,
    /// Block erases.
    pub erase: KindLatency,
    /// All commands combined.
    pub total: KindLatency,
}

impl std::fmt::Display for LatencySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "read:    {}", self.read)?;
        writeln!(f, "program: {}", self.program)?;
        writeln!(f, "erase:   {}", self.erase)?;
        write!(f, "total:   {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = None;
        for v in 0u64..4096 {
            let i = bucket_index(v);
            if let Some(p) = prev {
                assert!(i >= p, "bucket index regressed at {v}");
                assert!(i <= p + 1, "bucket index skipped at {v}");
            }
            assert!(bucket_floor(i) <= v, "floor above value at {v}");
            prev = Some(i);
        }
    }

    #[test]
    fn floor_is_exact_for_small_values() {
        for v in 0u64..16 {
            assert_eq!(bucket_floor(bucket_index(v)), v);
        }
    }

    #[test]
    fn floor_error_is_bounded() {
        for v in [100u64, 1_000, 50_000, 500_000, 3_000_000, u64::MAX / 2] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v);
            // Lower bound is within one sub-bucket: < 1/16 relative error.
            assert!(
                (v - floor) as f64 <= v as f64 / 16.0 + 1.0,
                "error too large at {v}"
            );
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37 % 1_000_000);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max_ns());
        assert_eq!(h.count(), 10_000);
        assert!(h.mean_ns() > 0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        let k = KindLatency::from_histogram(&h);
        assert_eq!(k, KindLatency::default());
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(50_000);
        let k = KindLatency::from_histogram(&h);
        assert_eq!(k.count, 1);
        assert_eq!(k.max_ns, 50_000);
        // The interpolated estimate is clamped to the exact max, so a
        // single-sample histogram reports that sample precisely.
        assert_eq!(k.p50_ns, 50_000);
        assert_eq!(k.p50_ns, k.p99_ns);
    }

    #[test]
    fn interpolation_resolves_sub_bucket_deltas() {
        // 1000 samples uniform over [100_000, 110_000): the whole range
        // spans fewer than three 4096-wide sub-buckets, so lower-bound
        // quantiles would collapse p50 and p95 onto nearly the same edge.
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(100_000 + i * 10);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        assert!(p50.abs_diff(105_000) < 1_000, "p50 {p50} off true median");
        assert!(p95.abs_diff(109_500) < 1_000, "p95 {p95} off true value");
        assert!(p95 > p50 + 3_000, "sub-bucket delta must resolve");
        assert!(p95 <= h.max_ns());
    }

    #[test]
    fn merged_equals_recording_every_sample_into_one() {
        let parts: [&[u64]; 4] = [
            &[50_000, 50_000, 7, 123_456_789],
            &[],
            &[500_000, 0, 15, 16, 3_000_000, u64::MAX / 2],
            &[u64::MAX / 2, 1],
        ];
        let mut one = LatencyHistogram::new();
        let hists: Vec<LatencyHistogram> = parts
            .iter()
            .map(|samples| {
                let mut h = LatencyHistogram::new();
                for &ns in *samples {
                    h.record(ns);
                    one.record(ns);
                }
                h
            })
            .collect();
        let refs: Vec<&LatencyHistogram> = hists.iter().collect();
        let merged = LatencyHistogram::merged(&refs);
        assert_eq!(merged, one, "saturated sum included");
        assert_eq!(
            KindLatency::from_histogram(&merged),
            KindLatency::from_histogram(&one)
        );
        let empty = LatencyHistogram::new();
        assert_eq!(LatencyHistogram::merged(&[]), empty);
        assert_eq!(LatencyHistogram::merged(&[&empty, &empty]), empty);
        assert_eq!(LatencyHistogram::merged(&[&empty, &hists[0]]), hists[0]);
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(123);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn snapshot_display_mentions_every_kind() {
        let s = LatencySnapshot::default().to_string();
        for key in ["read:", "program:", "erase:", "total:"] {
            assert!(s.contains(key), "missing {key}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }
}
