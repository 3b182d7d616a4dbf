//! Time-ordered request traces.

use insider_detect::IoReq;
use insider_nand::SimTime;
use serde::{Deserialize, Serialize};

/// A time interval during which a ransomware was actively encrypting.
/// Slices overlapping this period are labeled positive for training and
/// scored as must-detect for FRR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivePeriod {
    /// Attack start.
    pub start: SimTime,
    /// Attack end (exclusive).
    pub end: SimTime,
}

impl ActivePeriod {
    /// Whether `t` falls inside the period.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether the time slice `[slice_idx * slice, (slice_idx+1) * slice)`
    /// overlaps the period.
    pub fn overlaps_slice(&self, slice_idx: u64, slice: SimTime) -> bool {
        let lo = SimTime::from_micros(slice_idx * slice.as_micros());
        let hi = lo + slice;
        self.start < hi && lo < self.end
    }
}

/// A time-ordered sequence of I/O request headers.
///
/// # Example
///
/// ```rust
/// use insider_workloads::Trace;
/// use insider_detect::IoReq;
/// use insider_nand::{Lba, SimTime};
///
/// let mut trace = Trace::new();
/// trace.push(IoReq::write(SimTime::from_secs(2), Lba::new(1)));
/// trace.push(IoReq::read(SimTime::from_secs(1), Lba::new(0)));
/// trace.sort(); // restore time order
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.duration(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    reqs: Vec<IoReq>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace from pre-built requests (not re-sorted).
    pub fn from_reqs(reqs: Vec<IoReq>) -> Self {
        Trace { reqs }
    }

    /// Appends a request.
    pub fn push(&mut self, req: IoReq) {
        self.reqs.push(req);
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The requests in order.
    pub fn reqs(&self) -> &[IoReq] {
        &self.reqs
    }

    /// Stable-sorts requests by timestamp.
    pub fn sort(&mut self) {
        self.reqs.sort_by_key(|r| r.time);
    }

    /// Timestamp of the last request (`SimTime::ZERO` for empty traces).
    pub fn duration(&self) -> SimTime {
        self.reqs.last().map(|r| r.time).unwrap_or(SimTime::ZERO)
    }

    /// Total blocks transferred (sum of request lengths).
    pub fn total_blocks(&self) -> u64 {
        self.reqs.iter().map(|r| r.len as u64).sum()
    }

    /// Whether timestamps are non-decreasing.
    pub fn is_sorted(&self) -> bool {
        self.reqs.windows(2).all(|w| w[0].time <= w[1].time)
    }

    /// Iterates over the requests.
    pub fn iter(&self) -> impl Iterator<Item = &IoReq> {
        self.reqs.iter()
    }

    /// The same trace with every multi-sector request split into adjacent
    /// single-sector requests at the same timestamp — the one-block-per-
    /// request view of the workload. `scalarized()` and the original must
    /// produce identical detector features and device contents; the
    /// differential oracle tests rely on that.
    pub fn scalarized(&self) -> Trace {
        self.reqs
            .iter()
            .flat_map(|r| {
                (0..r.len as u64).map(|i| IoReq {
                    len: 1,
                    lba: r.lba.offset(i),
                    ..*r
                })
            })
            .collect()
    }
}

impl Extend<IoReq> for Trace {
    fn extend<T: IntoIterator<Item = IoReq>>(&mut self, iter: T) {
        self.reqs.extend(iter);
    }
}

impl FromIterator<IoReq> for Trace {
    fn from_iter<T: IntoIterator<Item = IoReq>>(iter: T) -> Self {
        Trace {
            reqs: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = IoReq;
    type IntoIter = std::vec::IntoIter<IoReq>;
    fn into_iter(self) -> Self::IntoIter {
        self.reqs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoReq;
    type IntoIter = std::slice::Iter<'a, IoReq>;
    fn into_iter(self) -> Self::IntoIter {
        self.reqs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Lba;

    #[test]
    fn sort_orders_by_time() {
        let mut t = Trace::new();
        t.push(IoReq::write(SimTime::from_secs(3), Lba::new(0)));
        t.push(IoReq::read(SimTime::from_secs(1), Lba::new(1)));
        t.sort();
        assert!(t.is_sorted());
        assert_eq!(t.reqs()[0].lba, Lba::new(1));
    }

    #[test]
    fn duration_and_blocks() {
        let t: Trace = (0..5u64)
            .map(|i| {
                IoReq::new(
                    SimTime::from_secs(i),
                    Lba::new(i),
                    insider_detect::IoMode::Write,
                    2,
                )
            })
            .collect();
        assert_eq!(t.duration(), SimTime::from_secs(4));
        assert_eq!(t.total_blocks(), 10);
    }

    #[test]
    fn scalarized_splits_extents_preserving_order_and_blocks() {
        use insider_detect::IoMode;
        let t = Trace::from_reqs(vec![
            IoReq::new(SimTime::from_secs(1), Lba::new(8), IoMode::Write, 3)
                .with_entropy_milli(7900),
            IoReq::new(SimTime::from_secs(2), Lba::new(0), IoMode::Read, 1),
            IoReq::new(SimTime::from_secs(3), Lba::new(4), IoMode::Trim, 2),
        ]);
        let s = t.scalarized();
        assert_eq!(s.len(), 6);
        assert_eq!(s.total_blocks(), t.total_blocks());
        assert!(s.is_sorted());
        assert!(s.reqs().iter().all(|r| r.len == 1));
        assert_eq!(s.reqs()[0].lba, Lba::new(8));
        assert_eq!(s.reqs()[2].lba, Lba::new(10));
        assert_eq!(s.reqs()[5].lba, Lba::new(5));
        assert_eq!(s.reqs()[5].mode, IoMode::Trim);
        // Entropy stamps survive splitting (the extent-vs-scalar
        // differential oracle depends on identical entropy features).
        assert!(s.reqs()[..3].iter().all(|r| r.entropy == Some(7900)));
        assert!(s.reqs()[3..].iter().all(|r| r.entropy.is_none()));
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimTime::ZERO);
        assert!(t.is_sorted());
    }

    #[test]
    fn trace_serializes_round_trip() {
        let t: Trace = (0..5u64)
            .map(|i| IoReq::read(SimTime::from_millis(i * 10), Lba::new(i)))
            .collect();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reqs(), t.reqs());
    }

    #[test]
    fn active_period_serializes_round_trip() {
        let p = ActivePeriod {
            start: SimTime::from_millis(1500),
            end: SimTime::from_millis(3500),
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: ActivePeriod = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn active_period_slice_overlap() {
        let p = ActivePeriod {
            start: SimTime::from_millis(1500),
            end: SimTime::from_millis(3500),
        };
        let slice = SimTime::from_secs(1);
        assert!(!p.overlaps_slice(0, slice));
        assert!(p.overlaps_slice(1, slice));
        assert!(p.overlaps_slice(2, slice));
        assert!(p.overlaps_slice(3, slice));
        assert!(!p.overlaps_slice(4, slice));
        assert!(p.contains(SimTime::from_secs(2)));
        assert!(!p.contains(SimTime::from_secs(4)));
    }
}
