//! The real-time detector: feature extraction + decision tree + score window.

use crate::counting_table::CountingTable;
use crate::entropy::HIGH_ENTROPY_MILLI;
use crate::features::FeatureVector;
use crate::id3::DecisionTree;
use crate::ioreq::{IoMode, IoReq};
use crate::rangeset::LbaRangeSet;
use crate::window::{SliceWindow, VoteWindow};
use insider_nand::SimTime;
use serde::{Deserialize, Serialize};

/// Detector tuning knobs. Defaults match the paper: 1-second slices, a
/// 10-slice window, and an alarm threshold of 3.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Length of one time slice.
    pub slice: SimTime,
    /// Number of slices per window (`N`).
    pub window_slices: usize,
    /// Alarm when the score (positive votes in the window) reaches this.
    pub threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            slice: SimTime::from_secs(1),
            window_slices: 10,
            threshold: 3,
        }
    }
}

/// Per-slice accumulators, reset at each slice boundary.
#[derive(Debug, Clone, Default)]
struct SliceAccum {
    rio: u64,
    wio: u64,
    owio: u64,
    distinct_ow: LbaRangeSet,
    /// Σ (entropy stamp × blocks) over entropy-stamped destructive
    /// requests, in milli-bits (for the window-mean `WENT`).
    ent_milli_blocks: u64,
    /// Blocks carried by entropy-stamped destructive requests.
    ent_blocks: u64,
    /// High-entropy write blocks landing on previously accessed LBAs
    /// (`RHEW` contribution of this slice).
    rhew: u64,
}

/// Streaming feature extraction: the counting table plus the sliding-window
/// state needed to emit one [`FeatureVector`] per time slice.
///
/// Requests are consumed as whole extents — one [`CountingTable`] operation
/// per request, never a per-block loop. `OWST` is computed per slice (the
/// paper's Fig. 3 walkthrough; §III-A words it per window).
///
/// [`Detector`] composes this with a [`DecisionTree`]; training and the
/// feature-series experiments (paper Figs. 1–2) use it directly.
#[derive(Debug, Clone)]
pub struct FeatureEngine {
    slice_len: SimTime,
    window_slices: usize,
    table: CountingTable,
    owio_history: SliceWindow,
    /// `(Σ entropy·blocks, Σ blocks)` of the previous `N-1` slices, for the
    /// window-mean `WENT`.
    ent_history: std::collections::VecDeque<(u64, u64)>,
    /// `RHEW` contributions of the previous `N-1` slices.
    rhew_history: std::collections::VecDeque<u64>,
    /// Every LBA the host has touched (reads *and* writes), never evicted.
    /// `RHEW` checks incoming high-entropy writes against this set, so a
    /// read–sleep–overwrite attack that waits out the counting table is
    /// still seen replacing data it previously read. Coalesced runs keep
    /// this compact; like the vote window it is volatile-by-design across
    /// power loss (DESIGN.md §14).
    accessed: LbaRangeSet,
    accum: SliceAccum,
    cur_slice: u64,
}

impl FeatureEngine {
    /// A fresh engine with the given slice length and window size.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is zero or `window_slices` is zero.
    pub fn new(slice: SimTime, window_slices: usize) -> Self {
        assert!(slice > SimTime::ZERO, "slice length must be non-zero");
        assert!(window_slices >= 1, "window must span at least one slice");
        FeatureEngine {
            slice_len: slice,
            window_slices,
            table: CountingTable::new(),
            owio_history: SliceWindow::new(window_slices),
            ent_history: std::collections::VecDeque::with_capacity(window_slices),
            rhew_history: std::collections::VecDeque::with_capacity(window_slices),
            accessed: LbaRangeSet::new(),
            accum: SliceAccum::default(),
            cur_slice: 0,
        }
    }

    /// The slice index currently being accumulated.
    pub fn current_slice(&self) -> u64 {
        self.cur_slice
    }

    /// Read access to the counting table (for memory accounting).
    pub fn counting_table(&self) -> &CountingTable {
        &self.table
    }

    /// Closes slices up to `target`, bounding the work for arbitrarily
    /// long idle gaps: the engine emits `window + 1` idle slices — enough
    /// that every slice whose window still overlaps pre-gap activity is
    /// emitted (the next slice's features are exactly zero) — then resets
    /// its state and jumps the counter; the landing window re-emits a full
    /// window of true zeros, flushing any downstream vote window. At the
    /// `2·window` trigger boundary the fast path therefore emits the same
    /// slices as the dense path. Without the bound, a single far-future
    /// timestamp would make the detector loop for (and allocate) trillions
    /// of slices.
    fn advance_to(&mut self, target: u64) -> Vec<(u64, FeatureVector)> {
        let mut closed = Vec::new();
        let window = self.window_slices as u64;
        if target > self.cur_slice + 2 * window {
            for _ in 0..=window {
                closed.push(self.close_slice());
            }
            self.table.evict_older_than(u64::MAX);
            self.owio_history.clear();
            self.ent_history.clear();
            self.rhew_history.clear();
            // `accessed` deliberately survives the gap: a read–sleep–
            // overwrite attacker's whole strategy is to idle past the
            // window, and both gap paths keep the set identically.
            self.accum = SliceAccum::default();
            self.cur_slice = target - window;
        }
        while self.cur_slice < target {
            closed.push(self.close_slice());
        }
        closed
    }

    /// Feeds one request, returning a `(slice index, features)` pair for
    /// every slice boundary the request's timestamp crossed (at most two
    /// windows' worth — see [`ingest`](Self::ingest) gap handling).
    ///
    /// Requests must arrive in non-decreasing time order; a request that
    /// appears to go backwards is accounted to the current slice.
    pub fn ingest(&mut self, req: IoReq) -> Vec<(u64, FeatureVector)> {
        let target = req.time.slice_index(self.slice_len);
        let closed = self.advance_to(target);
        match req.mode {
            IoMode::Read => {
                self.table
                    .record_read_range(req.lba, req.len, self.cur_slice);
                self.accum.rio += req.len as u64;
            }
            IoMode::Write | IoMode::Trim => {
                let (table, accum) = (&mut self.table, &mut self.accum);
                let overwritten =
                    table.record_write_extent(req.lba, req.len, self.cur_slice, &mut |start, n| {
                        accum.distinct_ow.insert_run(start, n)
                    });
                accum.owio += overwritten as u64;
                accum.wio += req.len as u64;
                if let Some(milli) = req.entropy {
                    accum.ent_milli_blocks += milli as u64 * req.len as u64;
                    accum.ent_blocks += req.len as u64;
                    if milli >= HIGH_ENTROPY_MILLI {
                        // Checked before the write's own run is inserted, so
                        // only *previously* accessed blocks count.
                        accum.rhew += self.accessed.overlap_blocks(req.lba, req.len);
                    }
                }
            }
        }
        self.accessed.insert_run(req.lba, req.len);
        closed
    }

    /// Closes slices until (excluding) the slice containing `now`, emitting
    /// their feature vectors (bounded for long gaps like
    /// [`ingest`](Self::ingest)). Call at end-of-trace or in idle periods.
    pub fn flush_until(&mut self, now: SimTime) -> Vec<(u64, FeatureVector)> {
        self.advance_to(now.slice_index(self.slice_len))
    }

    /// Closes the current slice unconditionally and returns its features.
    pub fn close_slice(&mut self) -> (u64, FeatureVector) {
        // Keep only entries touched within the last `window_slices` slices.
        let cutoff = (self.cur_slice + 1).saturating_sub(self.window_slices as u64);
        self.table.evict_older_than(cutoff);

        let a = &self.accum;
        let owio = a.owio as f64;
        let owst = if a.wio > 0 {
            a.distinct_ow.block_count() as f64 / a.wio as f64
        } else {
            0.0
        };
        let pwio = self.owio_history.sum() as f64;
        let avgwio = self.table.avg_wl();
        let prev_avg = self.owio_history.mean();
        let owslope = if prev_avg > 0.0 {
            owio / prev_avg
        } else {
            owio
        };
        let io = (a.rio + a.wio) as f64;

        // WENT: window-mean payload entropy over stamped blocks (previous
        // N−1 slices + current). Unstamped blocks are excluded, not zeroed.
        let (mut ent_milli, mut ent_blocks) = (a.ent_milli_blocks, a.ent_blocks);
        for &(m, b) in &self.ent_history {
            ent_milli += m;
            ent_blocks += b;
        }
        let went = if ent_blocks > 0 {
            ent_milli as f64 / ent_blocks as f64 / 1000.0
        } else {
            0.0
        };
        // RHEW: high-entropy replacement write blocks across the window.
        let rhew = (self.rhew_history.iter().sum::<u64>() + a.rhew) as f64;
        // OWBURST: index of dispersion (variance/mean) of per-slice
        // overwrite counts, retained history + current slice.
        let owburst = {
            let n = (self.owio_history.len() + 1) as f64;
            let mean = (self.owio_history.sum() + a.owio) as f64 / n;
            if mean > 0.0 {
                let var = self
                    .owio_history
                    .iter()
                    .chain(std::iter::once(a.owio))
                    .map(|v| {
                        let d = v as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / n;
                var / mean
            } else {
                0.0
            }
        };

        let features = FeatureVector {
            owio,
            owst,
            pwio,
            avgwio,
            owslope,
            io,
            went,
            rhew,
            owburst,
        };
        let slice = self.cur_slice;
        self.owio_history.push(a.owio);
        // Keep exactly the previous N-1 slices of WENT/RHEW state, so the
        // window at the *next* close spans current + N−1 = N slices.
        if self.window_slices > 1 {
            if self.ent_history.len() == self.window_slices - 1 {
                self.ent_history.pop_front();
                self.rhew_history.pop_front();
            }
            let finished = std::mem::take(&mut self.accum);
            self.ent_history
                .push_back((finished.ent_milli_blocks, finished.ent_blocks));
            self.rhew_history.push_back(finished.rhew);
        } else {
            self.accum = SliceAccum::default();
        }
        self.cur_slice += 1;
        (slice, features)
    }
}

/// One slice's detection outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Index of the closed time slice.
    pub slice: u64,
    /// The slice's feature vector.
    pub features: FeatureVector,
    /// The decision tree's vote for this slice.
    pub vote: bool,
    /// Score after this slice: positive votes in the last `N` slices.
    pub score: u32,
    /// Whether the score reached the alarm threshold.
    pub alarm: bool,
}

/// The SSD-Insider real-time detector (paper Algorithm 1).
///
/// Feed it every I/O request header with [`Detector::ingest`]; it emits one
/// [`Verdict`] per completed time slice. When `Verdict::alarm` is true, the
/// device should halt writes and offer recovery.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
    engine: FeatureEngine,
    tree: DecisionTree,
    votes: VoteWindow,
}

impl Detector {
    /// A detector with the given configuration and trained tree.
    pub fn new(config: DetectorConfig, tree: DecisionTree) -> Self {
        Detector {
            engine: FeatureEngine::new(config.slice, config.window_slices),
            votes: VoteWindow::new(config.window_slices),
            config,
            tree,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The current score.
    pub fn score(&self) -> u32 {
        self.votes.score()
    }

    /// The decision tree in use.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Read access to the feature engine (for memory accounting).
    pub fn engine(&self) -> &FeatureEngine {
        &self.engine
    }

    fn judge(&mut self, slice: u64, features: FeatureVector) -> Verdict {
        let vote = self.tree.predict(&features);
        let score = self.votes.push(vote);
        Verdict {
            slice,
            features,
            vote,
            score,
            alarm: score >= self.config.threshold,
        }
    }

    /// Feeds one request header, returning a verdict for every slice
    /// boundary it crossed (usually zero or one).
    pub fn ingest(&mut self, req: IoReq) -> Vec<Verdict> {
        let closed = self.engine.ingest(req);
        closed
            .into_iter()
            .map(|(slice, f)| self.judge(slice, f))
            .collect()
    }

    /// Closes all slices up to (excluding) the one containing `now`.
    /// Use during idle periods so silence also produces verdicts.
    pub fn flush_until(&mut self, now: SimTime) -> Vec<Verdict> {
        let closed = self.engine.flush_until(now);
        closed
            .into_iter()
            .map(|(slice, f)| self.judge(slice, f))
            .collect()
    }

    /// Clears the vote window and score — the user dismissed the alarm or
    /// the host rebooted, so the accumulated evidence is spent. Feature
    /// state (the counting table) is left intact: ongoing activity keeps
    /// being measured and can re-raise the alarm with *fresh* votes.
    pub fn reset_votes(&mut self) {
        self.votes.clear();
    }

    /// Closes the in-progress slice and returns its verdict.
    pub fn finish(&mut self) -> Verdict {
        let (slice, f) = self.engine.close_slice();
        self.judge(slice, f)
    }

    /// A snapshot of the detector's live state for status lines (see
    /// [`DetectorStatus`]).
    pub fn status(&self) -> DetectorStatus {
        DetectorStatus {
            score: self.votes.score(),
            threshold: self.config.threshold,
            current_slice: self.engine.current_slice(),
            window_slices: self.config.window_slices,
            table_entries: self.engine.counting_table().len(),
        }
    }
}

/// A point-in-time summary of the drive's detector: score against
/// threshold, window position and counting-table size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStatus {
    /// Positive votes currently in the window.
    pub score: u32,
    /// Votes needed to alarm.
    pub threshold: u32,
    /// Slice index currently being accumulated.
    pub current_slice: u64,
    /// Window length in slices.
    pub window_slices: usize,
    /// Live counting-table entries.
    pub table_entries: usize,
}

impl std::fmt::Display for DetectorStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "det[score={}/{} slice={} window={} entries={}]",
            self.score, self.threshold, self.current_slice, self.window_slices, self.table_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Lba;

    fn l(i: u64) -> Lba {
        Lba::new(i)
    }

    fn t(secs: u64, us: u64) -> SimTime {
        SimTime::from_secs(secs).plus_micros(us)
    }

    /// An engine with 1 s slices and a 10-slice window.
    fn engine() -> FeatureEngine {
        FeatureEngine::new(SimTime::from_secs(1), 10)
    }

    #[test]
    fn read_then_overwrite_counts_as_owio() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(5)));
        e.ingest(IoReq::write(t(0, 10), l(5)));
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 1.0);
        assert_eq!(f.io, 2.0);
        assert_eq!(f.owst, 1.0);
    }

    #[test]
    fn write_without_prior_read_is_not_overwrite() {
        let mut e = engine();
        e.ingest(IoReq::write(t(0, 0), l(5)));
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 0.0);
        assert_eq!(f.owst, 0.0);
        assert_eq!(f.io, 1.0);
    }

    #[test]
    fn overwrite_outside_window_is_not_counted() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(5)));
        // 20 s later, far past the 10-slice window:
        let closed = e.ingest(IoReq::write(t(20, 0), l(5)));
        assert_eq!(closed.len(), 20);
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 0.0, "read aged out; write is plain");
    }

    #[test]
    fn owst_dedups_repeat_overwrites() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(5)));
        for i in 0..7u64 {
            e.ingest(IoReq::write(t(0, 10 + i), l(5))); // DoD 7-pass wipe
        }
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 7.0);
        assert!((f.owst - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn pwio_sums_previous_window() {
        let mut e = engine();
        for s in 0..3u64 {
            e.ingest(IoReq::read(t(s, 0), l(s)));
            e.ingest(IoReq::write(t(s, 10), l(s)));
            e.close_slice();
        }
        // Three slices, one overwrite each → PWIO at slice 3 is 3.
        e.ingest(IoReq::read(t(3, 0), l(100)));
        let (_, f) = e.close_slice();
        assert_eq!(f.pwio, 3.0);
    }

    #[test]
    fn owslope_measures_ramp_up() {
        let mut e = engine();
        // One overwrite per slice for 5 slices.
        for s in 0..5u64 {
            e.ingest(IoReq::read(t(s, 0), l(s)));
            e.ingest(IoReq::write(t(s, 10), l(s)));
            e.close_slice();
        }
        // Burst: 10 overwrites in slice 5 → slope = 10 / mean(1) = 10.
        for i in 0..10u64 {
            e.ingest(IoReq::read(t(5, i * 2), l(100 + i)));
            e.ingest(IoReq::write(t(5, i * 2 + 1), l(100 + i)));
        }
        let (_, f) = e.close_slice();
        assert!((f.owslope - 10.0).abs() < 1e-9);
    }

    #[test]
    fn avgwio_reflects_run_lengths() {
        let mut e = engine();
        // Read an 8-block run and overwrite all of it (ransomware-style).
        for i in 0..8u64 {
            e.ingest(IoReq::read(t(0, i), l(i)));
        }
        for i in 0..8u64 {
            e.ingest(IoReq::write(t(0, 100 + i), l(i)));
        }
        let (_, f) = e.close_slice();
        assert_eq!(f.avgwio, 8.0);
    }

    #[test]
    fn slice_boundaries_emit_gap_slices() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(0)));
        let closed = e.ingest(IoReq::read(t(5, 0), l(1)));
        assert_eq!(closed.len(), 5); // slices 0..=4 closed
        assert_eq!(closed[0].1.io, 1.0);
        assert_eq!(closed[1].1.io, 0.0);
        assert_eq!(e.current_slice(), 5);
    }

    #[test]
    fn flush_until_closes_idle_slices() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(0)));
        let closed = e.flush_until(t(3, 0));
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn multi_block_requests_expand() {
        let mut e = engine();
        e.ingest(IoReq::new(t(0, 0), l(0), IoMode::Read, 4));
        e.ingest(IoReq::new(t(0, 10), l(0), IoMode::Write, 4));
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 4.0);
        assert_eq!(f.io, 8.0);
        assert_eq!(f.avgwio, 4.0);
    }

    #[test]
    fn trim_counts_as_destructive_write() {
        let mut e = engine();
        e.ingest(IoReq::read(t(0, 0), l(3)));
        e.ingest(IoReq::new(t(0, 10), l(3), IoMode::Trim, 1));
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 1.0);
    }

    #[test]
    fn detector_score_accumulates_and_alarms() {
        let mut d = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, 0.5));
        let mut alarms = Vec::new();
        for s in 0..6u64 {
            d.ingest(IoReq::read(t(s, 0), l(s)));
            d.ingest(IoReq::write(t(s, 10), l(s)));
            for v in d.flush_until(t(s + 1, 0)) {
                alarms.push((v.slice, v.score, v.alarm));
            }
        }
        // Votes are positive every slice; alarm from score 3 (slice 2) on.
        assert_eq!(alarms[0].1, 1);
        assert!(!alarms[0].2);
        assert_eq!(alarms[2].1, 3);
        assert!(alarms[2].2);
        assert!(alarms[5].2);
        assert_eq!(d.score(), 6);
    }

    #[test]
    fn detector_score_decays_after_activity_stops() {
        let mut d = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, 0.5));
        for s in 0..4u64 {
            d.ingest(IoReq::read(t(s, 0), l(s)));
            d.ingest(IoReq::write(t(s, 10), l(s)));
        }
        d.flush_until(t(4, 0));
        assert_eq!(d.score(), 4);
        // 20 idle slices: all positive votes slide out.
        d.flush_until(t(24, 0));
        assert_eq!(d.score(), 0);
    }

    #[test]
    fn status_snapshot_tracks_score() {
        let mut d = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, 0.5));
        d.ingest(IoReq::read(t(0, 0), l(1)));
        d.ingest(IoReq::write(t(0, 1), l(1)));
        d.flush_until(t(1, 0));
        let status = d.status();
        assert_eq!(status.score, 1);
        assert_eq!(status.threshold, 3);
        assert_eq!(status.current_slice, 1);
        assert!(status.table_entries >= 1);
        let plain = status.to_string();
        assert!(plain.starts_with("det[score=1/3"), "got {plain}");
    }

    #[test]
    fn went_averages_stamped_blocks_only() {
        let mut e = engine();
        // 4 stamped blocks at 7.95 bits + 4 unstamped blocks: the mean must
        // ignore the unstamped ones entirely.
        e.ingest(IoReq::new(t(0, 0), l(0), IoMode::Write, 4).with_entropy_milli(7950));
        e.ingest(IoReq::new(t(0, 1), l(100), IoMode::Write, 4));
        let (_, f) = e.close_slice();
        assert!((f.went - 7.95).abs() < 1e-9, "went {}", f.went);
        // No stamps at all → 0.0, not a diluted average.
        let (_, f) = e.close_slice();
        assert!((f.went - 7.95).abs() < 1e-9, "window keeps the stamp");
    }

    #[test]
    fn went_decays_with_the_window() {
        let mut e = engine();
        e.ingest(IoReq::write(t(0, 0), l(0)).with_entropy_milli(8000));
        for _ in 0..10 {
            e.close_slice();
        }
        let (_, f) = e.close_slice();
        assert_eq!(f.went, 0.0, "stamp must slide out after N slices");
    }

    #[test]
    fn rhew_requires_high_entropy_and_prior_access() {
        let mut e = engine();
        e.ingest(IoReq::new(t(0, 0), l(0), IoMode::Read, 8));
        // Low-entropy overwrite of read blocks: not RHEW.
        e.ingest(IoReq::new(t(0, 1), l(0), IoMode::Write, 4).with_entropy_milli(4000));
        // High-entropy write to *fresh* LBAs: not RHEW.
        e.ingest(IoReq::new(t(0, 2), l(1000), IoMode::Write, 4).with_entropy_milli(8000));
        let (_, f) = e.close_slice();
        assert_eq!(f.rhew, 0.0);
        // High-entropy overwrite of previously read blocks: RHEW.
        e.ingest(IoReq::new(t(1, 0), l(4), IoMode::Write, 4).with_entropy_milli(7900));
        let (_, f) = e.close_slice();
        assert_eq!(f.rhew, 4.0);
    }

    #[test]
    fn rhew_survives_counting_table_expiry() {
        // The read–sleep–overwrite attack: read victims, idle past the
        // window so the counting table evicts, then encrypt in place.
        // OWIO is blind; RHEW is not.
        let mut e = engine();
        e.ingest(IoReq::new(t(0, 0), l(0), IoMode::Read, 8));
        let closed =
            e.ingest(IoReq::new(t(30, 0), l(0), IoMode::Write, 8).with_entropy_milli(7900));
        assert!(closed.len() <= 21);
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 0.0, "counting table evicted the read");
        assert_eq!(f.rhew, 8.0, "accessed set must persist across the gap");
    }

    #[test]
    fn rhew_ignores_the_writes_own_run() {
        let mut e = engine();
        // First high-entropy write to fresh LBAs must not count itself…
        e.ingest(IoReq::new(t(0, 0), l(50), IoMode::Write, 4).with_entropy_milli(7900));
        let (_, f) = e.close_slice();
        assert_eq!(f.rhew, 0.0);
        // …but a repeat write over the same LBAs is a replacement.
        e.ingest(IoReq::new(t(1, 0), l(50), IoMode::Write, 4).with_entropy_milli(7900));
        let (_, f) = e.close_slice();
        assert_eq!(f.rhew, 4.0);
    }

    #[test]
    fn owburst_separates_bursty_from_steady_overwrites() {
        let steady = {
            let mut e = engine();
            for s in 0..10u64 {
                for i in 0..4u64 {
                    e.ingest(IoReq::read(t(s, i * 2), l(s * 10 + i)));
                    e.ingest(IoReq::write(t(s, i * 2 + 1), l(s * 10 + i)));
                }
                e.close_slice();
            }
            let (_, f) = e.close_slice();
            f.owburst
        };
        let bursty = {
            let mut e = engine();
            // All 40 overwrites in one slice, then silence (still inside
            // the window at the final close).
            for i in 0..40u64 {
                e.ingest(IoReq::read(t(0, i * 2), l(i)));
                e.ingest(IoReq::write(t(0, i * 2 + 1), l(i)));
            }
            for _ in 0..5 {
                e.close_slice();
            }
            let (_, f) = e.close_slice();
            f.owburst
        };
        assert!(
            bursty > steady + 1.0,
            "bursty {bursty} must exceed steady {steady}"
        );
    }

    #[test]
    fn owburst_is_zero_when_idle() {
        let mut e = engine();
        for _ in 0..5 {
            let (_, f) = e.close_slice();
            assert_eq!(f.owburst, 0.0);
        }
    }

    #[test]
    fn finish_closes_current_slice() {
        let mut d = Detector::new(DetectorConfig::default(), DecisionTree::constant(false));
        d.ingest(IoReq::read(t(0, 0), l(0)));
        let v = d.finish();
        assert_eq!(v.slice, 0);
        assert!(!v.vote);
    }
}

#[cfg(test)]
mod gap_tests {
    use super::*;
    use insider_nand::Lba;

    fn l(i: u64) -> Lba {
        Lba::new(i)
    }

    #[test]
    fn far_future_timestamp_is_bounded() {
        let mut e = FeatureEngine::new(SimTime::from_secs(1), 10);
        e.ingest(IoReq::read(SimTime::ZERO, l(0)));
        // Nearly 600 000 years of idle time in one step.
        let closed = e.ingest(IoReq::read(SimTime::from_micros(u64::MAX - 1), l(1)));
        assert!(
            closed.len() <= 21,
            "gap handling must stay bounded: {}",
            closed.len()
        );
        assert_eq!(
            e.current_slice(),
            (u64::MAX - 1) / 1_000_000,
            "engine must land on the request's slice"
        );
        // State reset: the ancient read no longer makes writes overwrites.
        e.ingest(IoReq::write(SimTime::from_micros(u64::MAX - 1), l(0)));
        let (_, f) = e.close_slice();
        assert_eq!(f.owio, 0.0);
    }

    #[test]
    fn detector_score_is_zero_after_a_long_gap() {
        let mut d = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, 0.5));
        for s in 0..5u64 {
            d.ingest(IoReq::read(SimTime::from_secs(s), l(s)));
            d.ingest(IoReq::write(SimTime::from_secs(s).plus_micros(1), l(s)));
        }
        d.flush_until(SimTime::from_secs(5));
        assert!(d.score() > 0);
        // A year of silence: the emitted slices must flush the vote window.
        d.flush_until(SimTime::from_secs(31_536_000));
        assert_eq!(d.score(), 0);
    }

    /// The fast path must emit every slice whose window overlaps pre-gap
    /// activity: a PWIO-keyed vote at slice `window` (the last with nonzero
    /// PWIO) must appear identically on both sides of the cutover.
    #[test]
    fn gap_paths_agree_on_pwio_tail_votes() {
        let run = |flush_secs: u64| -> Vec<(u64, bool)> {
            let mut d = Detector::new(DetectorConfig::default(), DecisionTree::stump(2, 0.5));
            for i in 0..5u64 {
                d.ingest(IoReq::read(SimTime::from_millis(i * 10), l(i)));
                d.ingest(IoReq::write(SimTime::from_millis(i * 10 + 1), l(i)));
            }
            d.flush_until(SimTime::from_secs(flush_secs))
                .into_iter()
                .map(|v| (v.slice, v.vote))
                .collect()
        };
        // 20 s: dense path (exactly at the trigger boundary).
        // 21 s: fast path. Both must contain slice 10's positive PWIO vote.
        let dense = run(20);
        let fast = run(21);
        let dense_v10 = dense.iter().find(|(s, _)| *s == 10).copied();
        let fast_v10 = fast.iter().find(|(s, _)| *s == 10).copied();
        assert_eq!(dense_v10, Some((10, true)));
        assert_eq!(
            fast_v10,
            Some((10, true)),
            "fast path dropped the tail vote"
        );
    }

    /// The evolved features must agree across the dense/fast gap paths:
    /// window-scoped state (WENT/OWBURST histories) decays to zero within
    /// the emitted tail either way, and the `accessed` set persists
    /// identically so RHEW fires the same on the landing slice.
    #[test]
    fn gap_paths_agree_on_evolved_features() {
        let run = |gap_secs: u64| -> (u64, FeatureVector) {
            let mut e = FeatureEngine::new(SimTime::from_secs(1), 10);
            e.ingest(IoReq::new(SimTime::ZERO, l(0), IoMode::Read, 8));
            e.ingest(
                IoReq::new(SimTime::from_millis(1), l(0), IoMode::Write, 8)
                    .with_entropy_milli(7900),
            );
            e.flush_until(SimTime::from_secs(gap_secs));
            e.ingest(
                IoReq::new(SimTime::from_secs(gap_secs), l(0), IoMode::Write, 8)
                    .with_entropy_milli(7900),
            );
            e.close_slice()
        };
        // 20 s: dense path boundary. 21 s: fast path.
        let (_, dense) = run(20);
        let (_, fast) = run(21);
        assert_eq!(dense.rhew, 8.0, "accessed set lost on the dense path");
        assert_eq!(fast.rhew, 8.0, "accessed set lost on the fast path");
        assert_eq!(dense.went, fast.went);
        assert_eq!(dense.owburst, fast.owburst);
    }

    #[test]
    fn short_gaps_still_emit_every_slice() {
        let mut e = FeatureEngine::new(SimTime::from_secs(1), 10);
        e.ingest(IoReq::read(SimTime::ZERO, l(0)));
        // A gap of exactly 2 windows is the cutover boundary: still dense.
        let closed = e.ingest(IoReq::read(SimTime::from_secs(20), l(1)));
        assert_eq!(closed.len(), 20);
        let slices: Vec<u64> = closed.iter().map(|(s, _)| *s).collect();
        assert_eq!(slices, (0..20).collect::<Vec<u64>>());
    }
}
