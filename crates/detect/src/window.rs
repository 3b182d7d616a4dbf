//! Fixed-capacity sliding windows over per-slice values.

use std::collections::VecDeque;

/// A sliding window over the last `cap` per-slice values (e.g. `OWIO`
/// counts), with O(1) sum maintenance.
///
/// # Example
///
/// ```rust
/// use insider_detect::SliceWindow;
///
/// let mut w = SliceWindow::new(3);
/// w.push(5);
/// w.push(7);
/// w.push(1);
/// assert_eq!(w.sum(), 13);
/// w.push(10); // the 5 falls out
/// assert_eq!(w.sum(), 18);
/// assert!((w.mean() - 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SliceWindow {
    cap: usize,
    values: VecDeque<u64>,
    sum: u64,
}

impl SliceWindow {
    /// A window holding up to `cap` values.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least one slice");
        SliceWindow {
            cap,
            values: VecDeque::with_capacity(cap),
            sum: 0,
        }
    }

    /// Appends a value, evicting the oldest when full. Returns the evicted
    /// value, if any.
    pub fn push(&mut self, value: u64) -> Option<u64> {
        let full = self.values.len() == self.cap;
        let evicted = full.then(|| self.values.pop_front()).flatten();
        if let Some(v) = evicted {
            self.sum -= v;
        }
        self.values.push_back(value);
        self.sum += value;
        evicted
    }

    /// Sum of the retained values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the retained values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.values.len() as f64
        }
    }

    /// Number of values currently retained.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values are retained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Capacity of the window.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Iterates over the retained values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.values.iter().copied()
    }

    /// Drops all values.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sum = 0;
    }
}

/// A sliding window of boolean decision-tree votes with a running score —
/// the paper's score ∈ [0, N] over the last N slices (Fig. 4).
#[derive(Debug, Clone)]
pub struct VoteWindow {
    cap: usize,
    votes: VecDeque<bool>,
    score: u32,
}

impl VoteWindow {
    /// A window holding up to `cap` votes.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "vote window capacity must be at least one slice");
        VoteWindow {
            cap,
            votes: VecDeque::with_capacity(cap),
            score: 0,
        }
    }

    /// Records a vote, sliding the window, and returns the updated score
    /// (Algorithm 1: `Score += ransom_t; Score -= ransom_{t-N}`).
    pub fn push(&mut self, vote: bool) -> u32 {
        if self.votes.len() == self.cap && self.votes.pop_front() == Some(true) {
            self.score -= 1;
        }
        self.votes.push_back(vote);
        if vote {
            self.score += 1;
        }
        self.score
    }

    /// The current score: number of positive votes in the window.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Drops all votes.
    pub fn clear(&mut self) {
        self.votes.clear();
        self.score = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_tracks_evictions() {
        let mut w = SliceWindow::new(2);
        assert_eq!(w.push(1), None);
        assert_eq!(w.push(2), None);
        assert_eq!(w.push(3), Some(1));
        assert_eq!(w.sum(), 5);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let w = SliceWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        assert!(w.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut w = SliceWindow::new(2);
        w.push(9);
        w.clear();
        assert_eq!(w.sum(), 0);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_capacity_panics() {
        SliceWindow::new(0);
    }

    #[test]
    fn vote_score_slides() {
        let mut v = VoteWindow::new(3);
        assert_eq!(v.push(true), 1);
        assert_eq!(v.push(true), 2);
        assert_eq!(v.push(false), 2);
        // First `true` slides out:
        assert_eq!(v.push(false), 1);
        assert_eq!(v.push(false), 0);
        assert_eq!(v.score(), 0);
    }

    #[test]
    fn vote_clear_resets_score() {
        let mut v = VoteWindow::new(2);
        v.push(true);
        v.clear();
        assert_eq!(v.score(), 0);
    }
}
