//! Shared simulation-level types: logical block addresses and simulated time.
//!
//! These live in the bottom crate of the stack so the FTL, the detector and
//! the workload generators all agree on one definition.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A logical block address, as seen in a block-I/O request header.
///
/// One LBA addresses one logical page (4 KiB by default). The SSD-Insider
/// detector observes streams of `(time, lba, mode, length)` headers; the FTL
/// translates LBAs to physical page addresses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Lba(u64);

impl Lba {
    /// Creates a logical block address.
    pub const fn new(index: u64) -> Self {
        Lba(index)
    }

    /// The flat logical index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The address `n` blocks after this one.
    pub const fn offset(self, n: u64) -> Self {
        Lba(self.0 + n)
    }

    /// The next logical block address.
    pub const fn next(self) -> Self {
        self.offset(1)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

impl From<u64> for Lba {
    fn from(v: u64) -> Self {
        Lba(v)
    }
}

/// A point in simulated time, with microsecond resolution.
///
/// Traces are replayed against simulated time rather than wall-clock time so
/// experiments are deterministic and can cover minutes of I/O in milliseconds
/// of CPU. The detector's 1-second time slices and the recovery window are
/// expressed in this unit.
///
/// # Example
///
/// ```rust
/// use insider_nand::SimTime;
///
/// let t = SimTime::from_secs(9) + SimTime::from_millis(500);
/// assert_eq!(t.as_micros(), 9_500_000);
/// assert_eq!(t.slice_index(SimTime::from_secs(1)), 9);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// This time in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Index of the time slice of length `slice` containing this instant.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is zero.
    pub fn slice_index(self, slice: SimTime) -> u64 {
        assert!(slice.0 > 0, "slice length must be non-zero");
        self.0 / slice.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: `self + rhs`, clamped at the maximum instant.
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// `self + micros` microseconds.
    pub const fn plus_micros(self, us: u64) -> SimTime {
        SimTime(self.0 + us)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow (in release builds too — a silently wrapped
    /// timestamp would corrupt every window computation downstream); use
    /// [`SimTime::saturating_sub`] when `rhs` may exceed `self`.
    ///
    /// Host stamps never reach it: the firmware crates (`nand`, `ftl`,
    /// `core`, `fs`, `detect`) do all their time arithmetic with the
    /// saturating forms, and the one caller elsewhere subtracts an instant
    /// from a later one it was just compared with.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_arithmetic() {
        let a = Lba::new(10);
        assert_eq!(a.next(), Lba::new(11));
        assert_eq!(a.offset(5), Lba::new(15));
        assert_eq!(a.index(), 10);
        assert_eq!(a.to_string(), "lba:10");
    }

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(1500).as_millis(), 1500);
        assert!((SimTime::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(1) + SimTime::from_millis(500);
        assert_eq!(t.as_millis(), 1500);
        assert_eq!(t - SimTime::from_millis(500), SimTime::from_secs(1));
        assert_eq!(
            SimTime::from_secs(1).saturating_sub(SimTime::from_secs(5)),
            SimTime::ZERO
        );
        let mut u = SimTime::ZERO;
        u += SimTime::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    fn slice_indexing() {
        let slice = SimTime::from_secs(1);
        assert_eq!(SimTime::from_millis(999).slice_index(slice), 0);
        assert_eq!(SimTime::from_millis(1000).slice_index(slice), 1);
        assert_eq!(SimTime::from_secs(10).slice_index(slice), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_slice_panics() {
        SimTime::from_secs(1).slice_index(SimTime::ZERO);
    }

    #[test]
    fn saturating_add_clamps() {
        let max = SimTime::from_micros(u64::MAX);
        assert_eq!(max.saturating_add(SimTime::from_secs(1)), max);
        assert_eq!(
            SimTime::from_secs(1).saturating_add(SimTime::from_secs(2)),
            SimTime::from_secs(3)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(Lba::new(1) < Lba::new(2));
    }
}
