//! Deterministic fault injection.
//!
//! Failure-injection tests need repeatable faults rather than random ones, so
//! the plan counts operations of each kind and fails exactly the scheduled
//! occurrences. Besides one-shot (`fail_nth`) and periodic (`fail_every_nth`)
//! per-operation faults, a plan can schedule a *power cut*: after `n`
//! program/erase attempts the device latches off and every subsequent
//! operation fails with [`NandError::PowerLoss`] until the FTL remounts it —
//! the mechanism behind the crash-point sweep harness. A plan can also
//! corrupt the spare area of a chosen tagged program: the program lands,
//! but its out-of-band record no longer passes its CRC.
//!
//! The plan is consulted once per command at the instant the command is
//! *issued* (drained from a batch submit), so counting follows issue order.
//! Mutations are never reordered by the command scheduler — only reads may
//! be promoted, and reads do not advance the mutation counter — so issue
//! order equals submission order for every counted command, and a power cut
//! that lands mid-batch atomically loses the triggering program plus the
//! whole queued-but-unissued tail of its batch.
//!
//! [`NandError::PowerLoss`]: crate::NandError::PowerLoss

use std::collections::BTreeSet;

/// The kind of device operation a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Program => "program",
            FaultKind::Erase => "erase",
        }
    }
}

/// Outcome of consulting the plan for one operation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultCheck {
    /// No fault: the operation proceeds.
    Proceed,
    /// A scheduled or periodic fault fires; the operation fails with
    /// `InjectedFault` and is not applied.
    Injected,
    /// The power-cut schedule fires on this attempt: the operation fails
    /// with `PowerLoss`, is not applied, and the device latches off.
    PowerCut,
    /// The device is latched off by an earlier power cut; the operation
    /// fails with `PowerLoss`.
    PoweredOff,
}

/// A deterministic schedule of operation failures.
///
/// `fail_nth(FaultKind::Program, 3)` makes the third program operation after
/// the plan is installed return [`NandError::InjectedFault`]. Counting is
/// 1-based and per-kind. A triggered fault is consumed.
/// `fail_every_nth(kind, n)` additionally fails every `n`-th attempt of
/// `kind`, forever. `power_cut_after(n)` cuts power on the `n`-th
/// program-or-erase attempt (one shared 1-based counter over both mutating
/// kinds): that attempt and everything after it fails with
/// [`NandError::PowerLoss`] until the device is power-cycled.
/// `corrupt_oob_nth(n)` flips one byte of the spare area the `n`-th tagged
/// program writes.
///
/// Every schedule index is 1-based. The schedules are built by test
/// harnesses and crash sweeps, never from host input, so the `n >= 1`
/// checks below are caller contracts: an index of zero names no operation
/// and panics rather than silently never firing.
///
/// [`NandError::InjectedFault`]: crate::NandError::InjectedFault
/// [`NandError::PowerLoss`]: crate::NandError::PowerLoss
///
/// # Example
///
/// ```rust
/// use insider_nand::{FaultKind, FaultPlan};
///
/// let mut plan = FaultPlan::new();
/// plan.fail_nth(FaultKind::Program, 1);
/// assert!(plan.should_fail(FaultKind::Program)); // first program fails
/// assert!(!plan.should_fail(FaultKind::Program)); // consumed
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    scheduled: BTreeSet<(FaultKind, u64)>,
    /// Fail every n-th attempt, per kind (read / program / erase).
    every: [Option<u64>; 3],
    counters: [u64; 3],
    /// Cut power on the n-th program-or-erase attempt (shared counter).
    power_cut_at: Option<u64>,
    /// Program + erase attempts seen so far.
    mutations: u64,
    /// Latched after a power cut fires; cleared by `power_restored`.
    powered_off: bool,
    /// Tagged programs whose spare area lands corrupt (1-based indices).
    corrupt_oob: BTreeSet<u64>,
    /// Tagged programs landed so far.
    tagged: u64,
}

impl FaultPlan {
    /// An empty plan that never fails anything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the `n`-th (1-based) operation of `kind` to fail.
    pub fn fail_nth(&mut self, kind: FaultKind, n: u64) -> &mut Self {
        assert!(n >= 1, "fault occurrence index is 1-based");
        self.scheduled.insert((kind, n));
        self
    }

    /// Fails every `n`-th (1-based) operation of `kind`, indefinitely.
    ///
    /// Periodic faults are not consumed and do not count toward
    /// [`is_exhausted`](Self::is_exhausted).
    pub fn fail_every_nth(&mut self, kind: FaultKind, n: u64) -> &mut Self {
        assert!(n >= 1, "fault period is 1-based");
        self.every[Self::slot(kind)] = Some(n);
        self
    }

    /// Cuts power on the `n`-th (1-based) program-or-erase attempt.
    ///
    /// Programs and erases share one attempt counter, so `n` indexes the
    /// device's mutation sequence — exactly the crash points a sweep wants
    /// to enumerate. The triggering operation fails with
    /// [`NandError::PowerLoss`](crate::NandError::PowerLoss) *without being
    /// applied*, and the plan latches: every later read, program or erase
    /// also fails with `PowerLoss` until the device is power-cycled (see
    /// [`NandDevice::power_cut`](crate::NandDevice::power_cut)).
    pub fn power_cut_after(&mut self, n: u64) -> &mut Self {
        assert!(n >= 1, "power-cut mutation index is 1-based");
        self.power_cut_at = Some(n);
        self
    }

    /// Corrupts the spare area of the `n`-th (1-based) tagged program that
    /// lands: the page and its payload are written, but one byte of its
    /// out-of-band record is flipped, so every later read of the record
    /// fails with [`NandError::OobCorrupt`](crate::NandError::OobCorrupt).
    /// The flipped byte is the low byte of the logical address, which a
    /// mount that skipped the check would map to the wrong page.
    pub fn corrupt_oob_nth(&mut self, n: u64) -> &mut Self {
        assert!(n >= 1, "corrupt-OOB program index is 1-based");
        self.corrupt_oob.insert(n);
        self
    }

    fn slot(kind: FaultKind) -> usize {
        match kind {
            FaultKind::Read => 0,
            FaultKind::Program => 1,
            FaultKind::Erase => 2,
        }
    }

    /// Records one operation attempt of `kind` and classifies it.
    #[inline]
    pub(crate) fn check(&mut self, kind: FaultKind) -> FaultCheck {
        if self.powered_off {
            return FaultCheck::PoweredOff;
        }
        let slot = Self::slot(kind);
        self.counters[slot] += 1;
        if matches!(kind, FaultKind::Program | FaultKind::Erase) {
            self.mutations += 1;
            if self.power_cut_at == Some(self.mutations) {
                self.power_cut_at = None;
                self.powered_off = true;
                return FaultCheck::PowerCut;
            }
        }
        let count = self.counters[slot];
        if self.scheduled.remove(&(kind, count)) {
            return FaultCheck::Injected;
        }
        if let Some(n) = self.every[slot] {
            if count.is_multiple_of(n) {
                return FaultCheck::Injected;
            }
        }
        FaultCheck::Proceed
    }

    /// Records one landed tagged program and reports whether its spare
    /// area is to be corrupted.
    #[inline]
    pub(crate) fn corrupts_oob(&mut self) -> bool {
        self.tagged += 1;
        !self.corrupt_oob.is_empty() && self.corrupt_oob.remove(&self.tagged)
    }

    /// Records one operation of `kind` and reports whether it must fail.
    pub fn should_fail(&mut self, kind: FaultKind) -> bool {
        self.check(kind) != FaultCheck::Proceed
    }

    /// Whether a power cut has fired and the device is latched off.
    pub fn is_powered_off(&self) -> bool {
        self.powered_off
    }

    /// Whether a power cut is scheduled but has not fired yet.
    pub fn power_cut_pending(&self) -> bool {
        self.power_cut_at.is_some()
    }

    /// Clears the powered-off latch (the device was power-cycled).
    pub(crate) fn power_restored(&mut self) {
        self.powered_off = false;
    }

    /// Human-readable label for the fault, used in error messages.
    pub fn label(kind: FaultKind) -> &'static str {
        kind.label()
    }

    /// Whether all one-shot faults (scheduled occurrences, spare-area
    /// corruptions and a pending power cut) have been consumed. Periodic
    /// `fail_every_nth` schedules never exhaust and are not considered.
    pub fn is_exhausted(&self) -> bool {
        self.scheduled.is_empty() && self.corrupt_oob.is_empty() && self.power_cut_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fails_exactly_the_scheduled_occurrence() {
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Erase, 2);
        assert!(!plan.should_fail(FaultKind::Erase));
        assert!(plan.should_fail(FaultKind::Erase));
        assert!(!plan.should_fail(FaultKind::Erase));
        assert!(plan.is_exhausted());
    }

    #[test]
    fn kinds_count_independently() {
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Read, 1);
        assert!(!plan.should_fail(FaultKind::Program));
        assert!(plan.should_fail(FaultKind::Read));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_occurrence_panics() {
        FaultPlan::new().fail_nth(FaultKind::Read, 0);
    }

    #[test]
    fn multiple_faults_same_kind() {
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 1)
            .fail_nth(FaultKind::Program, 3);
        assert!(plan.should_fail(FaultKind::Program));
        assert!(!plan.should_fail(FaultKind::Program));
        assert!(plan.should_fail(FaultKind::Program));
    }

    #[test]
    fn every_nth_fires_periodically() {
        let mut plan = FaultPlan::new();
        plan.fail_every_nth(FaultKind::Program, 3);
        let fired: Vec<bool> = (0..9)
            .map(|_| plan.should_fail(FaultKind::Program))
            .collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        assert!(
            plan.is_exhausted(),
            "periodic schedules never exhaust the plan"
        );
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_period_panics() {
        FaultPlan::new().fail_every_nth(FaultKind::Program, 0);
    }

    #[test]
    fn power_cut_counts_programs_and_erases_jointly() {
        let mut plan = FaultPlan::new();
        plan.power_cut_after(3);
        assert!(!plan.is_exhausted());
        assert_eq!(plan.check(FaultKind::Program), FaultCheck::Proceed);
        assert_eq!(plan.check(FaultKind::Read), FaultCheck::Proceed);
        assert_eq!(plan.check(FaultKind::Erase), FaultCheck::Proceed);
        assert_eq!(plan.check(FaultKind::Program), FaultCheck::PowerCut);
        assert!(plan.is_powered_off());
        // Everything fails while latched off, including reads.
        assert_eq!(plan.check(FaultKind::Read), FaultCheck::PoweredOff);
        assert_eq!(plan.check(FaultKind::Erase), FaultCheck::PoweredOff);
        plan.power_restored();
        assert_eq!(plan.check(FaultKind::Program), FaultCheck::Proceed);
        assert!(plan.is_exhausted());
    }

    #[test]
    fn oob_corruption_counts_tagged_programs_only() {
        let mut plan = FaultPlan::new();
        plan.corrupt_oob_nth(2).corrupt_oob_nth(4);
        assert!(!plan.is_exhausted());
        let hits: Vec<bool> = (0..5).map(|_| plan.corrupts_oob()).collect();
        assert_eq!(hits, [false, true, false, true, false]);
        assert!(plan.is_exhausted());
        // Consulting the plan for operations does not advance the count.
        let mut plan = FaultPlan::new();
        plan.corrupt_oob_nth(1);
        assert!(!plan.should_fail(FaultKind::Program));
        assert!(plan.corrupts_oob());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_power_cut_index_panics() {
        FaultPlan::new().power_cut_after(0);
    }
}
