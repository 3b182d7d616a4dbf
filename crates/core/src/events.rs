//! Device event log: the host-visible notifications the paper delivers via
//! a vendor-specific command ("ransomware attack alarm", §III-C footnote).
//!
//! The device appends events; the host driver drains them with
//! [`SsdInsider::take_events`](crate::SsdInsider::take_events) and reacts —
//! showing the warning dialog, confirming recovery, prompting a reboot.

use insider_detect::Verdict;
use insider_ftl::RollbackReport;
use insider_nand::SimTime;
use serde::{Deserialize, Serialize};

/// One host-visible device notification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeviceEvent {
    /// The detection score crossed the threshold; the drive awaits the
    /// user's verdict.
    AlarmRaised {
        /// The verdict that tripped the alarm.
        verdict: Verdict,
    },
    /// The user dismissed the alarm; normal service resumed.
    AlarmDismissed,
    /// The user confirmed; the mapping table was rolled back and the drive
    /// is read-only until reboot.
    Recovered {
        /// When the rollback ran.
        at: SimTime,
        /// What the rollback did.
        report: RollbackReport,
    },
    /// The host rebooted; write service resumed.
    Rebooted,
    /// Power was lost and restored: the firmware remounted, rebuilding its
    /// DRAM state (mapping table, recovery queue) from the OOB scan.
    PowerCycled {
        /// Power-up time (anchors the rebuilt protection window).
        at: SimTime,
    },
}

impl std::fmt::Display for DeviceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceEvent::AlarmRaised { verdict } => write!(
                f,
                "alarm-raised slice={} score={}",
                verdict.slice, verdict.score
            ),
            DeviceEvent::AlarmDismissed => write!(f, "alarm-dismissed"),
            DeviceEvent::Recovered { at, report } => write!(
                f,
                "recovered at={}us restored={} lbas={}",
                at.as_micros(),
                report.restored,
                report.lbas_touched
            ),
            DeviceEvent::Rebooted => write!(f, "rebooted"),
            DeviceEvent::PowerCycled { at } => {
                write!(f, "power-cycled at={}us", at.as_micros())
            }
        }
    }
}

/// The drive's bounded FIFO of pending events (a real device would expose
/// a small mailbox; unconsumed events age out oldest-first).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: std::collections::VecDeque<DeviceEvent>,
    dropped: u64,
}

/// Capacity of the event mailbox.
pub const EVENT_CAPACITY: usize = 64;

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, evicting the oldest when full. Evictions are
    /// counted in [`dropped`](Self::dropped) so a slow host driver can tell
    /// it missed notifications (possibly an alarm) instead of losing them
    /// silently.
    pub fn push(&mut self, event: DeviceEvent) {
        if self.events.len() == EVENT_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Total events evicted unread since the device powered on. Monotonic;
    /// draining does not reset it.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains all pending events, oldest first.
    pub fn drain(&mut self) -> Vec<DeviceEvent> {
        self.events.drain(..).collect()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_drain() {
        let mut log = EventLog::new();
        log.push(DeviceEvent::AlarmDismissed);
        log.push(DeviceEvent::Rebooted);
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(
            drained,
            vec![DeviceEvent::AlarmDismissed, DeviceEvent::Rebooted]
        );
        assert!(log.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut log = EventLog::new();
        for _ in 0..EVENT_CAPACITY {
            log.push(DeviceEvent::AlarmDismissed);
        }
        log.push(DeviceEvent::Rebooted);
        assert_eq!(log.len(), EVENT_CAPACITY);
        let drained = log.drain();
        assert_eq!(drained.last(), Some(&DeviceEvent::Rebooted));
        assert_eq!(drained.len(), EVENT_CAPACITY);
    }

    #[test]
    fn event_display_is_compact() {
        use insider_nand::SimTime;
        let e = DeviceEvent::PowerCycled {
            at: SimTime::from_micros(42),
        };
        assert_eq!(e.to_string(), "power-cycled at=42us");
        assert_eq!(DeviceEvent::AlarmDismissed.to_string(), "alarm-dismissed");
    }

    #[test]
    fn dropped_counts_evictions_and_survives_drain() {
        let mut log = EventLog::new();
        assert_eq!(log.dropped(), 0);
        for _ in 0..EVENT_CAPACITY + 3 {
            log.push(DeviceEvent::AlarmDismissed);
        }
        assert_eq!(log.dropped(), 3);
        log.drain();
        assert_eq!(log.dropped(), 3, "dropped is monotonic across drains");
        log.push(DeviceEvent::Rebooted);
        assert_eq!(log.dropped(), 3, "pushing into free space drops nothing");
    }
}
