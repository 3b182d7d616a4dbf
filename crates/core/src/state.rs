//! The device's alarm/recovery lifecycle.

use crate::{DeviceError, Result};
use insider_detect::Verdict;
use insider_ftl::Hold;
use insider_nand::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Lifecycle state of an [`SsdInsider`](crate::SsdInsider) device (paper
/// §III-C); DESIGN.md §9 tabulates the transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DeviceState {
    /// Serving I/O, no alarm pending; an alarm makes the drive suspicious.
    #[default]
    Normal,
    /// Alarm raised: I/O continues with retirement frozen until the user
    /// confirms (rollback) or dismisses the alarm (back to normal).
    Suspicious,
    /// Confirmed and rolled back; read-only until the host reboots.
    Recovered,
    /// Confirmed, but the rollback failed part-way and cannot be retried;
    /// read-only until the host reboots.
    RecoveryFailed,
}

impl fmt::Display for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceState::Normal => "normal",
            DeviceState::Suspicious => "suspicious (alarm pending)",
            DeviceState::Recovered => "recovered (read-only)",
            DeviceState::RecoveryFailed => "recovery failed (read-only)",
        };
        f.write_str(s)
    }
}

/// The lifecycle as one value: the state and the alarm that opened the
/// incident. Only [`next`](Lifecycle::next) moves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lifecycle {
    Normal,
    Suspicious { alarm: Verdict },
    Recovered { alarm: Verdict },
    RecoveryFailed { alarm: Verdict },
}

/// What moves a [`Lifecycle`]: an alarm verdict, the user's confirmation
/// (with the rollback's outcome) or dismissal, and the host's reboot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Command {
    Alarm(Verdict),
    Confirm { rolled_back: bool },
    Dismiss,
    Reboot,
}

use Command::*;
use Lifecycle::*;

impl Lifecycle {
    pub(crate) fn state(&self) -> DeviceState {
        match self {
            Normal => DeviceState::Normal,
            Suspicious { .. } => DeviceState::Suspicious,
            Recovered { .. } => DeviceState::Recovered,
            RecoveryFailed { .. } => DeviceState::RecoveryFailed,
        }
    }

    /// The verdict that opened the incident; `None` exactly in `Normal`.
    pub(crate) fn alarm(&self) -> Option<&Verdict> {
        match self {
            Normal => None,
            Suspicious { alarm } | Recovered { alarm } | RecoveryFailed { alarm } => Some(alarm),
        }
    }

    /// The state `command` leads to: the one place a transition is allowed
    /// or refused, with [`DeviceError::WrongState`] naming what it needed.
    pub(crate) fn next(self, command: Command) -> Result<Lifecycle> {
        Ok(match (self, command) {
            (Normal, Alarm(alarm)) => Suspicious { alarm },
            (Suspicious { alarm }, Confirm { rolled_back: true }) => Recovered { alarm },
            (Suspicious { alarm }, Confirm { rolled_back: false }) => RecoveryFailed { alarm },
            (Suspicious { .. }, Dismiss) => Normal,
            (Recovered { .. } | RecoveryFailed { .. }, Reboot) => Normal,
            (_, command) => {
                let needed = match command {
                    Alarm(_) => "no open incident (normal state)",
                    Confirm { .. } | Dismiss => "a pending alarm (suspicious state)",
                    Reboot => "a finished recovery (recovered or recovery-failed state)",
                };
                let actual = self.state();
                return Err(DeviceError::WrongState { actual, needed });
            }
        })
    }

    /// What the FTL is held to: from the alarm until a rollback empties
    /// the queue, retirement is frozen at the alarm instant (the end of the
    /// alarming slice, `slice` long); a confirmed drive is read-only.
    pub(crate) fn hold(&self, slice: SimTime) -> Hold {
        let frozen_at = match self {
            Suspicious { alarm } | RecoveryFailed { alarm } => {
                Some(SimTime::from_micros((alarm.slice + 1) * slice.as_micros()))
            }
            Normal | Recovered { .. } => None,
        };
        let read_only = matches!(self, Recovered { .. } | RecoveryFailed { .. });
        Hold {
            read_only,
            frozen_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_normal() {
        assert_eq!(DeviceState::default(), DeviceState::Normal);
    }

    #[test]
    fn display_is_lowercase() {
        for s in [
            DeviceState::Normal,
            DeviceState::Suspicious,
            DeviceState::Recovered,
            DeviceState::RecoveryFailed,
        ] {
            assert!(s.to_string().chars().next().unwrap().is_lowercase());
        }
    }

    fn verdict(slice: u64) -> Verdict {
        Verdict {
            slice,
            features: Default::default(),
            vote: true,
            score: 3,
            alarm: true,
        }
    }

    #[test]
    fn transition_table() {
        let (a, b) = (verdict(4), verdict(9));
        let commands = [
            Command::Alarm(b),
            Command::Confirm { rolled_back: true },
            Command::Confirm { rolled_back: false },
            Command::Dismiss,
            Command::Reboot,
        ];
        let normal = "no open incident (normal state)";
        let pending = "a pending alarm (suspicious state)";
        let finished = "a finished recovery (recovered or recovery-failed state)";
        // One row per state, one column per command above.
        let table: [(Lifecycle, [std::result::Result<Lifecycle, &str>; 5]); 4] = [
            (
                Normal,
                [
                    Ok(Suspicious { alarm: b }),
                    Err(pending),
                    Err(pending),
                    Err(pending),
                    Err(finished),
                ],
            ),
            (
                Suspicious { alarm: a },
                [
                    Err(normal),
                    Ok(Recovered { alarm: a }),
                    Ok(RecoveryFailed { alarm: a }),
                    Ok(Normal),
                    Err(finished),
                ],
            ),
            (
                Recovered { alarm: a },
                [
                    Err(normal),
                    Err(pending),
                    Err(pending),
                    Err(pending),
                    Ok(Normal),
                ],
            ),
            (
                RecoveryFailed { alarm: a },
                [
                    Err(normal),
                    Err(pending),
                    Err(pending),
                    Err(pending),
                    Ok(Normal),
                ],
            ),
        ];
        for (from, row) in table {
            for (command, want) in commands.into_iter().zip(row) {
                let got = from.next(command).map_err(|e| match e {
                    DeviceError::WrongState { actual, needed } => {
                        assert_eq!(actual, from.state());
                        needed
                    }
                    other => panic!("unexpected {other}"),
                });
                assert_eq!(got, want, "{from:?} on {command:?}");
            }
        }
    }

    #[test]
    fn hold_and_alarm_follow_the_state() {
        let a = verdict(4);
        let slice = SimTime::from_secs(1);
        let alarm_at = Some(SimTime::from_secs(5));
        for (lifecycle, read_only, frozen_at) in [
            (Normal, false, None),
            (Suspicious { alarm: a }, false, alarm_at),
            (Recovered { alarm: a }, true, None),
            (RecoveryFailed { alarm: a }, true, alarm_at),
        ] {
            let hold = Hold {
                read_only,
                frozen_at,
            };
            assert_eq!(lifecycle.hold(slice), hold, "{lifecycle:?}");
            assert_eq!(
                lifecycle.alarm().is_some(),
                lifecycle.state() != DeviceState::Normal
            );
        }
    }
}
