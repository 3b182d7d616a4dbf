//! State-machine fuzzing for the device lifecycle: arbitrary interleavings
//! of I/O, polls, alarms, confirmations, dismissals, reboots and power cuts
//! must never panic, never corrupt data outside the window, and always
//! leave the device in a coherent state.
//!
//! Both properties draw from the vendored proptest's fixed seed; set
//! `PROPTEST_RNG_SEED` to explore other cases (a failure names the seed).

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_ftl::FtlError;
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;
use ssd_insider::{DeviceError, DeviceState, InsiderConfig, SsdInsider};

fn device() -> SsdInsider {
    SsdInsider::new(
        InsiderConfig::new(Geometry::tiny()),
        DecisionTree::stump(0, 0.5),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Write {
        lba: u8,
    },
    ReadOverwrite {
        lba: u8,
    },
    Read {
        lba: u8,
    },
    Trim {
        lba: u8,
    },
    /// Ransomware-paced read-then-overwrite of `pages` pages, 200 ms apart:
    /// without it the fuzz almost never scores three positive slices, and
    /// every other op would only ever run on a normal drive.
    Attack {
        pages: u8,
    },
    Poll {
        secs: u8,
    },
    Recover,
    Dismiss,
    Reboot,
    PowerCut,
}

/// The states in which the drive refuses writes and trims.
fn read_only(state: DeviceState) -> bool {
    matches!(state, DeviceState::Recovered | DeviceState::RecoveryFailed)
}

/// A write or trim is refused with `ReadOnly` exactly in a read-only state.
fn check_mutation(state: DeviceState, r: Result<(), DeviceError>) -> TestCaseResult {
    if read_only(state) {
        let refused = matches!(r, Err(DeviceError::Ftl(FtlError::ReadOnly)));
        prop_assert!(
            refused,
            "{} drive must refuse a mutation, got {:?}",
            state,
            r
        );
    } else {
        prop_assert!(
            r.is_ok(),
            "{} drive must accept a mutation, got {:?}",
            state,
            r
        );
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..32).prop_map(|lba| Op::Write { lba }),
        3 => (0u8..32).prop_map(|lba| Op::ReadOverwrite { lba }),
        2 => (0u8..32).prop_map(|lba| Op::Read { lba }),
        1 => (0u8..32).prop_map(|lba| Op::Trim { lba }),
        1 => (1u8..40).prop_map(|pages| Op::Attack { pages }),
        2 => (1u8..30).prop_map(|secs| Op::Poll { secs }),
        1 => Just(Op::Recover),
        1 => Just(Op::Dismiss),
        1 => Just(Op::Reboot),
        1 => Just(Op::PowerCut),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lifecycle_never_wedges(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut ssd = device();
        let mut now = SimTime::ZERO;
        for op in &ops {
            let state_before = ssd.state();
            match op {
                Op::Write { lba } => {
                    let r = ssd.write(Lba::new(*lba as u64), Bytes::from_static(b"w"), now);
                    check_mutation(state_before, r)?;
                    now = now.plus_micros(500);
                }
                Op::ReadOverwrite { lba } => {
                    ssd.read(Lba::new(*lba as u64), now).unwrap();
                    let _ = ssd.write(Lba::new(*lba as u64), Bytes::from_static(b"o"), now);
                    now = now.plus_micros(500);
                }
                Op::Read { lba } => {
                    // Reads are always served, in every state.
                    prop_assert!(ssd.read(Lba::new(*lba as u64), now).is_ok());
                }
                Op::Attack { pages } => {
                    for lba in (0..*pages as u64).map(Lba::new) {
                        ssd.read(lba, now).unwrap();
                        let before = ssd.state();
                        check_mutation(before, ssd.write(lba, Bytes::from_static(b"x"), now))?;
                        now += SimTime::from_millis(200);
                    }
                }
                Op::Trim { lba } => {
                    let r = ssd.trim(Lba::new(*lba as u64), now);
                    check_mutation(state_before, r)?;
                }
                Op::Poll { secs } => {
                    now += SimTime::from_secs(*secs as u64);
                    ssd.poll(now);
                }
                Op::Recover => {
                    let r = ssd.confirm_and_recover(now);
                    match state_before {
                        DeviceState::Suspicious => {
                            prop_assert!(r.is_ok());
                            prop_assert_eq!(ssd.state(), DeviceState::Recovered);
                        }
                        _ => {
                            let wrong_state =
                                matches!(r, Err(DeviceError::WrongState { .. }));
                            prop_assert!(wrong_state);
                        }
                    }
                }
                Op::Dismiss => {
                    let r = ssd.dismiss_alarm();
                    match state_before {
                        DeviceState::Suspicious => {
                            prop_assert!(r.is_ok());
                            prop_assert_eq!(ssd.state(), DeviceState::Normal);
                        }
                        _ => prop_assert!(r.is_err()),
                    }
                }
                Op::Reboot => {
                    let r = ssd.reboot();
                    if read_only(state_before) {
                        prop_assert!(r.is_ok());
                        prop_assert_eq!(ssd.state(), DeviceState::Normal);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::PowerCut => {
                    // The lifecycle survives the cut untouched.
                    let alarm_before = ssd.last_alarm().copied();
                    ssd.power_cut(now).unwrap();
                    prop_assert_eq!(ssd.state(), state_before);
                    prop_assert_eq!(ssd.last_alarm().copied(), alarm_before);
                }
            }
            // Global coherence: an alarm is on record iff an incident is open.
            prop_assert_eq!(
                ssd.last_alarm().is_some(),
                ssd.state() != DeviceState::Normal,
                "state {}",
                ssd.state()
            );
        }
    }

    /// Data written before the window and never touched again survives any
    /// op sequence, including recoveries.
    #[test]
    fn cold_data_survives_any_lifecycle(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut ssd = device();
        // Sentinel outside the fuzzed LBA range (ops use 0..40).
        let sentinel = Lba::new(200);
        ssd.write(sentinel, Bytes::from_static(b"sentinel"), SimTime::ZERO).unwrap();
        let mut now = SimTime::from_secs(60);
        ssd.poll(now);
        for op in &ops {
            match op {
                Op::Write { lba } => {
                    let _ = ssd.write(Lba::new(*lba as u64), Bytes::from_static(b"w"), now);
                    now = now.plus_micros(500);
                }
                Op::ReadOverwrite { lba } => {
                    let _ = ssd.read(Lba::new(*lba as u64), now);
                    let _ = ssd.write(Lba::new(*lba as u64), Bytes::from_static(b"o"), now);
                    now = now.plus_micros(500);
                }
                Op::Read { lba } => {
                    let _ = ssd.read(Lba::new(*lba as u64), now);
                }
                Op::Attack { pages } => {
                    for lba in (0..*pages as u64).map(Lba::new) {
                        let _ = ssd.read(lba, now);
                        let _ = ssd.write(lba, Bytes::from_static(b"x"), now);
                        now += SimTime::from_millis(200);
                    }
                }
                Op::Trim { lba } => {
                    let _ = ssd.trim(Lba::new(*lba as u64), now);
                }
                Op::Poll { secs } => {
                    now += SimTime::from_secs(*secs as u64);
                    ssd.poll(now);
                }
                Op::Recover => {
                    let _ = ssd.confirm_and_recover(now);
                }
                Op::Dismiss => {
                    let _ = ssd.dismiss_alarm();
                }
                Op::Reboot => {
                    let _ = ssd.reboot();
                }
                Op::PowerCut => {
                    ssd.power_cut(now).unwrap();
                }
            }
        }
        let data = ssd.read(sentinel, now).unwrap().expect("sentinel mapped");
        prop_assert_eq!(data.as_ref(), b"sentinel");
    }
}
