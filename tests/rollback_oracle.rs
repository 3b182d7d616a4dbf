//! Property test: `InsiderFtl::rollback(now)` restores exactly the logical
//! state that held `window` before `now` — verified against a model that
//! replays the same operation history and truncates it at the cutoff.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write {
        lba: u8,
        tag: u16,
    },
    Trim {
        lba: u8,
    },
    /// Advance simulated time by this many milliseconds before the next op.
    Pause {
        ms: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..32, any::<u16>()).prop_map(|(lba, tag)| Op::Write { lba, tag }),
        1 => (0u8..32).prop_map(|lba| Op::Trim { lba }),
        2 => (0u16..3000).prop_map(|ms| Op::Pause { ms }),
    ]
}

/// Applies the history to a fresh FTL and to the oracle, returning both the
/// device and, for each op, its timestamp.
fn geometry() -> Geometry {
    Geometry::builder()
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build()
}

fn payload(tag: u16) -> Bytes {
    Bytes::copy_from_slice(&tag.to_le_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollback_matches_truncated_history(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
        let mut now = SimTime::ZERO;
        // (time, lba, Some(tag) for write / None for trim)
        let mut history: Vec<(SimTime, u8, Option<u16>)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Write { lba, tag } => {
                    ftl.write(Lba::new(lba as u64), payload(tag), now).unwrap();
                    history.push((now, lba, Some(tag)));
                    now = now.plus_micros(1);
                }
                Op::Trim { lba } => {
                    ftl.trim(Lba::new(lba as u64), now).unwrap();
                    history.push((now, lba, None));
                    now = now.plus_micros(1);
                }
                Op::Pause { ms } => now += SimTime::from_millis(ms as u64),
            }
        }

        // Roll back at the end of the history.
        let cutoff = now.saturating_sub(ftl.config().window().unwrap());
        ftl.rollback(now).unwrap();

        // Oracle: apply only ops strictly before the cutoff.
        let mut oracle: HashMap<u8, Option<u16>> = HashMap::new();
        for (t, lba, value) in &history {
            if *t < cutoff {
                oracle.insert(*lba, *value);
            }
        }

        for lba in 0u8..32 {
            let expected = oracle.get(&lba).copied().flatten();
            let actual = ftl
                .read(Lba::new(lba as u64), now)
                .unwrap()
                .map(|d| u16::from_le_bytes([d[0], d[1]]));
            prop_assert_eq!(
                actual,
                expected,
                "lba {} after rollback (cutoff {})",
                lba,
                cutoff
            );
        }
    }

    #[test]
    fn rollback_then_replay_is_usable(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
        let mut now = SimTime::ZERO;
        for op in &ops {
            match *op {
                Op::Write { lba, tag } => {
                    ftl.write(Lba::new(lba as u64), payload(tag), now).unwrap();
                    now = now.plus_micros(1);
                }
                Op::Trim { lba } => {
                    ftl.trim(Lba::new(lba as u64), now).unwrap();
                    now = now.plus_micros(1);
                }
                Op::Pause { ms } => now += SimTime::from_millis(ms as u64),
            }
        }
        ftl.rollback(now).unwrap();
        // The drive must be fully writable afterwards and serve fresh data.
        for lba in 0u8..8 {
            ftl.write(Lba::new(lba as u64), payload(0xbeef), now).unwrap();
            let read = ftl.read(Lba::new(lba as u64), now).unwrap().unwrap();
            prop_assert_eq!(&read[..], &0xbeefu16.to_le_bytes()[..]);
        }
    }
}
