//! Property tests: the FTL preserves read-your-writes semantics under
//! arbitrary workloads, with and without retention, across garbage
//! collection and (with a protection window) window retirement.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

fn geometry() -> Geometry {
    // Small blocks so GC triggers often within a short op sequence.
    Geometry::builder()
        .blocks_per_chip(32)
        .pages_per_block(8)
        .page_size(64)
        .build()
}

#[derive(Debug, Clone)]
enum Op {
    Write { lba: u8, tag: u16 },
    Trim { lba: u8 },
    Read { lba: u8 },
    Pause { ms: u16 },
}

fn op_strategy(lbas: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..lbas, any::<u16>()).prop_map(|(lba, tag)| Op::Write { lba, tag }),
        1 => (0..lbas).prop_map(|lba| Op::Trim { lba }),
        3 => (0..lbas).prop_map(|lba| Op::Read { lba }),
        1 => (0u16..2000).prop_map(|ms| Op::Pause { ms }),
    ]
}

fn payload(tag: u16) -> Bytes {
    Bytes::copy_from_slice(&tag.to_le_bytes())
}

fn check_model(ftl: &mut InsiderFtl, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: HashMap<u8, u16> = HashMap::new();
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            Op::Write { lba, tag } => {
                ftl.write(Lba::new(lba as u64), payload(tag), now).unwrap();
                model.insert(lba, tag);
                now = now.plus_micros(10);
            }
            Op::Trim { lba } => {
                ftl.trim(Lba::new(lba as u64), now).unwrap();
                model.remove(&lba);
                now = now.plus_micros(10);
            }
            Op::Read { lba } => {
                let actual = ftl
                    .read(Lba::new(lba as u64), now)
                    .unwrap()
                    .map(|d| u16::from_le_bytes([d[0], d[1]]));
                prop_assert_eq!(
                    actual,
                    model.get(&lba).copied(),
                    "mid-run read of lba {}",
                    lba
                );
            }
            Op::Pause { ms } => now += SimTime::from_millis(ms as u64),
        }
    }
    // Final sweep.
    for (lba, tag) in &model {
        let actual = ftl
            .read(Lba::new(*lba as u64), now)
            .unwrap()
            .map(|d| u16::from_le_bytes([d[0], d[1]]));
        prop_assert_eq!(actual, Some(*tag), "final read of lba {}", lba);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conventional_ftl_is_linearizable(ops in prop::collection::vec(op_strategy(24), 1..400)) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()).protection_window(None));
        check_model(&mut ftl, &ops)?;
        // GC must have been exercised on longer runs without corrupting data.
    }

    #[test]
    fn insider_ftl_is_linearizable(ops in prop::collection::vec(op_strategy(24), 1..400)) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
        check_model(&mut ftl, &ops)?;
    }

    #[test]
    fn insider_write_amplification_is_bounded(
        ops in prop::collection::vec(op_strategy(16), 50..300)
    ) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
        check_model(&mut ftl, &ops)?;
        let wa = ftl.stats().write_amplification();
        // With 16 hot LBAs on a 256-page drive, WA stays small; the bound
        // here is generous — the point is that protection cannot make GC
        // thrash unboundedly once entries retire.
        prop_assert!(wa < 8.0, "write amplification {wa} out of bounds");
    }

    #[test]
    fn queue_is_bounded_by_window_contents(
        ops in prop::collection::vec(op_strategy(16), 1..200)
    ) {
        let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
        let mut now = SimTime::ZERO;
        let mut destructive = 0u64;
        for op in &ops {
            match *op {
                Op::Write { lba, tag } => {
                    ftl.write(Lba::new(lba as u64), payload(tag), now).unwrap();
                    destructive += 1;
                    now = now.plus_micros(10);
                }
                Op::Trim { lba } => {
                    ftl.trim(Lba::new(lba as u64), now).unwrap();
                    destructive += 1;
                    now = now.plus_micros(10);
                }
                Op::Read { lba } => {
                    ftl.read(Lba::new(lba as u64), now).unwrap();
                }
                Op::Pause { ms } => now += SimTime::from_millis(ms as u64),
            }
            prop_assert!(ftl.recovery_queue().len() as u64 <= destructive);
        }
        // After a full window of quiet, the queue must drain completely.
        ftl.tick(now + SimTime::from_secs(11));
        prop_assert_eq!(ftl.recovery_queue().len(), 0);
        prop_assert_eq!(ftl.recovery_queue().protected_count(), 0);
    }
}
