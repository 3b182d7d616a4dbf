//! Property tests for the NAND device: physical constraints hold under
//! arbitrary operation sequences, and data is exactly what was programmed.

use bytes::Bytes;
use insider_nand::{FaultKind, FaultPlan, Geometry, NandConfig, NandDevice, NandError, Pba, Ppa};
use proptest::prelude::*;
use std::collections::HashMap;

fn geometry() -> Geometry {
    Geometry::builder()
        .blocks_per_chip(8)
        .pages_per_block(4)
        .page_size(16)
        .build()
}

#[derive(Debug, Clone)]
enum Op {
    Program { ppa: u8, tag: u8 },
    Read { ppa: u8 },
    Erase { pba: u8 },
    Invalidate { ppa: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..32, any::<u8>()).prop_map(|(ppa, tag)| Op::Program { ppa, tag }),
        3 => (0u8..32).prop_map(|ppa| Op::Read { ppa }),
        1 => (0u8..8).prop_map(|pba| Op::Erase { pba }),
        1 => (0u8..32).prop_map(|ppa| Op::Invalidate { ppa }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A shadow model tracks what each page should hold; the device must
    /// agree after every operation, and reject exactly the operations the
    /// model says are illegal.
    #[test]
    fn device_matches_shadow_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut dev = NandDevice::new(NandConfig::new(geometry()));
        // page -> Some(tag) once programmed; write pointer per block.
        let mut data: HashMap<u8, u8> = HashMap::new();
        let mut wptr = [0u8; 8];

        for op in &ops {
            match *op {
                Op::Program { ppa, tag } => {
                    let block = ppa / 4;
                    let offset = ppa % 4;
                    let result = dev.program(Ppa::new(ppa as u64), Bytes::copy_from_slice(&[tag]));
                    if offset == wptr[block as usize] && wptr[block as usize] < 4 {
                        prop_assert!(result.is_ok(), "in-order program must succeed");
                        data.insert(ppa, tag);
                        wptr[block as usize] += 1;
                    } else {
                        prop_assert!(result.is_err(), "out-of-order/in-place program must fail");
                    }
                }
                Op::Read { ppa } => {
                    let result = dev.read(Ppa::new(ppa as u64));
                    match data.get(&ppa) {
                        Some(tag) => {
                            let data = result.unwrap();
                            prop_assert_eq!(data.as_ref(), &[*tag]);
                        }
                        None => {
                            prop_assert!(matches!(result, Err(NandError::ReadUnwritten(_))));
                        }
                    }
                }
                Op::Erase { pba } => {
                    dev.erase(Pba::new(pba as u32)).unwrap();
                    for off in 0..4u8 {
                        data.remove(&(pba * 4 + off));
                    }
                    wptr[pba as usize] = 0;
                }
                Op::Invalidate { ppa } => {
                    // Bookkeeping only: never destroys data.
                    dev.invalidate(Ppa::new(ppa as u64)).unwrap();
                }
            }
        }
        // Wear accounting is consistent.
        prop_assert_eq!(
            dev.total_erases(),
            ops.iter().filter(|o| matches!(o, Op::Erase { .. })).count() as u64
        );
    }

    /// Invalidate/revalidate cycles never make data readable that was not
    /// programmed, nor lose data that was.
    #[test]
    fn invalidate_revalidate_preserve_payloads(tags in prop::collection::vec(any::<u8>(), 1..4)) {
        let mut dev = NandDevice::new(NandConfig::new(geometry()));
        for (i, tag) in tags.iter().enumerate() {
            dev.program(Ppa::new(i as u64), Bytes::copy_from_slice(&[*tag])).unwrap();
        }
        for (i, tag) in tags.iter().enumerate() {
            dev.invalidate(Ppa::new(i as u64)).unwrap();
            let while_invalid = dev.read(Ppa::new(i as u64)).unwrap();
            prop_assert_eq!(while_invalid.as_ref(), &[*tag]);
            dev.revalidate(Ppa::new(i as u64)).unwrap();
            let after_revalidate = dev.read(Ppa::new(i as u64)).unwrap();
            prop_assert_eq!(after_revalidate.as_ref(), &[*tag]);
        }
    }

    /// Injected faults fail exactly the scheduled op and leave the device
    /// usable; the failed program does not advance the write pointer.
    #[test]
    fn injected_program_fault_is_recoverable(nth in 1u64..5) {
        let mut dev = NandDevice::new(NandConfig::new(geometry()));
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, nth);
        dev.set_fault_plan(plan);

        let mut programmed = Vec::new();
        let mut next = 0u64;
        for attempt in 0..6u64 {
            let payload = Bytes::copy_from_slice(&[attempt as u8]);
            match dev.program(Ppa::new(next), payload) {
                Ok(()) => {
                    programmed.push((next, attempt as u8));
                    next += 1;
                }
                Err(NandError::InjectedFault(_)) => {
                    // Retry the same page: in-order pointer must not have moved.
                    dev.program(Ppa::new(next), Bytes::copy_from_slice(&[attempt as u8]))
                        .unwrap();
                    programmed.push((next, attempt as u8));
                    next += 1;
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
        for (ppa, tag) in programmed {
            let data = dev.read(Ppa::new(ppa)).unwrap();
            prop_assert_eq!(data.as_ref(), &[tag]);
        }
        prop_assert_eq!(dev.stats().failures, 1);
    }
}
