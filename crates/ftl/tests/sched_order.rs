//! Property: the out-of-order NAND scheduler may promote reads past queued
//! programs/erases on other pages, but it must never reorder a read of a
//! page ahead of an earlier program (or erase) touching that same page —
//! the read would return bits that are not on the die yet. Verified with
//! and without retention against the captured per-command schedule.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{CmdRecord, FaultKind, Geometry, Lba, SimTime};
use proptest::prelude::*;

/// A host-level op in the generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Read(u64),
    Trim(u64),
}

fn op_strategy(span: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..span).prop_map(Op::Write),
        2 => (0..span).prop_map(Op::Read),
        1 => (0..span).prop_map(Op::Trim),
    ]
}

/// Replays the generated host ops, 40 µs apart.
fn run_ops(ftl: &mut dyn Ftl, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        let now = SimTime::from_micros(i as u64 * 40);
        match *op {
            Op::Write(l) => {
                let data = Bytes::copy_from_slice(format!("w{i}").as_bytes());
                ftl.write(Lba::new(l), data, now).unwrap();
            }
            Op::Read(l) => {
                ftl.read(Lba::new(l), now).unwrap();
            }
            Op::Trim(l) => ftl.trim(Lba::new(l), now).unwrap(),
        }
    }
}

/// Asserts every same-page read that was submitted after a program (or any
/// command after an erase of its block) starts only once that mutation
/// completed. `submit` is the global submission counter, so the pairwise
/// scan covers exactly the "read overtakes older mutation" cases.
fn assert_no_same_page_overtake(log: &[CmdRecord]) {
    for (i, later) in log.iter().enumerate() {
        if later.kind != FaultKind::Read {
            continue;
        }
        for earlier in &log[..i] {
            assert!(
                earlier.submit < later.submit,
                "log must be submission-ordered"
            );
            let conflict = match earlier.kind {
                FaultKind::Program => earlier.page == later.page,
                FaultKind::Erase => earlier.block == later.block,
                FaultKind::Read => false,
            };
            if conflict {
                assert!(
                    later.start_ns >= earlier.complete_ns,
                    "read of page {} (submit {}) started at {}ns before {:?} \
                     (submit {}) completed at {}ns",
                    later.page,
                    later.submit,
                    later.start_ns,
                    earlier.kind,
                    earlier.submit,
                    earlier.complete_ns,
                );
            }
        }
    }
}

fn config() -> FtlConfig {
    FtlConfig::new(Geometry::tiny()).capture_commands(true)
}

/// Guards against a silently empty capture: every host write programs at
/// least one page, so the log must hold at least that many programs.
fn assert_log_covers_writes(log: &[CmdRecord], ops: &[Op]) {
    let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
    let programs = log.iter().filter(|c| c.kind == FaultKind::Program).count();
    assert!(
        programs >= writes,
        "captured {programs} programs for {writes} host writes — capture is broken"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conventional_ooo_never_reorders_same_page_read_after_program(
        ops in proptest::collection::vec(op_strategy(24), 1..120)
    ) {
        let mut ftl = InsiderFtl::new(config().protection_window(None));
        run_ops(&mut ftl, &ops);
        let mut log = ftl.take_captured_commands();
        log.sort_by_key(|c| c.submit);
        assert_log_covers_writes(&log, &ops);
        assert_no_same_page_overtake(&log);
    }

    #[test]
    fn insider_ooo_never_reorders_same_page_read_after_program(
        ops in proptest::collection::vec(op_strategy(24), 1..120)
    ) {
        let mut ftl = InsiderFtl::new(config());
        run_ops(&mut ftl, &ops);
        let mut log = ftl.take_captured_commands();
        log.sort_by_key(|c| c.submit);
        assert_log_covers_writes(&log, &ops);
        assert_no_same_page_overtake(&log);
    }
}
