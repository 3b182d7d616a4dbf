//! Smoke test of the Fig. 8 measurement: one short trace replayed through
//! the detection-on and detection-off arms. Only deterministic facts are
//! asserted — both arms do the same host work, and every mode is timed —
//! never a wall-clock threshold.

use insider_bench::replay_detection_arms;
use insider_detect::{DecisionTree, IoMode, IoReq};
use insider_nand::{Geometry, Lba, SimTime};
use insider_workloads::Trace;
use ssd_insider::InsiderConfig;

const MODES: [IoMode; 3] = [IoMode::Read, IoMode::Write, IoMode::Trim];

/// Read, write and trim 4-page extents over a 128-page hot set, 50 ms
/// apart: overwrite-heavy enough that the stump tree raises alarms, which
/// the on arm dismisses and the off arm never sees.
fn short_trace() -> Trace {
    let mut trace = Trace::new();
    for i in 0..300u64 {
        let lba = Lba::new(i % 32 * 4);
        let mode = MODES[(i % 3) as usize];
        trace.push(IoReq::new(SimTime::from_millis(i * 50), lba, mode, 4));
    }
    trace
}

#[test]
fn detection_arms_apply_identical_work_and_time_every_mode() {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(64)
        .build();
    let config = InsiderConfig::new(geometry);
    let tree = DecisionTree::stump(0, 0.5);
    let trace = short_trace();
    for on_first in [true, false] {
        let [(on, on_stats), (off, off_stats)] =
            replay_detection_arms(&trace, &config, &tree, on_first);
        assert_eq!((on.applied, on.skipped), (trace.total_blocks(), 0));
        for mode in MODES {
            let (on, off) = (on.mode(mode), off.mode(mode));
            assert_eq!(on.pages, off.pages, "{mode}: arms applied different work");
            assert_eq!(on.pages, 400, "{mode}: 100 requests of 4 pages");
            assert!(on.wall_ns > 0 && off.wall_ns > 0, "{mode}: untimed");
        }
        let host = |s: &insider_ftl::FtlStats| (s.host_reads, s.host_writes, s.host_trims);
        assert_eq!(host(&on_stats), host(&off_stats));
        assert_eq!(host(&on_stats), (400, 400, 400));
    }
}
