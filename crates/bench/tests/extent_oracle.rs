//! Differential oracle: an N-page extent and its
//! [`scalarized`](Trace::scalarized) decomposition into N one-page requests
//! must be host-observably identical on the three benchmark traces —
//! byte-identical logical device contents, the same recovery-queue length,
//! identical per-slice feature series, and identical rollback reports after
//! a mid-trace alarm. GC timing and physical placement may differ (GC
//! collects ahead of each request by the blocks *that request* needs), so
//! the oracle deliberately compares only logical observables.

use bytes::Bytes;
use insider_bench::{
    random_trace, ransomware_mix_trace, replay_ftl, replay_geometry, sequential_trace,
};
use insider_detect::{DecisionTree, IoMode, IoReq};
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Lba, SimTime};
use insider_workloads::Trace;
use ssd_insider::{DeviceState, InsiderConfig, SsdInsider};

fn traces() -> [(&'static str, Trace); 3] {
    [
        ("sequential-read", sequential_trace()),
        ("random-mixed", random_trace()),
        ("ransomware-mix", ransomware_mix_trace()),
    ]
}

/// Highest LBA a trace touches (exclusive), for bounding content sweeps.
fn touched_span(trace: &Trace) -> u64 {
    trace
        .iter()
        .map(|r| r.lba.index() + r.len as u64)
        .max()
        .unwrap_or(0)
}

/// Reads the full logical contents of `[0, span)` in 256-page extents,
/// each through `read_extent(lba, len)` of an FTL or a device.
fn contents(
    span: u64,
    mut read_extent: impl FnMut(Lba, u32) -> Vec<Option<Bytes>>,
) -> Vec<Option<Bytes>> {
    let mut out = Vec::with_capacity(span as usize);
    let mut lba = 0;
    while lba < span {
        let chunk = 256.min(span - lba) as u32;
        out.extend(read_extent(Lba::new(lba), chunk));
        lba += chunk as u64;
    }
    out
}

#[test]
fn extent_and_scalarized_replays_leave_identical_device_contents() {
    for (name, trace) in traces() {
        let mut extent = InsiderFtl::new(FtlConfig::new(replay_geometry()));
        let mut scalar = InsiderFtl::new(FtlConfig::new(replay_geometry()));
        let a = replay_ftl(&trace, &mut extent);
        let b = replay_ftl(&trace.scalarized(), &mut scalar);
        assert_eq!(a, b, "{name}: replay outcomes diverge");
        assert_eq!(a.skipped, 0, "{name}: trace must fit the replay geometry");
        let span = touched_span(&trace);
        let t = trace.duration();
        assert_eq!(
            contents(span, |lba, len| extent.read_extent(lba, len, t).unwrap()),
            contents(span, |lba, len| scalar.read_extent(lba, len, t).unwrap()),
            "{name}: logical contents diverge"
        );
        assert_eq!(
            extent.recovery_queue().len(),
            scalar.recovery_queue().len(),
            "{name}: recovery queues diverge"
        );
    }
}

#[test]
fn extent_requests_produce_identical_feature_series() {
    let slice = SimTime::from_secs(1);
    for (name, trace) in traces() {
        let native = insider_bench::feature_series(&trace, slice, 10);
        let scalar = insider_bench::feature_series(&trace.scalarized(), slice, 10);
        assert_eq!(native, scalar, "{name}: per-slice features diverge");
    }
}

/// Applies one request to a device as a single extent.
fn apply(device: &mut SsdInsider, req: &IoReq) {
    match req.mode {
        IoMode::Read => {
            device.read_extent(req.lba, req.len, req.time).unwrap();
        }
        IoMode::Write => {
            let payloads = vec![Bytes::from_static(b"replayed"); req.len as usize];
            device.write_extent(req.lba, &payloads, req.time).unwrap();
        }
        IoMode::Trim => device.trim_extent(req.lba, req.len, req.time).unwrap(),
    }
}

/// Replays until the first alarm, returning the index of the request that
/// tripped it. `scalarized` issues each request as its one-page
/// decomposition; the whole request is applied either way before checking.
fn replay_until_alarm(trace: &Trace, device: &mut SsdInsider, scalarized: bool) -> usize {
    for (i, req) in trace.iter().enumerate() {
        if scalarized {
            for page in &Trace::from_reqs(vec![*req]).scalarized() {
                apply(device, page);
            }
        } else {
            apply(device, req);
        }
        if device.state() == DeviceState::Suspicious {
            return i;
        }
    }
    panic!("trace never raised an alarm");
}

#[test]
fn mid_trace_alarm_recovers_identically_for_extents_and_their_decomposition() {
    let trace = ransomware_mix_trace();
    let mut extent = SsdInsider::new(
        InsiderConfig::new(replay_geometry()),
        DecisionTree::stump(0, 0.5),
    );
    let mut scalar = SsdInsider::new(
        InsiderConfig::new(replay_geometry()),
        DecisionTree::stump(0, 0.5),
    );
    let ei = replay_until_alarm(&trace, &mut extent, false);
    let si = replay_until_alarm(&trace, &mut scalar, true);
    assert_eq!(ei, si, "alarm must fire on the same request");
    assert!(ei < trace.len() - 1, "alarm must be mid-trace");

    let confirm_at = trace.reqs()[ei].time + SimTime::from_secs(1);
    let er = extent.confirm_and_recover(confirm_at).unwrap();
    let sr = scalar.confirm_and_recover(confirm_at).unwrap();
    assert_eq!(er, sr, "rollback reports diverge");
    assert!(er.restored > 0, "rollback must undo something");

    let span = touched_span(&trace);
    assert_eq!(
        contents(span, |lba, len| extent
            .read_extent(lba, len, confirm_at)
            .unwrap()),
        contents(span, |lba, len| scalar
            .read_extent(lba, len, confirm_at)
            .unwrap()),
        "post-rollback contents diverge"
    );
}
