//! Scheduler/makespan differential oracle: the NAND command scheduler is a
//! timing-only queueing model, so replaying a trace at queue depth 1 (the
//! reference) and at the default depth must leave the *entire physical
//! device state* byte-identical — every page's state, payload and OOB
//! record — and the scheduler's makespan must equal `NandStats`'
//! per-die/per-bus busy maximum exactly (data is applied synchronously;
//! only completion timestamps are simulated).
//!
//! At queue depth 1 every command arrives after all earlier commands have
//! completed, so the reference can promote no read, suspend no erase and
//! stall no host command behind firmware; the test asserts those three
//! zeros, so the reference cannot silently start reordering.
//!
//! The three replay traces never fill the 1 GiB replay drive, so they never
//! erase and the two depths can differ on them by no more than read
//! promotion. The churn trace (cold fill to 90 %, then hot churn with
//! interleaved reads on a 12 288-page drive) is the input that collects,
//! and its blocking drains stall the host past their own erases.

use insider_bench::{
    random_trace, ransomware_mix_trace, replay_ftl, replay_geometry, sequential_trace,
};
use insider_detect::{IoMode, IoReq};
use insider_ftl::{FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, NandDevice, NandStats, OobRecord, PageState, Ppa, SimTime};
use insider_workloads::Trace;

/// 4 dies of 96 blocks of 32 pages of 512 B: 12 288 physical pages, a
/// quarter of them over-provisioned, with a 100 ms protection window.
fn churn_config() -> FtlConfig {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(96)
        .pages_per_block(32)
        .page_size(512)
        .build();
    FtlConfig::new(geometry)
        .over_provisioning(0.25)
        .protection_window(SimTime::from_millis(100))
}

/// Cold-fills 90 % of `logical` pages 400 µs apart, then overwrites a
/// 2 048-page hot span round-robin 24 000 times, 600 µs apart, with one
/// read of the span after every second write; one page per request.
fn churn_trace(logical: u64) -> Trace {
    let fill = (logical as f64 * 0.9) as u64;
    let hot = 2048.min(fill);
    let mut trace = Trace::new();
    let mut now = SimTime::from_secs(1);
    for lba in 0..fill {
        trace.push(IoReq::new(now, Lba::new(lba), IoMode::Write, 1));
        now = now.saturating_add(SimTime::from_micros(400));
    }
    for i in 0..24_000u64 {
        trace.push(IoReq::new(now, Lba::new(i % hot), IoMode::Write, 1));
        if (i + 1) % 2 == 0 {
            let lba = Lba::new(i.wrapping_mul(7919) % hot);
            trace.push(IoReq::new(now, lba, IoMode::Read, 1));
        }
        now = now.saturating_add(SimTime::from_micros(600));
    }
    trace
}

/// `(name, configuration, trace)`.
fn inputs() -> Vec<(&'static str, FtlConfig, Trace)> {
    let replay = FtlConfig::new(replay_geometry());
    let churn = churn_config();
    let trace = churn_trace(churn.logical_pages());
    vec![
        ("sequential-read", replay.clone(), sequential_trace()),
        ("random-mixed", replay.clone(), random_trace()),
        ("ransomware-mix", replay, ransomware_mix_trace()),
        ("churn", churn, trace),
    ]
}

/// Full physical snapshot: `(state, payload, oob)` for every page.
type PhysState = Vec<(PageState, Option<Vec<u8>>, Option<OobRecord>)>;

fn physical_state(device: &NandDevice) -> PhysState {
    let pages = device.geometry().total_pages();
    (0..pages)
        .map(|i| {
            let ppa = Ppa::new(i);
            (
                device.page_state(ppa).unwrap(),
                device.peek_data(ppa).unwrap().map(|b| b.to_vec()),
                device.oob(ppa).unwrap(),
            )
        })
        .collect()
}

/// `stats` without what the queue depth is allowed to move: the
/// firmware-stall totals, which are waits measured against completion
/// times.
fn without_timing(stats: &NandStats) -> NandStats {
    let mut s = stats.clone();
    s.gc_stalled_cmds = 0;
    s.gc_stall_ns = 0;
    s
}

/// `config` with its NAND scheduler at queue depth 1, every FTL setting
/// carried over.
fn at_queue_depth_one(config: &FtlConfig) -> FtlConfig {
    let rebuilt = FtlConfig::with_nand(config.nand().clone().queue_depth(1))
        .over_provisioning(config.over_provisioning_ratio())
        .protection_window(config.window())
        .record_gc_victims(config.gc_victim_recording());
    // A setting this rebuild did not carry over would show in the `Debug`
    // text; only the depth (every input runs the default 32) may differ.
    let expected = format!("{config:?}").replace("queue_depth: 32,", "queue_depth: 1,");
    assert_eq!(format!("{rebuilt:?}"), expected, "queue-depth-1 rebuild");
    rebuilt
}

/// How often the replays did what the depths exist to vary.
#[derive(Default)]
struct Exercised {
    erases: u64,
    reads_promoted: u64,
}

/// Replays `trace` through one FTL flavour at both depths and
/// cross-checks the physical outcomes against the queue-depth-1 reference.
fn check_flavour(name: &str, config: &FtlConfig, trace: &Trace, seen: &mut Exercised) {
    let run = |depth: &str, config: FtlConfig| {
        let mut ftl = InsiderFtl::new(config);
        let outcome = replay_ftl(trace, &mut ftl);
        assert_eq!(outcome.skipped, 0, "{name}: trace must fit the drive");
        // The scheduler never idles a die that has queued work and charges
        // pure service time, so its makespan must equal the per-die/per-bus
        // busy maximum exactly (and thereby can never exceed it).
        let dev = ftl.device();
        assert_eq!(
            dev.sched_makespan_ns(),
            dev.parallel_busy_ns(),
            "{name}/{depth}: scheduler makespan diverged from the busy integrals"
        );
        ftl
    };
    let queue_depth_one = run("queue-depth-1", at_queue_depth_one(config));
    let reference = physical_state(queue_depth_one.device());
    let stats = queue_depth_one.nand_stats();
    assert_eq!(
        queue_depth_one.device().reads_promoted(),
        0,
        "{name}: the reference promoted a read"
    );
    assert_eq!(
        stats.erases_suspended, 0,
        "{name}: the reference suspended an erase"
    );
    assert_eq!(
        stats.gc_stalled_cmds, 0,
        "{name}: the reference stalled the host"
    );
    seen.erases += stats.erases;
    let scheduled = run("default-depth", config.clone());
    assert_eq!(
        physical_state(scheduled.device()),
        reference,
        "{name}: physical state diverged from queue depth 1"
    );
    assert_eq!(
        without_timing(scheduled.nand_stats()),
        without_timing(stats),
        "{name}: NAND statistics diverged beyond the timing fields"
    );
    seen.reads_promoted += scheduled.device().reads_promoted();
}

#[test]
fn all_sched_modes_leave_identical_physical_state() {
    let mut seen = Exercised::default();
    for (name, config, trace) in inputs() {
        let conventional = config.clone().protection_window(None);
        for (flavour, config) in [("conventional", conventional), ("insider", config)] {
            check_flavour(&format!("{name}/{flavour}"), &config, &trace, &mut seen);
        }
    }
    assert!(seen.erases > 0, "no input ever erased a block");
    assert!(seen.reads_promoted > 0, "no read was ever promoted");
}
