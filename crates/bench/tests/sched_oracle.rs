//! Scheduler/makespan differential oracle: the NAND command scheduler is a
//! timing-only queueing model, so replaying a trace at queue depth 1 (the
//! reference), at the default depth and at the default depth with
//! erase-suspend must leave the *entire physical device state*
//! byte-identical — every page's state, payload and OOB record — and the
//! scheduler's makespan must equal `NandStats`' per-die/per-bus busy
//! maximum exactly (data is applied synchronously; only completion
//! timestamps are simulated).
//!
//! At queue depth 1 every command arrives after all earlier commands have
//! completed, so the reference can promote no read, suspend no erase (it
//! runs with erase-suspend allowed) and stall no host command behind
//! firmware; the test asserts those three zeros, so the reference cannot
//! silently start reordering.
//!
//! The three replay traces never fill the 1 GiB replay drive, so they never
//! erase and no arm can differ on them by more than read promotion. The
//! `bench_steady` scenario (cold fill to 90 %, then hot churn with
//! interleaved reads on a 12 288-page drive) is the input that collects: once
//! under the blocking policy, whose drain stalls the host past its own
//! erases, and once under the incremental policy, the only one that has an
//! erase in flight when a host command arrives — where suspension happens.

use insider_bench::{
    random_trace, ransomware_mix_trace, replay_ftl, replay_geometry, sequential_trace, SteadyArm,
    SteadyParams,
};
use insider_detect::{IoMode, IoReq};
use insider_ftl::{FtlConfig, InsiderFtl};
use insider_nand::{Lba, NandDevice, NandStats, OobRecord, PageState, Ppa, SimTime};
use insider_workloads::Trace;

/// `bench::steady`'s scenario as a trace, one page per request.
fn churn_trace(p: &SteadyParams, logical: u64) -> Trace {
    let fill = (logical as f64 * p.fill_fraction) as u64;
    let hot = p.hot_span.min(fill);
    let mut trace = Trace::new();
    let mut now = SimTime::from_secs(1);
    for lba in 0..fill {
        trace.push(IoReq::new(now, Lba::new(lba), IoMode::Write, 1));
        now = now.saturating_add(p.fill_interarrival);
    }
    for i in 0..p.churn_writes {
        trace.push(IoReq::new(now, Lba::new(i % hot), IoMode::Write, 1));
        if (i + 1) % p.read_every == 0 {
            let lba = Lba::new(i.wrapping_mul(7919) % hot);
            trace.push(IoReq::new(now, lba, IoMode::Read, 1));
        }
        now = now.saturating_add(p.interarrival);
    }
    trace
}

/// `(name, configuration before the scheduling arm is applied, trace)`.
fn inputs() -> Vec<(&'static str, FtlConfig, Trace)> {
    let replay = FtlConfig::new(replay_geometry());
    let steady = SteadyParams::full();
    let blocking = steady.arm_config(SteadyArm::Blocking).ftl().clone();
    let incremental = steady.arm_config(SteadyArm::Incremental).ftl().clone();
    let churn = churn_trace(&steady, blocking.logical_pages());
    vec![
        ("sequential-read", replay.clone(), sequential_trace()),
        ("random-mixed", replay.clone(), random_trace()),
        ("ransomware-mix", replay, ransomware_mix_trace()),
        ("churn/blocking-gc", blocking, churn.clone()),
        ("churn/incremental-gc", incremental, churn),
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

/// `stats` without what a scheduling arm is allowed to move. All of it is
/// timing: the suspend counters, the resume penalties suspension adds to
/// the busy sums (exactly `suspend_overhead_ns`, on the serial sum and
/// summed over the dies), and the firmware-stall totals, which are waits
/// measured against completion times.
fn without_timing(stats: &NandStats) -> NandStats {
    let overhead = stats.suspend_overhead_ns;
    let mut s = stats.clone();
    s.busy_ns -= overhead;
    s.die_busy_ns = vec![stats.die_busy_ns.iter().sum::<u64>() - overhead];
    s.erases_suspended = 0;
    s.suspend_overhead_ns = 0;
    s.gc_stalled_cmds = 0;
    s.gc_stall_ns = 0;
    s
}

/// `config` with its NAND scheduler at queue depth 1 and erase-suspend
/// allowed, every FTL setting carried over. Suspension is on so that the
/// reference's zero suspensions are a property of the depth, not of a
/// disabled feature.
fn at_queue_depth_one(config: &FtlConfig) -> FtlConfig {
    let rebuilt = FtlConfig::with_nand(config.nand().clone().queue_depth(1).erase_suspend(true))
        .over_provisioning(config.over_provisioning_ratio())
        .protection_window(config.window())
        .record_gc_victims(config.gc_victim_recording())
        .incremental_gc(config.incremental_gc_enabled())
        .gc_low_water_extra(config.gc_low_water_extra_blocks())
        .gc_step_pages(config.gc_step_budget_pages());
    // A setting this rebuild did not carry over would show in the `Debug`
    // text; only the depth (every input runs the default 32) may differ.
    let expected = format!("{:?}", config.clone().erase_suspend(true))
        .replace("queue_depth: 32,", "queue_depth: 1,");
    assert_eq!(format!("{rebuilt:?}"), expected, "queue-depth-1 rebuild");
    rebuilt
}

/// How often the replays did what the arms exist to vary.
#[derive(Default)]
struct Exercised {
    erases: u64,
    reads_promoted: u64,
    erases_suspended: u64,
}

/// Replays `trace` through one FTL flavour under every scheduling arm and
/// cross-checks the physical outcomes against the queue-depth-1 reference.
fn check_flavour(name: &str, config: &FtlConfig, trace: &Trace, seen: &mut Exercised) {
    let run = |arm: &str, config: FtlConfig| {
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
            "{name}/{arm}: scheduler makespan diverged from the busy integrals"
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
    for erase_suspend in [false, true] {
        let arm = format!("erase_suspend={erase_suspend}");
        let scheduled = run(&arm, config.clone().erase_suspend(erase_suspend));
        let arm = format!("{name}/{arm}");
        assert_eq!(
            physical_state(scheduled.device()),
            reference,
            "{arm}: physical state diverged from queue depth 1"
        );
        let arm_stats = scheduled.nand_stats();
        assert_eq!(
            without_timing(arm_stats),
            without_timing(stats),
            "{arm}: NAND statistics diverged beyond the timing fields"
        );
        if !erase_suspend {
            assert_eq!(arm_stats.die_busy_ns, stats.die_busy_ns, "{arm}");
            assert_eq!(arm_stats.erases_suspended, 0, "{arm}");
        }
        seen.reads_promoted += scheduled.device().reads_promoted();
        seen.erases_suspended += arm_stats.erases_suspended;
    }
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
    assert!(seen.erases_suspended > 0, "no erase was ever suspended");
}
