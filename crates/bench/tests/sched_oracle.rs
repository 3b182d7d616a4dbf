//! Scheduler/makespan differential oracle: the NAND command scheduler is a
//! timing-only queueing model, so replaying a trace under in-order
//! scheduling (the reference), out-of-order scheduling and out-of-order
//! scheduling with erase-suspend must leave the *entire physical device
//! state* byte-identical — every page's state, payload and OOB record —
//! and the scheduler's makespan must equal `NandStats`' per-die/per-bus
//! busy maximum exactly (data is applied synchronously; only completion
//! timestamps are simulated).
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
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Lba, NandDevice, NandStats, OobRecord, PageState, Ppa, SchedMode, SimTime};
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

/// How often the replays did what the arms exist to vary.
#[derive(Default)]
struct Exercised {
    erases: u64,
    reads_promoted: u64,
    erases_suspended: u64,
}

/// Replays `trace` through one FTL flavour under every scheduling arm and
/// cross-checks the physical outcomes against the in-order reference.
fn check_flavour(name: &str, config: &FtlConfig, trace: &Trace, seen: &mut Exercised) {
    let run = |mode: SchedMode, erase_suspend: bool| {
        let mut ftl = InsiderFtl::new(config.clone().scheduler(mode).erase_suspend(erase_suspend));
        let outcome = replay_ftl(trace, &mut ftl);
        assert_eq!(outcome.skipped, 0, "{name}: trace must fit the drive");
        // The scheduler never idles a die that has queued work and charges
        // pure service time, so its makespan must equal the per-die/per-bus
        // busy maximum exactly (and thereby can never exceed it).
        let dev = ftl.device();
        assert_eq!(
            dev.sched_makespan_ns(),
            dev.parallel_busy_ns(),
            "{name}/{mode:?}: scheduler makespan diverged from the busy integrals"
        );
        ftl
    };
    let in_order = run(SchedMode::InOrder, false);
    let reference = physical_state(in_order.device());
    let stats = in_order.nand_stats();
    seen.erases += stats.erases;
    for erase_suspend in [false, true] {
        let arm = format!("{name}/out-of-order/erase_suspend={erase_suspend}");
        let scheduled = run(SchedMode::OutOfOrder, erase_suspend);
        assert_eq!(
            physical_state(scheduled.device()),
            reference,
            "{arm}: physical state diverged from in-order"
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
