//! Checkpointed-mount differential tests (ISSUE 8 tentpole).
//!
//! The contract under test: a mount that loads the newest valid checkpoint
//! and replays only the OOB tail must be indistinguishable from a mount
//! that scans every spare area from scratch — same logical contents, same
//! mapping winners, same ability to keep absorbing writes and garbage
//! collection afterwards. Debug builds additionally run the in-tree merge
//! oracle (`verify_checkpoint_merge`) on every checkpointed mount, so every
//! test here exercises it for free.

use bytes::Bytes;
use insider_ftl::{ConventionalFtl, Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Geometry, Lba, NandConfig, NandError, SimTime, CKPT_SLOTS};

const WINDOW: SimTime = SimTime::from_millis(50);
const INTERVAL: u64 = 48;

fn config() -> FtlConfig {
    FtlConfig::new(Geometry::tiny()).protection_window(WINDOW)
}

/// A GC-heavy workload: a hot set overwritten many times with a cold page
/// per round, enough to cycle blocks through GC (so checkpointed records
/// get pruned and relocated) and to trigger several checkpoints.
fn workload() -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut t = SimTime::from_millis(10);
    for round in 0..100u64 {
        for lba in 0..7u64 {
            out.push((lba, t));
            t += SimTime::from_millis(5);
        }
        out.push((8 + round % 40, t));
        t += SimTime::from_millis(5);
    }
    out
}

fn run<F: Ftl>(ftl: &mut F) -> SimTime {
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in workload().into_iter().enumerate() {
        now = t;
        ftl.write(Lba::new(lba), Bytes::from(format!("L{lba}O{i}")), t)
            .expect("write failed");
    }
    now
}

fn assert_same_contents<A: Ftl, B: Ftl>(a: &mut A, b: &mut B, now: SimTime, what: &str) {
    assert_eq!(a.logical_pages(), b.logical_pages());
    for lba in 0..a.logical_pages() {
        let x = a.read(Lba::new(lba), now).expect("read failed");
        let y = b.read(Lba::new(lba), now).expect("read failed");
        assert_eq!(x, y, "{what}: lba {lba} diverged");
    }
}

/// Checkpoint + tail vs full-scan mount must agree byte for byte, and both
/// drives must sustain GC-forcing service afterwards. Covers both FTLs.
fn check_ckpt_mount_matches_full_scan<F, M>(make: M)
where
    F: Ftl,
    M: Fn(FtlConfig) -> F,
{
    let mut ckpt = make(config().checkpoint_interval(INTERVAL));
    let mut full = make(
        config()
            .checkpoint_interval(INTERVAL)
            .mount_from_checkpoint(false),
    );
    let now = run(&mut ckpt);
    run(&mut full);
    assert!(
        ckpt.stats().checkpoints > 0,
        "workload never triggered a checkpoint"
    );

    ckpt.power_cut(now).expect("checkpointed remount failed");
    full.power_cut(now).expect("full-scan remount failed");
    assert_same_contents(&mut ckpt, &mut full, now, "post-remount");

    // Both mounted states must keep working: force GC and re-verify.
    let mut t = now + SimTime::from_secs(1);
    for round in 0..60u64 {
        for lba in 0..8u64 {
            let payload = Bytes::from(format!("post{round}:{lba}"));
            ckpt.write(Lba::new(lba), payload.clone(), t)
                .expect("post-remount write");
            full.write(Lba::new(lba), payload, t)
                .expect("post-remount write");
            t += SimTime::from_millis(5);
        }
    }
    assert!(
        ckpt.stats().gc_invocations > 0,
        "post-remount service never hit GC"
    );
    assert_same_contents(&mut ckpt, &mut full, t, "post-remount service");

    // A second power cycle mounts from a checkpoint *written after* the
    // first checkpointed mount — the rebuilt chain index is the input.
    let before = ckpt.stats().checkpoints;
    ckpt.power_cut(t)
        .expect("second checkpointed remount failed");
    full.power_cut(t).expect("second full-scan remount failed");
    assert!(before > 1, "post-remount service wrote no checkpoint");
    assert_same_contents(&mut ckpt, &mut full, t, "second remount");
}

#[test]
fn insider_ckpt_mount_matches_full_scan() {
    check_ckpt_mount_matches_full_scan(InsiderFtl::new);
}

#[test]
fn conventional_ckpt_mount_matches_full_scan() {
    check_ckpt_mount_matches_full_scan(ConventionalFtl::new);
}

/// A checkpointed mount reads only the OOB tail, but each of those reads is
/// a spare-area read like the full scan's: counted, and charged to the die
/// and channel bus it lands on. Same workload twice, one drive mounting from
/// its checkpoint and one scanning everything; across each remount the
/// summed per-die and per-bus busy integrals must grow by exactly the
/// spare-area reads times the read and transfer latencies.
#[test]
fn ckpt_tail_scan_is_charged_like_the_full_scan() {
    const READ_NS: u64 = 50_000;
    const BUS_NS: u64 = 30_000;
    let nand = NandConfig::new(Geometry::tiny())
        .read_latency_ns(READ_NS)
        .bus_transfer_ns(BUS_NS);
    let config = FtlConfig::with_nand(nand)
        .protection_window(WINDOW)
        .checkpoint_interval(INTERVAL);
    let busy = |ftl: &InsiderFtl| {
        let s = ftl.nand_stats();
        (
            s.reads,
            s.die_busy_ns.iter().sum::<u64>(),
            s.bus_busy_ns.iter().sum::<u64>(),
        )
    };
    let mut spare_reads = Vec::new();
    for from_checkpoint in [true, false] {
        let mut ftl = InsiderFtl::new(config.clone().mount_from_checkpoint(from_checkpoint));
        let now = run(&mut ftl);
        // Loading a checkpoint also reads both controller slots. Those
        // count as reads but live on no die, so they are not spare reads.
        let slot_pages: u64 = if from_checkpoint {
            (0..CKPT_SLOTS)
                .map(|slot| ftl.device().ckpt_peek(slot).len() as u64)
                .sum()
        } else {
            0
        };
        let (reads, die, bus) = busy(&ftl);
        ftl.power_cut(now).expect("remount failed");
        let (reads_after, die_after, bus_after) = busy(&ftl);
        let spare = reads_after - reads - slot_pages;
        let what = format!("from_checkpoint={from_checkpoint}, {spare} spare reads");
        assert_eq!(die_after - die, spare * READ_NS, "{what}: die time");
        assert_eq!(bus_after - bus, spare * BUS_NS, "{what}: bus time");
        spare_reads.push(spare);
    }
    let (tail, full) = (spare_reads[0], spare_reads[1]);
    assert!(
        0 < tail && tail < full,
        "the checkpointed mount must read a non-empty tail, not everything: \
         {tail} vs {full}"
    );
}

/// Sweeps power cuts across the region where checkpoint slot erases and
/// page programs happen, stride 1. Wherever the cut lands — including torn
/// mid-checkpoint writes — the remount must match a never-crashed oracle
/// that replayed only the acknowledged writes. A torn checkpoint must fall
/// back to the previous slot or a full scan, never surface garbage.
#[test]
fn torn_checkpoint_falls_back_cleanly() {
    // Locate the mutation count consumed by an uncut run, then sweep cuts
    // across the second half — checkpoints (erase + programs) land
    // throughout once the first interval elapses.
    let mut reference = InsiderFtl::new(config().checkpoint_interval(INTERVAL));
    run(&mut reference);
    let total_muts = {
        let s = reference.nand_stats();
        s.programs + s.erases
    };
    assert!(
        reference.stats().checkpoints >= 4,
        "need several checkpoints to sweep across"
    );

    let mut crashed_inside_ckpt = 0u32;
    for cut in (total_muts / 2)..total_muts {
        let mut ftl = InsiderFtl::new(config().checkpoint_interval(INTERVAL));
        let mut plan = FaultPlan::new();
        plan.power_cut_after(cut);
        ftl.set_fault_plan(plan);
        let mut acked: Vec<(u64, Bytes, SimTime)> = Vec::new();
        let mut crash_now = SimTime::ZERO;
        let mut crashed = false;
        for (i, (lba, t)) in workload().into_iter().enumerate() {
            crash_now = t;
            let payload = Bytes::from(format!("L{lba}O{i}"));
            match ftl.write(Lba::new(lba), payload.clone(), t) {
                Ok(()) => acked.push((lba, payload, t)),
                Err(FtlError::Nand(NandError::PowerLoss)) => {
                    // A cut inside maybe_checkpoint still acknowledged the
                    // data write that triggered it.
                    if ftl.stats().host_writes > acked.len() as u64 {
                        acked.push((lba, payload, t));
                        crashed_inside_ckpt += 1;
                    }
                    crashed = true;
                    break;
                }
                Err(e) => panic!("sweep write failed: {e}"),
            }
        }
        assert!(crashed, "cut {cut} never fired");
        ftl.power_cut(crash_now).expect("remount failed");
        ftl.set_fault_plan(FaultPlan::new());

        let mut oracle = InsiderFtl::new(config());
        for (lba, payload, t) in &acked {
            oracle
                .write(Lba::new(*lba), payload.clone(), *t)
                .expect("oracle write");
        }
        oracle.power_cut(crash_now).expect("oracle remount failed");
        assert_same_contents(&mut ftl, &mut oracle, crash_now, &format!("cut={cut}"));
    }
    assert!(
        crashed_inside_ckpt > 0,
        "sweep never landed a cut inside a checkpoint write"
    );
}
