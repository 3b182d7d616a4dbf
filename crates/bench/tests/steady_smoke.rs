//! Tier-1 smoke over the steady-state harness: a bounded miniature of
//! `bench_steady` (small geometry, a few thousand churn writes) proving
//! both arms run, the incremental engine actually engages, and the
//! final drive contents stay byte-identical across GC strategies. The
//! full-size p99-ratio claim is gated by `bench_check` over the committed
//! `BENCH_steady.json`, not here — at smoke scale the tail is noise.

use insider_bench::{run_steady, SteadyParams};

#[test]
fn steady_smoke() {
    let params = SteadyParams::smoke();
    let report = run_steady(&params);

    assert!(
        report.contents_identical,
        "GC strategy changed drive contents"
    );
    assert!(
        report.blocking.ftl.gc_invocations > 0,
        "blocking arm never collected: {:?}",
        report.blocking.ftl
    );
    assert!(
        report.incremental.ftl.gc_steps > 0,
        "incremental arm never pumped a GC step: {:?}",
        report.incremental.ftl
    );
    // The blocking policy also counts one step per victim, so steps alone
    // do not tell the engines apart. Only a blocking drain stalls host
    // commands behind the firmware (3411 of them at smoke scale, against
    // none for the incremental engine); the one-die smoke drive suspends
    // no erases, so that counter cannot tell them apart here.
    assert!(
        report.incremental.nand.gc_stalled_cmds < report.blocking.nand.gc_stalled_cmds,
        "incremental arm stalled as many host commands behind GC as blocking: {} vs {}",
        report.incremental.nand.gc_stalled_cmds,
        report.blocking.nand.gc_stalled_cmds
    );
    for (arm, outcome) in [
        ("blocking", &report.blocking),
        ("incremental", &report.incremental),
    ] {
        assert!(
            outcome.host.total.count > 0,
            "{arm}: empty host latency distribution"
        );
        assert!(
            outcome.churn_pages_per_sec > 0.0,
            "{arm}: zero churn throughput"
        );
    }
    // The blocking arm's whole-victim drains must be visible as GC pauses.
    assert!(
        report.blocking.gc_pause.count > 0,
        "blocking arm recorded no GC pauses"
    );
}
