//! Steady-state foreground-latency benchmark: blocking GC vs the
//! incremental engine (+ erase-suspend) on an aged drive.
//!
//! Ages a small-paged device to ~90 % utilization, then drives a sustained
//! hot overwrite churn (with interleaved foreground reads) twice over
//! identical operation streams — classic blocking collector, and
//! incremental GC with erase-suspend. The headline is the host-visible
//! p99: the blocking arm pays whole-victim drains (migrations plus a 3 ms
//! erase) inline with the triggering write, while the incremental arm
//! spreads bounded migration steps across many writes and preempts
//! straddling erases. Because both arms write
//! byte-identical payloads, the final contents must compare equal after a
//! GC quiesce — the perf run doubles as a correctness differential.
//!
//! Usage:
//!   cargo run --release -p insider-bench --bin bench_steady [out.json]
//!
//! `STEADY_WRITES`, `STEADY_HOT_SPAN`, `STEADY_INTERARRIVAL_US` and
//! `STEADY_WINDOW_MS` override the defaults. Writes `BENCH_steady.json`
//! (or the given path; checked by `bench_check`, which enforces the p99
//! floor).

use insider_bench::render_table;
use insider_bench::steady::{run_steady, SteadyArmOutcome, SteadyParams};
use std::time::Instant;

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn arm_row(o: &SteadyArmOutcome) -> Vec<String> {
    vec![
        o.arm.to_string(),
        ms(o.host.total.p50_ns),
        ms(o.host.total.p95_ns),
        ms(o.host.total.p99_ns),
        ms(o.host.total.max_ns),
        ms(o.gc_pause.p99_ns),
        format!("{:.0}", o.churn_pages_per_sec),
        o.ftl.gc_stw_fallbacks.to_string(),
        o.nand.erases_suspended.to_string(),
    ]
}

fn main() {
    let params = SteadyParams::full().from_env();
    let started = Instant::now();
    let report = run_steady(&params);

    println!(
        "steady-state churn: {} logical pages, {} fill writes, {} churn writes over a {}-page hot span",
        report.logical_pages, report.fill_writes, report.churn_writes, report.hot_span
    );
    println!();
    println!(
        "{}",
        render_table(
            &[
                "arm",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "max ms",
                "gc p99 ms",
                "pages/s",
                "stw",
                "suspends",
            ],
            &[arm_row(&report.blocking), arm_row(&report.incremental)],
        )
    );
    println!();
    println!("p99 ratio (blocking/incremental): {:.2}x", report.p99_ratio);
    println!(
        "gc-pause p99 ratio: {:.2}x   throughput ratio (incremental/blocking): {:.3}",
        report.pause_p99_ratio, report.throughput_ratio
    );
    println!(
        "contents identical across arms: {}",
        report.contents_identical
    );
    println!("wall time: {:.2?}", started.elapsed());

    let doc = serde_json::json!({
        "benchmark": "steady_state_latency",
        "description": "Foreground latency under sustained churn at ~90% utilization: \
            blocking GC vs incremental GC (+erase-suspend), identical \
            operation streams, contents differentially verified after a GC quiesce.",
        "units": serde_json::json!({
            "latency": "ns (simulated)",
            "throughput": "host pages per second of device busy time",
        }),
        "params": serde_json::json!({
            "total_pages": params.geometry.total_pages(),
            "page_size": params.geometry.page_size(),
            "fill_fraction": params.fill_fraction,
            "hot_span": params.hot_span,
            "churn_writes": params.churn_writes,
            "read_every": params.read_every,
            "interarrival_us": params.interarrival.as_micros(),
            "window_ms": params.window.as_millis(),
            "gc_low_water_extra": params.gc_low_water_extra,
            "gc_step_pages": params.gc_step_pages,
        }),
        "report": report,
    });
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_steady.json".into());
    let json = serde_json::to_string(&doc).expect("report serializes");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
