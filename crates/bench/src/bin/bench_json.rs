//! Machine-readable benchmark: replays three deterministic traces through
//! the [`insider_detect::FeatureEngine`] twice — once on the
//! interval-indexed [`CountingTable`], once on the legacy per-LBA
//! [`NaiveCountingTable`] — then replays the sequential trace through a
//! whole [`SsdInsider`] device twice more, as recorded (`extent`) and
//! [`scalarized`](Trace::scalarized) into one-block requests (`scalar`),
//! both through [`replay_device`] — and writes requests/s plus peak table
//! state to `BENCH_detect.json` so CI can diff throughput across commits.
//!
//! Usage:
//!   cargo run --release -p insider-bench --bin bench_json [-- out.json]

use insider_bench::{
    random_trace, ransomware_mix_trace, replay_device, replay_geometry, sequential_trace,
};
use insider_detect::{
    CountingBackend, CountingTable, DecisionTree, FeatureEngine, IoReq, NaiveCountingTable,
};
use insider_nand::SimTime;
use insider_workloads::Trace;
use serde_json::json;
use ssd_insider::{InsiderConfig, SsdInsider};
use std::time::Instant;

/// Timed passes per layout; the best is reported to damp scheduler noise.
const TIMED_PASSES: usize = 3;

/// One layout's measurements on one trace.
struct LayoutStats {
    elapsed_s: f64,
    requests_per_sec: f64,
    blocks_per_sec: f64,
    peak_table_bytes: usize,
    peak_entries: usize,
}

impl LayoutStats {
    fn to_json(&self) -> serde_json::Value {
        json!({
            "elapsed_s": self.elapsed_s,
            "requests_per_sec": self.requests_per_sec,
            "blocks_per_sec": self.blocks_per_sec,
            "peak_table_bytes": self.peak_table_bytes as u64,
            "peak_entries": self.peak_entries as u64,
        })
    }
}

/// Ingests the whole trace through a fresh engine; returns elapsed seconds.
fn timed_pass<T: CountingBackend>(reqs: &[IoReq], backend: T) -> f64 {
    let mut engine = FeatureEngine::with_backend(SimTime::from_secs(1), 10, false, backend);
    let start = Instant::now();
    let mut slices = 0usize;
    for req in reqs {
        slices += engine.ingest(*req).len();
    }
    let end = reqs.last().map_or(SimTime::ZERO, |r| r.time);
    slices += engine
        .flush_until(end.saturating_add(SimTime::from_secs(5)))
        .len();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(slices > 0, "trace must produce slices");
    elapsed
}

/// Benchmarks one layout: best-of-N timed passes plus an untimed
/// instrumented pass sampling peak table footprint.
fn run_layout<T: CountingBackend, F: Fn() -> T>(reqs: &[IoReq], make: F) -> LayoutStats {
    let elapsed_s = (0..TIMED_PASSES)
        .map(|_| timed_pass(reqs, make()))
        .fold(f64::INFINITY, f64::min);

    let mut engine = FeatureEngine::with_backend(SimTime::from_secs(1), 10, false, make());
    let (mut peak_table_bytes, mut peak_entries) = (0usize, 0usize);
    for (i, req) in reqs.iter().enumerate() {
        engine.ingest(*req);
        if i % 64 == 0 {
            peak_table_bytes = peak_table_bytes.max(engine.counting_table().dram_bytes());
            peak_entries = peak_entries.max(engine.counting_table().entries());
        }
    }
    peak_table_bytes = peak_table_bytes.max(engine.counting_table().dram_bytes());
    peak_entries = peak_entries.max(engine.counting_table().entries());

    let blocks: u64 = reqs.iter().map(|r| r.len as u64).sum();
    LayoutStats {
        elapsed_s,
        requests_per_sec: reqs.len() as f64 / elapsed_s,
        blocks_per_sec: blocks as f64 / elapsed_s,
        peak_table_bytes,
        peak_entries,
    }
}

fn bench_trace(name: &str, reqs: &[IoReq]) -> serde_json::Value {
    eprintln!("bench_json: {name} — {} requests", reqs.len());
    let interval = run_layout(reqs, CountingTable::new);
    let naive = run_layout(reqs, NaiveCountingTable::new);
    let speedup = interval.requests_per_sec / naive.requests_per_sec;
    let blocks: u64 = reqs.iter().map(|r| r.len as u64).sum();
    println!(
        "{name:>16}: interval {:>12.0} req/s  naive {:>12.0} req/s  speedup {speedup:.2}x  \
         (peak table {} B vs {} B)",
        interval.requests_per_sec,
        naive.requests_per_sec,
        interval.peak_table_bytes,
        naive.peak_table_bytes,
    );
    json!({
        "trace": name,
        "requests": reqs.len() as u64,
        "blocks": blocks,
        "interval": interval.to_json(),
        "naive": naive.to_json(),
        "speedup": speedup,
    })
}

/// Device-level replay throughput: the sequential trace through a whole
/// `SsdInsider` (detector + FTL + NAND model), once as recorded and once
/// split into one-block requests. Each timed pass gets a fresh device; the
/// best of N is reported, per request of the *recorded* trace either way.
fn bench_device_replay(trace: &Trace) -> serde_json::Value {
    /// Best-of-N elapsed plus the final pass's device, whose scheduler
    /// latencies and busy integrals feed the utilization report below.
    fn timed(trace: &Trace) -> (f64, SsdInsider) {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..TIMED_PASSES {
            let mut device = SsdInsider::new(
                InsiderConfig::new(replay_geometry()),
                DecisionTree::constant(false),
            );
            let start = Instant::now();
            let outcome = replay_device(trace, &mut device);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(outcome.skipped, 0, "trace must fit the replay geometry");
            best = best.min(elapsed);
            last = Some(device);
        }
        (best, last.expect("at least one pass"))
    }
    eprintln!(
        "bench_json: device-replay (sequential) — {} requests",
        trace.len()
    );
    let (scalar_s, _) = timed(&trace.scalarized());
    let (extent_s, device) = timed(trace);
    let reqs = trace.len() as f64;
    let speedup = scalar_s / extent_s;
    println!(
        "{:>16}: extent {:>12.0} req/s  scalar {:>12.0} req/s  speedup {speedup:.2}x",
        "device-replay",
        reqs / extent_s,
        reqs / scalar_s,
    );
    let stats = device.nand_stats();
    json!({
        "trace": "sequential-read",
        "requests": trace.len() as u64,
        "blocks": trace.total_blocks(),
        "scalar": json!({ "elapsed_s": scalar_s, "requests_per_sec": reqs / scalar_s }),
        "extent": json!({ "elapsed_s": extent_s, "requests_per_sec": reqs / extent_s }),
        "speedup": speedup,
        "latency": device.latency_snapshot(),
        "die_busy_fraction": stats.die_busy_fractions(),
        "bus_utilization": stats.bus_utilization(),
        "buffers_shared": stats.buffers_shared,
        "buffers_copied": stats.buffers_copied,
    })
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_detect.json".into());
    let sequential = sequential_trace();
    let traces = vec![
        bench_trace("sequential-read", sequential.reqs()),
        bench_trace("random-mixed", random_trace().reqs()),
        bench_trace("ransomware-mix", ransomware_mix_trace().reqs()),
    ];
    let device_replay = bench_device_replay(&sequential);
    let doc = json!({
        "benchmark": "detector_ingest",
        "units": json!({ "throughput": "requests/s", "table": "bytes" }),
        "slice_secs": 1u64,
        "window_slices": 10u64,
        "timed_passes": TIMED_PASSES as u64,
        "layouts": json!({
            "interval": "BTreeMap run index + slice-bucketed eviction",
            "naive": "legacy per-LBA HashMap index + full-scan eviction",
        }),
        "traces": traces,
        "device_replay": device_replay,
    });
    std::fs::write(&out, serde_json::to_string(&doc).expect("serializable"))
        .expect("write benchmark JSON");
    println!("wrote {out}");
}
