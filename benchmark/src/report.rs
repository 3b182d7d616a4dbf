//! Output: the human table, the full JSON report with provenance, and the
//! one-line result the benchmark driver reads.

use crate::metrics::{Listed, Sample, CATALOGUE};
use crate::workloads::Workload;
use serde_json::{json, Value};

/// One asserted property of a run. `ok` is `None` when the run's scale is
/// too small for the property to be meaningful (`--quick`).
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: Option<bool>,
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub reps: usize,
    pub traced_reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub stream_hash: u64,
    pub op_counts: Vec<(&'static str, u64)>,
    pub checks: Vec<Check>,
    pub samples: Vec<Sample>,
}

impl WorkloadReport {
    /// No failed operation and no check that does not hold.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok != Some(false))
    }
}

/// Why each workload exists; also recorded in `BENCHMARK.json`.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::FsOfficeCached => {
            "office file work over a cache that holds the corpus: MiniExt and the block cache do the host work, the device sees write-back only"
        }
        Workload::FsAttackRecover => {
            "ransomware, alarm, rollback, fsck and cold scans over a cache far smaller than the corpus: detector, rollback and the cache miss path are on the critical path"
        }
        Workload::DevChurnGc => {
            "overwrite churn on a 70% full device without fs or cache: garbage collection, delayed deletion and the NAND scheduler dominate"
        }
        Workload::DevReadMostly => {
            "scans and random reads with 1% appends on a half-full device: the read path with GC idle, where per-request detector cost has its largest share"
        }
    }
}

/// Who measured, on what, with what.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Provenance {
    fn json(&self) -> Value {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        json!({
            "git_commit": env("BENCH_GIT_COMMIT"),
            "rustc": env("BENCH_RUSTC"),
            "nproc": nproc,
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            "threads": 1u64,
            "seed": self.seed,
            "seconds_per_pass": self.seconds,
            "quick": self.quick,
        })
    }
}

fn sample_json(s: &Sample) -> Value {
    let group = if s.def.name.contains('.') {
        "per_layer"
    } else {
        "end_to_end"
    };
    json!({
        "name": s.def.name,
        "group": group,
        "unit": s.def.unit,
        "clock": s.def.clock.name(),
        "better": s.def.better.name(),
        "value": s.value,
        "min": s.min,
        "median": s.median,
        "max": s.max,
        "samples": s.samples,
        "bound": s.def.bound,
    })
}

/// The full report of one workload.
pub fn full_json(provenance: &Provenance, r: &WorkloadReport) -> String {
    let op_counts = Value::Map(
        r.op_counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::U64(*v)))
            .collect(),
    );
    let checks: Vec<Value> = r
        .checks
        .iter()
        .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail}))
        .collect();
    let metrics: Vec<Value> = r.samples.iter().map(sample_json).collect();
    let doc = json!({
        "benchmark": "insider-benchmark",
        "provenance": provenance.json(),
        "workload": r.workload.name(),
        "why": why(r.workload),
        "repetitions": r.reps as u64,
        "traced_repetitions": r.traced_reps as u64,
        "op_counts": op_counts,
        "stream_hash": format!("{:016x}", r.stream_hash),
        "attempted": r.attempted,
        "failed": r.failed,
        "correct": r.correct(),
        "checks": checks,
        "metrics": metrics,
    });
    serde_json::to_string(&doc).expect("the report serializes")
}

/// The human table for one workload.
pub fn table(r: &WorkloadReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let counts: Vec<String> = r
        .op_counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(
        out,
        "== {}  reps={} traced={}  failed {}/{}  stream {:016x}  {}",
        r.workload.name(),
        r.reps,
        r.traced_reps,
        r.failed,
        r.attempted,
        r.stream_hash,
        counts.join(" ")
    );
    for s in &r.samples {
        let bound = s
            .def
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} {:<5} [{:.4} / {:.4} / {:.4}] n={}{}",
            s.def.name,
            s.value,
            s.def.unit,
            s.def.clock.name(),
            s.min,
            s.median,
            s.max,
            s.samples,
            bound
        );
    }
    for c in &r.checks {
        let verdict = match c.ok {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "skipped",
        };
        let _ = writeln!(out, "  check {:<32} {:<7} {}", c.name, verdict, c.detail);
    }
    out
}

/// The result line of one pass of one workload, as the benchmark contract
/// words it: exactly the metrics `BENCHMARK.json` lists for that pass. A
/// listed metric that does not apply to the workload (its layer is not on
/// the path) reads 0.
pub fn contract_line(r: &WorkloadReport, listed: Listed) -> String {
    let metrics = Value::Map(
        CATALOGUE
            .iter()
            .filter(|d| d.listed == listed)
            .map(|d| {
                let value = r
                    .samples
                    .iter()
                    .find(|s| s.def.name == d.name)
                    .map_or(0.0, |s| s.value);
                (d.name.to_string(), json!({"value": value, "unit": d.unit}))
            })
            .collect(),
    );
    let line = json!({
        "correct": r.correct(),
        "attempted": r.attempted.max(1),
        "failed": r.failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("the result serializes")
}
