//! Self-tests of the benchmark, at a twentieth of full scale.
//!
//! They check the benchmark, not the product: that inputs depend on the
//! seed and nothing else, that tracing does not change what the stack does,
//! that a wrong byte is counted, and that `BENCHMARK.json` and the metric
//! catalogue agree. `cargo test --release` is several times faster than the
//! debug profile, which also runs the product's debug-only oracles.

use insider_benchmark::metrics::{Listed, CATALOGUE};
use insider_benchmark::report::{self, why};
use insider_benchmark::trace::Tracer;
use insider_benchmark::workloads::{run_rep, Ctx, Rep, Workload};
use insider_benchmark::{run_workload, Options};
use serde_json::Value;

const DIV: u64 = 20;

fn rep(workload: Workload, seed: u64, tracer: Option<&Tracer>, corrupt_shadow: bool) -> Rep {
    let ctx = Ctx {
        seed,
        div: DIV,
        tracer,
        corrupt_shadow,
    };
    run_rep(workload, &ctx).expect("the repetition runs to its end")
}

/// Same seed: same stream and same simulated statistics. Another seed:
/// another stream. Shims in place: the device and the cache end in the
/// state they end in without them.
fn repeatable_and_shim_transparent(workload: Workload) {
    let a = rep(workload, 5, None, false);
    let b = rep(workload, 5, None, false);
    assert_eq!(a.failed, 0, "{} failed operations", a.failed);
    assert_eq!(a.stream_hash, b.stream_hash);
    assert_eq!(a.sim_view(), b.sim_view());

    let other = rep(workload, 6, None, false);
    assert_ne!(a.stream_hash, other.stream_hash);
    assert_eq!(other.failed, 0);

    let tracer = Tracer::new();
    let traced = rep(workload, 5, Some(&tracer), false);
    assert_eq!(a.sim_view(), traced.sim_view());
    let (spans, stream) = tracer.take();
    assert!(!spans.is_empty() && !stream.is_empty());
    assert!(stream.iter().any(|c| c.timed) && stream.iter().any(|c| !c.timed));
}

#[test]
fn fs_office_cached_is_repeatable_and_shim_transparent() {
    repeatable_and_shim_transparent(Workload::FsOfficeCached);
}

#[test]
fn fs_attack_recover_is_repeatable_and_shim_transparent() {
    repeatable_and_shim_transparent(Workload::FsAttackRecover);
}

#[test]
fn dev_churn_gc_is_repeatable_and_shim_transparent() {
    repeatable_and_shim_transparent(Workload::DevChurnGc);
}

#[test]
fn dev_read_mostly_is_repeatable_and_shim_transparent() {
    repeatable_and_shim_transparent(Workload::DevReadMostly);
}

#[test]
fn a_corrupted_shadow_entry_is_a_failed_operation_and_a_lost_file() {
    let attack = rep(Workload::FsAttackRecover, 5, None, true);
    assert!(attack.failed > 0);
    assert!(attack.lost_files > 0);
    // Every cycle still alarmed and recovered: only the one file is wrong.
    assert_eq!(attack.lost_files, attack.detect_latency_us.len() as u64);

    for workload in [Workload::FsOfficeCached, Workload::DevChurnGc] {
        let run = rep(workload, 5, None, true);
        assert!(run.failed > 0, "{}", workload.name());
    }
}

/// The predicates that hold at any scale; `ftl.gc_invocations > 0` on
/// `dev-churn-gc` needs the full request count and is asserted by every
/// full run instead.
#[test]
fn workloads_have_the_properties_they_exist_for() {
    let office = rep(Workload::FsOfficeCached, 9, None, false);
    let c = office.cache.expect("fs workloads count the cache");
    assert!(c.hits as f64 / (c.hits + c.misses) as f64 >= 0.99);

    let attack = rep(Workload::FsAttackRecover, 9, None, false);
    let c = attack.cache.expect("fs workloads count the cache");
    assert!(c.hits as f64 / (c.hits + c.misses) as f64 <= 0.8);
    assert!(c.evictions > 0);
    assert_eq!(attack.alarms - attack.false_alarms, 2, "both cycles alarm");
    assert_eq!(attack.lost_files, 0);
    assert!(attack.rollback_restored > 0);
    // Detection inside the 10 s protection window.
    assert!(attack.detect_latency_us.iter().all(|us| *us < 10_000_000));

    let read = rep(Workload::DevReadMostly, 9, None, false);
    assert_eq!(read.device.gc_invocations, 0);
    assert!(read.cache.is_none());
    assert!(read.device.host_reads > 5 * read.device.host_writes);

    let churn = rep(Workload::DevChurnGc, 9, None, false);
    assert!(churn.cache.is_none());
    assert!(churn.device.host_writes > churn.device.host_reads / 2);
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let Some(Value::Seq(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no list {key}");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Value::Str(name)) => name.clone(),
            _ => panic!("an entry of {key} has no name"),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_catalogue_defines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

    let listed = |which: Listed| -> Vec<String> {
        CATALOGUE
            .iter()
            .filter(|d| d.listed == which)
            .map(|d| d.name.to_string())
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), listed(Listed::EndToEnd));
    assert_eq!(names(&doc, "per_layer"), listed(Listed::PerLayer));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);

    let Some(Value::Seq(items)) = doc.get("workloads") else {
        unreachable!()
    };
    for (item, w) in items.iter().zip(Workload::ALL) {
        assert_eq!(item.get("why"), Some(&Value::Str(why(w).to_string())));
    }
    let Some(Value::Seq(items)) = doc.get("end_to_end") else {
        unreachable!()
    };
    for (item, d) in items
        .iter()
        .zip(CATALOGUE.iter().filter(|d| d.listed == Listed::EndToEnd))
    {
        assert_eq!(item.get("unit"), Some(&Value::Str(d.unit.to_string())));
        assert_eq!(
            item.get("better"),
            Some(&Value::Str(d.better.name().to_string()))
        );
        assert_eq!(item.get("bound"), Some(&Value::F64(d.bound.unwrap())));
    }
}

#[test]
fn each_pass_prints_exactly_the_metrics_listed_for_it() {
    for (trace, listed) in [(false, Listed::EndToEnd), (true, Listed::PerLayer)] {
        let opts = Options {
            trace: Some(trace),
            quick: true,
            seed: 3,
            ..Options::default()
        };
        let report = run_workload(Workload::DevReadMostly, &opts).unwrap();
        assert!(report.correct(), "{}", report::table(&report));
        let line: Value = serde_json::from_str(&report::contract_line(&report, listed)).unwrap();
        let Value::Map(keys) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Map(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = CATALOGUE
            .iter()
            .filter(|d| d.listed == listed)
            .map(|d| d.name)
            .collect();
        assert_eq!(printed, expected);
        if listed == Listed::EndToEnd {
            for (name, metric) in metrics {
                assert!(
                    !matches!(metric.get("value"), Some(Value::F64(v)) if *v == 0.0),
                    "{name} reads 0"
                );
            }
        }
    }
}
