//! The metric catalogue and how each value is derived from repetitions.
//!
//! Every metric has a name, a unit, the clock it is read on and the
//! direction that is better. `wall` metrics are host time of the simulator
//! and are reported as the fastest repetition, with the median and the
//! slowest beside it: on the shared reference host, interference only ever
//! slows a repetition down, in bursts, and over 25 passes of six
//! repetitions the fastest one was 1.3 to 3 times steadier than the median
//! (README, "Noise"). `sim` (simulated device time) and `count` metrics
//! repeat exactly for a seed, which the run asserts. `host` marks the one
//! host-side gauge that is neither (peak resident memory).

use crate::replay::Replayed;
use crate::trace::{self, Layer, LayerTime, Span};
use crate::workloads::{Rep, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Sim,
    Count,
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where `BENCHMARK.json` lists a metric, which decides the pass that
/// prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listed {
    /// Defined and non-zero on every workload: printed by the untraced pass
    /// and held to `bound` by the driver.
    EndToEnd,
    /// Printed by the traced pass. Holds the per-layer metrics and the
    /// end-to-end metrics that are zero, undefined or pinned to a constant
    /// on some workload (`recover_ms`, `detect_latency_s`, `false_alarms`,
    /// `lost_files`, and the two p99 latencies, which sit exactly on the
    /// queue-depth plateau wherever writes arrive in long bursts).
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub listed: Listed,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; 0 means not at all.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> Def {
    Def {
        name,
        unit,
        clock,
        better: Better::Lower,
        listed: Listed::EndToEnd,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    Def {
        name,
        unit,
        clock,
        better: Better::Lower,
        listed: Listed::PerLayer,
        bound: None,
    }
}

const fn higher(def: Def) -> Def {
    Def {
        better: Better::Higher,
        ..def
    }
}

const fn bounded(def: Def, bound: f64) -> Def {
    Def {
        bound: Some(bound),
        ..def
    }
}

use Clock::{Count, Host, Sim, Wall};

/// Every metric the benchmark can print, in print order.
pub const CATALOGUE: &[Def] = &[
    // End to end, on every workload.
    //
    // The driver compares medians over runs that each use another seed, on
    // a shared 2-vCPU host, so these bounds are at least three times the
    // spread seen there where the driver's 25 % ceiling allows (README,
    // "Noise"): host time moves 3-11 % between 20-second windows, resident
    // memory 4 %, simulated values 0-2 % between seeds, the DRAM peak 4 %.
    // For one seed, `sim` and `count` values repeat exactly.
    e2e("setup_s", "s", Wall, 0.25),
    e2e("host_ns_per_block", "ns", Wall, 0.25),
    e2e("remount_ms", "ms", Wall, 0.25),
    e2e("peak_rss_mib", "MiB", Host, 0.13),
    e2e("sim_p50_us", "us", Sim, 0.01),
    e2e("sim_read_mean_us", "us", Sim, 0.03),
    e2e("sim_write_mean_us", "us", Sim, 0.04),
    higher(e2e("sim_mib_per_s", "MiB/s", Sim, 0.06)),
    e2e("write_amp", "x", Count, 0.05),
    e2e("dram_kib", "KiB", Count, 0.18),
    // End to end, where defined and informative.
    bounded(layer("sim_read_p99_us", "us", Sim), 0.10),
    bounded(layer("sim_write_p99_us", "us", Sim), 0.10),
    bounded(layer("recover_ms", "ms", Wall), 0.25),
    bounded(layer("detect_latency_s", "s", Sim), 0.05),
    bounded(layer("false_alarms", "count", Count), 0.10),
    bounded(layer("lost_files", "count", Count), 0.0),
    // Per layer.
    layer("fs.self_ns_per_block", "ns", Wall),
    layer("fs.devcalls_per_op", "count", Count),
    layer("fs.fsck_ms", "ms", Wall),
    layer("fs.fsck_repairs", "count", Count),
    layer("fs.mount_ms", "ms", Wall),
    layer("cache.self_ns_per_block", "ns", Wall),
    layer("cache.flush_ms", "ms", Wall),
    higher(layer("cache.hit_rate", "ratio", Count)),
    layer("cache.evictions", "count", Count),
    layer("cache.writebacks", "count", Count),
    layer("core.incl_ns_per_block", "ns", Wall),
    layer("core.entropy_ns_per_wreq", "ns", Wall),
    layer("core.residual_ns_per_block", "ns", Wall),
    higher(layer("core.closure_frac", "ratio", Wall)),
    layer("core.alarms", "count", Count),
    layer("core.pacing_stall_ms", "ms", Sim),
    layer("detect.ns_per_req", "ns", Wall),
    layer("detect.reqs", "count", Count),
    layer("detect.slices", "count", Count),
    layer("detect.positive_votes", "count", Count),
    layer("detect.table_peak_entries", "count", Count),
    layer("ftl.incl_ns_per_block", "ns", Wall),
    layer("ftl.self_ns_per_block", "ns", Wall),
    layer("ftl.gc_wall_ms", "ms", Wall),
    layer("ftl.gc_invocations", "count", Count),
    layer("ftl.gc_page_copies", "count", Count),
    layer("ftl.gc_protected_copies", "count", Count),
    layer("ftl.gc_erases", "count", Count),
    layer("ftl.gc_pause_p99_us", "us", Sim),
    layer("ftl.queue_peak_entries", "count", Count),
    layer("ftl.rollback_ns_per_entry", "ns", Wall),
    layer("ftl.rollback_restored", "count", Count),
    layer("ftl.remount_scanned", "count", Count),
    layer("nand.ns_per_cmd", "ns", Wall),
    layer("nand.reads", "count", Count),
    layer("nand.programs", "count", Count),
    layer("nand.erases", "count", Count),
    layer("nand.busy_serial_ms", "ms", Sim),
    layer("nand.makespan_ms", "ms", Sim),
    higher(layer("nand.die_util", "ratio", Sim)),
    layer("nand.erases_suspended", "count", Count),
    layer("nand.reads_promoted", "count", Count),
    layer("nand.gc_stalled_cmds", "count", Count),
    layer("nand.gc_stall_ms", "ms", Sim),
    layer("driver.gen_ns_per_block", "ns", Wall),
    layer("trace.overhead_frac", "ratio", Wall),
];

pub fn def(name: &str) -> &'static Def {
    CATALOGUE
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One measured metric. For a `wall` metric `value` is the best repetition
/// (`min`, or `max` where higher is better).
#[derive(Debug, Clone)]
pub struct Sample {
    pub def: &'static Def,
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// Values behind `value`: repetitions for a `wall` metric, latency
    /// samples or cycles for a `sim` one, 1 for a plain count.
    pub samples: u64,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Best, median and worst over one value per repetition.
fn over_reps(name: &str, mut values: Vec<f64>) -> Sample {
    assert!(!values.is_empty(), "{name}: no repetitions");
    let def = def(name);
    let median = median(&mut values);
    let (min, max) = (values[0], values[values.len() - 1]);
    Sample {
        def,
        value: match def.better {
            Better::Lower => min,
            Better::Higher => max,
        },
        min,
        median,
        max,
        samples: values.len() as u64,
    }
}

/// For bookkeeping ratios, where no repetition is the "best": the median.
fn typical(name: &str, values: Vec<f64>) -> Sample {
    let sample = over_reps(name, values);
    Sample {
        value: sample.median,
        ..sample
    }
}

/// A value that repeats exactly.
fn exact(name: &str, value: f64, samples: u64) -> Sample {
    Sample {
        def: def(name),
        value,
        min: value,
        median: value,
        max: value,
        samples,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload has, from its untraced
/// repetitions. `reps` agree on every `sim` and `count` value (the caller
/// checked).
pub fn end_to_end(reps: &[Rep], rss_mib: f64) -> Vec<Sample> {
    let first = &reps[0];
    let d = &first.device;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let us = |ns: u64| ns as f64 / 1e3;
    let moved_mib = (d.host_reads + d.host_writes) as f64 * crate::gen::PAGE as f64 / 1048576.0;
    vec![
        over_reps("setup_s", per_rep(&|r| r.setup_ns as f64 / 1e9)),
        over_reps(
            "host_ns_per_block",
            per_rep(&|r| ratio(r.timed_ns, r.blocks)),
        ),
        over_reps("remount_ms", per_rep(&|r| r.remount_ns as f64 / 1e6)),
        exact("peak_rss_mib", rss_mib, 1),
        exact("sim_p50_us", us(d.host_p50_ns), d.host_samples),
        exact("sim_read_mean_us", us(d.read_mean_ns), d.read_samples),
        exact("sim_write_mean_us", us(d.write_mean_ns), d.write_samples),
        exact("sim_mib_per_s", moved_mib / (d.makespan_ns as f64 / 1e9), 1),
        exact("write_amp", ratio(d.nand_programs, d.host_writes), 1),
        exact("dram_kib", first.dram_peak_bytes as f64 / 1024.0, 1),
    ]
}

/// The end-to-end metrics that are zero, undefined or pinned to a constant
/// on some workload, so that the driver cannot hold them to a bound.
pub fn end_to_end_where_defined(workload: Workload, reps: &[Rep]) -> Vec<Sample> {
    let first = &reps[0];
    let d = &first.device;
    let mut out = vec![
        exact(
            "sim_read_p99_us",
            d.read_p99_ns as f64 / 1e3,
            d.read_samples,
        ),
        exact(
            "sim_write_p99_us",
            d.write_p99_ns as f64 / 1e3,
            d.write_samples,
        ),
        exact("false_alarms", first.false_alarms as f64, 1),
    ];
    if workload == Workload::FsAttackRecover {
        let cycles = first.detect_latency_us.len().max(1) as f64;
        out.push(over_reps(
            "recover_ms",
            reps.iter()
                .map(|r| r.recover_ns.iter().sum::<u64>() as f64 / 1e6 / cycles)
                .collect(),
        ));
        let lat: Vec<f64> = first
            .detect_latency_us
            .iter()
            .map(|us| *us as f64 / 1e6)
            .collect();
        out.push(Sample {
            def: def("detect_latency_s"),
            value: lat.iter().sum::<f64>() / cycles,
            min: lat.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(&mut lat.clone()),
            max: lat.iter().copied().fold(0.0, f64::max),
            samples: lat.len() as u64,
        });
        out.push(exact("lost_files", first.lost_files as f64, 1));
    }
    out
}

/// What the traced pass keeps of one traced repetition.
#[derive(Debug, Clone)]
pub struct Traced {
    pub rep: Rep,
    pub fs: LayerTime,
    pub fsck: LayerTime,
    pub mount: LayerTime,
    pub cache: LayerTime,
    pub flush: LayerTime,
    pub core: LayerTime,
    /// Cache-layer spans caused by a filesystem span.
    pub fs_devcalls: u64,
    pub replayed: Replayed,
}

impl Traced {
    pub fn new(rep: Rep, spans: &[Span], replayed: Replayed) -> Self {
        let caused_by_fs = spans
            .iter()
            .filter(|s| s.layer == Layer::Cache && s.parent != u32::MAX)
            .count() as u64;
        let times = trace::layer_times(spans);
        Traced {
            rep,
            fs: times[Layer::Fs as usize],
            fsck: times[Layer::Fsck as usize],
            mount: times[Layer::Mount as usize],
            cache: times[Layer::Cache as usize],
            flush: times[Layer::Flush as usize],
            core: times[Layer::Core as usize],
            fs_devcalls: caused_by_fs,
            replayed,
        }
    }

    pub fn fs_self_ns(&self) -> u64 {
        self.fs.self_ns + self.fsck.self_ns + self.mount.self_ns
    }

    pub fn cache_self_ns(&self) -> u64 {
        self.cache.self_ns + self.flush.self_ns
    }

    /// Share of the device's inclusive time the standalone replays account
    /// for.
    pub fn closure_frac(&self) -> f64 {
        let r = &self.replayed;
        ratio(r.detect_ns + r.entropy_ns + r.ftl_ns, self.core.incl_ns)
    }
}

/// The per-layer metrics. `plain` are untraced repetitions of the same
/// inputs, run in the same process.
pub fn per_layer(workload: Workload, plain: &[Rep], traced: &[Traced]) -> Vec<Sample> {
    let first = &traced[0].rep;
    let d = &first.device;
    let blocks = first.blocks;
    let per_rep = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let per_block = |ns: u64| ratio(ns, blocks);
    let count = |name: &str, v: u64| exact(name, v as f64, 1);
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut out = Vec::new();

    if workload.has_fs() {
        out.push(over_reps(
            "fs.self_ns_per_block",
            per_rep(&|t| per_block(t.fs_self_ns())),
        ));
        out.push(exact(
            "fs.devcalls_per_op",
            ratio(traced[0].fs_devcalls, traced[0].fs.spans),
            traced[0].fs.spans,
        ));
        if workload == Workload::FsAttackRecover {
            let cycles = first.recover_ns.len().max(1) as f64;
            out.push(over_reps(
                "fs.fsck_ms",
                per_rep(&|t| ms(t.fsck.incl_ns) / cycles),
            ));
            out.push(count("fs.fsck_repairs", first.fsck_repairs));
            out.push(over_reps(
                "fs.mount_ms",
                per_rep(&|t| ms(t.mount.incl_ns) / cycles),
            ));
        }
        out.push(over_reps(
            "cache.self_ns_per_block",
            per_rep(&|t| per_block(t.cache_self_ns())),
        ));
        out.push(over_reps(
            "cache.flush_ms",
            per_rep(&|t| ms(t.flush.incl_ns)),
        ));
        let cache = first.cache.expect("filesystem workloads count the cache");
        out.push(exact(
            "cache.hit_rate",
            ratio(cache.hits, cache.hits + cache.misses),
            cache.hits + cache.misses,
        ));
        out.push(count("cache.evictions", cache.evictions));
        out.push(count("cache.writebacks", cache.writebacks));
    }

    out.push(over_reps(
        "core.incl_ns_per_block",
        per_rep(&|t| per_block(t.core.incl_ns)),
    ));
    out.push(over_reps(
        "core.entropy_ns_per_wreq",
        per_rep(&|t| ratio(t.replayed.entropy_ns, t.replayed.write_requests)),
    ));
    out.push(typical(
        "core.residual_ns_per_block",
        per_rep(&|t| {
            let r = &t.replayed;
            (t.core.incl_ns as f64 - (r.detect_ns + r.entropy_ns + r.ftl_ns) as f64) / blocks as f64
        }),
    ));
    out.push(typical("core.closure_frac", per_rep(&|t| t.closure_frac())));
    out.push(count("core.alarms", first.alarms));
    out.push(exact(
        "core.pacing_stall_ms",
        ms(d.pacing_stall_ns),
        d.pacing_stalls,
    ));

    let r = &traced[0].replayed;
    out.push(over_reps(
        "detect.ns_per_req",
        per_rep(&|t| ratio(t.replayed.detect_ns, t.replayed.requests)),
    ));
    out.push(count("detect.reqs", r.requests));
    out.push(count("detect.slices", r.detect_slices));
    out.push(count("detect.positive_votes", r.detect_positive_votes));
    out.push(count(
        "detect.table_peak_entries",
        r.detect_table_peak_entries,
    ));

    out.push(over_reps(
        "ftl.incl_ns_per_block",
        per_rep(&|t| per_block(t.replayed.ftl_ns)),
    ));
    out.push(over_reps(
        "ftl.self_ns_per_block",
        per_rep(&|t| per_block(t.replayed.ftl_ns.saturating_sub(t.replayed.nand_ns))),
    ));
    out.push(over_reps(
        "ftl.gc_wall_ms",
        per_rep(&|t| ms(t.rep.gc_wall_ns)),
    ));
    out.push(count("ftl.gc_invocations", d.gc_invocations));
    out.push(count("ftl.gc_page_copies", d.gc_page_copies));
    out.push(count("ftl.gc_protected_copies", d.gc_protected_copies));
    out.push(count("ftl.gc_erases", d.gc_erases));
    out.push(exact(
        "ftl.gc_pause_p99_us",
        d.gc_pause_p99_ns as f64 / 1e3,
        d.gc_invocations,
    ));
    out.push(count("ftl.queue_peak_entries", first.queue_peak_entries));
    if workload == Workload::FsAttackRecover {
        out.push(over_reps(
            "ftl.rollback_ns_per_entry",
            per_rep(&|t| ratio(t.rep.rollback_ns, t.rep.rollback_restored)),
        ));
        out.push(count("ftl.rollback_restored", first.rollback_restored));
    }
    out.push(count("ftl.remount_scanned", d.mount_scanned));

    out.push(over_reps(
        "nand.ns_per_cmd",
        per_rep(&|t| ratio(t.replayed.nand_ns, t.replayed.nand_cmds)),
    ));
    out.push(count("nand.reads", d.nand_reads));
    out.push(count("nand.programs", d.nand_programs));
    out.push(count("nand.erases", d.nand_erases));
    out.push(exact("nand.busy_serial_ms", ms(d.busy_serial_ns), 1));
    out.push(exact("nand.makespan_ms", ms(d.makespan_ns), 1));
    out.push(exact(
        "nand.die_util",
        ratio(d.busy_serial_ns, d.dies * d.makespan_ns),
        d.dies,
    ));
    out.push(count("nand.erases_suspended", d.erases_suspended));
    out.push(count("nand.reads_promoted", d.reads_promoted));
    out.push(count("nand.gc_stalled_cmds", d.gc_stalled_cmds));
    out.push(exact(
        "nand.gc_stall_ms",
        ms(d.gc_stall_ns),
        d.gc_stalled_cmds,
    ));

    out.push(over_reps(
        "driver.gen_ns_per_block",
        plain.iter().map(|r| ratio(r.driver_ns, r.blocks)).collect(),
    ));
    // Fastest traced repetition against fastest untraced one.
    let fastest = |ns: &mut dyn Iterator<Item = u64>| ns.min().unwrap_or(0) as f64;
    let plain_ns = fastest(&mut plain.iter().map(|r| r.timed_ns));
    let traced_ns = fastest(&mut traced.iter().map(|t| t.rep.timed_ns));
    out.push(over_reps(
        "trace.overhead_frac",
        vec![traced_ns / plain_ns - 1.0],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in CATALOGUE {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            if d.listed == Listed::EndToEnd {
                let bound = d.bound.expect("end-to-end metrics carry a bound");
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        let setup = def("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
