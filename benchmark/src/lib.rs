//! End-to-end benchmark for the MiniExt → cache → SsdInsider → FTL → NAND
//! stack, with a per-layer cost budget. See `README.md`.
//!
//! One process, one thread, one client. A *pass* over a workload repeats it
//! on a fresh stack with the same seed until the pass's time budget is
//! spent; a `wall` metric is the fastest of those repetitions (median and
//! slowest beside it), and every `sim`/`count` value must be identical
//! across them. The untraced pass
//! gives the end-to-end metrics; the traced pass adds timing shims and a
//! layer-by-layer replay for the per-layer numbers.

pub mod gen;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod stack;
pub mod trace;
pub mod workloads;

use metrics::{Listed, Traced};
use report::{Check, Provenance, WorkloadReport};
use stack::Res;
use std::time::Instant;
use trace::Tracer;
use workloads::{run_rep, Ctx, Rep, Workload};

/// Fewest untraced repetitions behind a `wall` metric.
const MIN_REPS: usize = 3;
/// Operation-count divisor of `--quick`.
const QUICK_DIV: u64 = 10;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Time budget of one pass over one workload.
    pub seconds: f64,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass only;
    /// `None`: both.
    pub trace: Option<bool>,
    /// Operation counts ÷ 10 and one repetition per pass.
    pub quick: bool,
    /// Where to write the full JSON report.
    pub json: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            seconds: 20.0,
            trace: None,
            quick: false,
            json: None,
        }
    }
}

pub const USAGE: &str = "usage: insider-benchmark --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--json PATH]
  workloads: fs-office-cached fs-attack-recover dev-churn-gc dev-read-mostly
  (one per process, so that none inherits another's memory; run.sh without --workload runs all four)
  --trace 0 runs the untraced pass only, --trace 1 the traced pass only (default: both)
  with --trace, the last line of standard output is the driver's result line";

pub fn parse_args(args: &[String]) -> Result<(Workload, Options), String> {
    let mut opts = Options::default();
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
                workload = Some(w);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => opts.quick = true,
            "--json" => opts.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok((workload, opts))
}

impl Rep {
    /// This repetition with every host-time field cleared: what must be
    /// identical across repetitions of the same inputs, traced or not.
    pub fn sim_view(&self) -> Rep {
        Rep {
            setup_ns: 0,
            timed_ns: 0,
            driver_ns: 0,
            remount_ns: 0,
            recover_ns: Vec::new(),
            rollback_ns: 0,
            gc_wall_ns: 0,
            ..self.clone()
        }
    }
}

/// Whether a pass should stop here: it ends at the boundary between
/// iterations that is nearest to its budget.
fn budget_spent(pass: Instant, iteration: Instant, seconds: f64) -> bool {
    pass.elapsed().as_secs_f64() + iteration.elapsed().as_secs_f64() / 2.0 >= seconds
}

fn check(name: &'static str, ok: Option<bool>, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Properties each workload exists to have; a run that lacks them is
/// measuring something else. One needs the full operation count and is
/// skipped (`None`) below it.
fn workload_checks(workload: Workload, rep: &Rep, full_scale: bool) -> Vec<Check> {
    let at_scale = |ok: bool| full_scale.then_some(ok);
    let mut out = Vec::new();
    match (workload, rep.cache) {
        (Workload::FsOfficeCached, Some(c)) => {
            let rate = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
            out.push(check(
                "cache.hit_rate >= 0.99",
                Some(rate >= 0.99),
                format!("{rate:.4}"),
            ));
        }
        (Workload::FsAttackRecover, Some(c)) => {
            let rate = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
            out.push(check(
                "cache.hit_rate <= 0.8",
                Some(rate <= 0.8),
                format!("{rate:.4}"),
            ));
        }
        (Workload::DevChurnGc, None) => out.push(check(
            "ftl.gc_invocations > 0",
            at_scale(rep.device.gc_invocations > 0),
            rep.device.gc_invocations.to_string(),
        )),
        (Workload::DevReadMostly, None) => out.push(check(
            "ftl.gc_invocations = 0",
            Some(rep.device.gc_invocations == 0),
            rep.device.gc_invocations.to_string(),
        )),
        (w, cache) => out.push(check(
            "fs and cache layers only on fs workloads",
            Some(false),
            format!("{} reported cache counters: {}", w.name(), cache.is_some()),
        )),
    }
    out
}

/// Properties of the trace itself.
fn trace_checks(workload: Workload, traced: &Traced, full_scale: bool) -> Vec<Check> {
    let at_scale = |ok: bool| full_scale.then_some(ok);
    if workload.has_fs() {
        let parts = traced.fs_self_ns() + traced.cache_self_ns() + traced.core.incl_ns;
        let gap = (parts as f64 - traced.rep.timed_ns as f64).abs() / traced.rep.timed_ns as f64;
        vec![check(
            "fs.self + cache.self + core.incl = traced total (2%)",
            Some(gap <= 0.02),
            format!("gap {:.4}", gap),
        )]
    } else {
        // Quiet runs read 0.86-1.08. The replays run seconds after the
        // traced repetition, on a host whose speed moves by a third between
        // such windows (1.34 was seen), so the asserted range is wide
        // enough that only a structural break leaves it: the dominant
        // layer missing from the replay, or counted twice.
        let frac = traced.closure_frac();
        vec![check(
            "core.closure_frac in [0.4, 2.0]",
            at_scale((0.4..=2.0).contains(&frac)),
            format!("{frac:.3}"),
        )]
    }
}

/// Runs the requested passes over one workload.
pub fn run_workload(workload: Workload, opts: &Options) -> Res<WorkloadReport> {
    let ctx = Ctx {
        seed: opts.seed,
        div: if opts.quick { QUICK_DIV } else { 1 },
        tracer: None,
        corrupt_shadow: false,
    };
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut rss_mib = 0.0;

    if opts.trace != Some(true) {
        let pass = Instant::now();
        loop {
            let iteration = Instant::now();
            plain.push(run_rep(workload, &ctx)?);
            if plain.len() == 1 {
                // The high-water mark of one repetition: how many more fit
                // in the time budget must not move the metric.
                rss_mib = metrics::peak_rss_mib();
            }
            let enough = plain.len() >= MIN_REPS && budget_spent(pass, iteration, opts.seconds);
            if opts.quick || enough {
                break;
            }
        }
    }
    let untraced_reps = plain.len();

    if opts.trace != Some(false) {
        let pass = Instant::now();
        loop {
            let iteration = Instant::now();
            // An untraced companion in the same process state, so tracing
            // overhead is a like-for-like difference.
            plain.push(run_rep(workload, &ctx)?);
            let tracer = Tracer::new();
            let rep = run_rep(
                workload,
                &Ctx {
                    tracer: Some(&tracer),
                    ..ctx
                },
            )?;
            let (spans, stream) = tracer.take();
            let replayed = replay::replay(&stream)?;
            traced.push(Traced::new(rep, &spans, replayed));
            if opts.quick || budget_spent(pass, iteration, opts.seconds) {
                break;
            }
        }
    }

    let first = plain[0].sim_view();
    let all_reps = plain.iter().chain(traced.iter().map(|t| &t.rep));
    let differing = all_reps.clone().filter(|r| r.sim_view() != first).count();
    let mut checks = vec![check(
        "sim and count values identical across repetitions",
        Some(differing == 0),
        format!("{differing} of {} differ", plain.len() + traced.len()),
    )];
    checks.extend(workload_checks(workload, &plain[0], !opts.quick));
    if let Some(t) = traced.first() {
        checks.extend(trace_checks(workload, t, !opts.quick));
    }

    // The untraced pass prints every end-to-end metric; the traced pass on
    // its own prints what `BENCHMARK.json` lists under `per_layer`.
    let mut samples = Vec::new();
    if opts.trace != Some(true) {
        samples.extend(metrics::end_to_end(&plain[..untraced_reps], rss_mib));
    }
    samples.extend(metrics::end_to_end_where_defined(workload, &plain));
    if !traced.is_empty() {
        samples.extend(metrics::per_layer(workload, &plain, &traced));
    }

    Ok(WorkloadReport {
        workload,
        reps: plain.len(),
        traced_reps: traced.len(),
        attempted: all_reps.clone().map(|r| r.attempted).sum(),
        failed: all_reps.map(|r| r.failed).sum(),
        stream_hash: plain[0].stream_hash,
        op_counts: plain[0].op_counts.clone(),
        checks,
        samples,
    })
}

/// Runs the benchmark as the command line asks; returns the exit code.
pub fn run(workload: Workload, opts: &Options) -> i32 {
    let report = match run_workload(workload, opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: the run could not continue: {e}", workload.name());
            return 1;
        }
    };
    if let Some(path) = &opts.json {
        let provenance = Provenance {
            seed: opts.seed,
            seconds: opts.seconds,
            quick: opts.quick,
        };
        if let Err(e) = std::fs::write(path, report::full_json(&provenance, &report) + "\n") {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    // One pass: the driver's call. Its result line must be the last line on
    // standard output, so the table goes to standard error.
    let Some(traced) = opts.trace else {
        print!("{}", report::table(&report));
        return if report.correct() { 0 } else { 1 };
    };
    eprint!("{}", report::table(&report));
    let listed = if traced {
        Listed::PerLayer
    } else {
        Listed::EndToEnd
    };
    println!("{}", report::contract_line(&report, listed));
    0
}
