//! CI gate over the committed benchmark artifacts: validates the schema of
//! the two `BENCH_*.json` files in the repo root (roc, steady) and fails
//! when a headline ratio regresses below its floor.
//!
//! The floors are deliberately far below the currently measured values —
//! they catch "the optimization silently fell off" (incremental GC
//! degenerating to the blocking drain), not run-to-run noise on a shared
//! CI host:
//!
//! * steady: incremental GC + erase-suspend cuts the foreground write p99
//!   by >= [`STEADY_P99_RATIO_MIN`]x vs blocking GC, with throughput no
//!   worse than [`STEADY_THROUGHPUT_MIN`]x and byte-identical contents.
//! * roc: the baseline detector still scores TPR >= [`ROC_PAPER_TPR_MIN`]
//!   on every paper ransomware class within the benign FPR cap, the
//!   evolved variant strictly beats the baseline's TPR on every
//!   adversarial family at the same cap (reaching at least
//!   [`ROC_ADV_EVOLVED_TPR_MIN`]), and never scores below the baseline
//!   anywhere (it is a monotone strengthening by construction).
//!
//! Usage:
//!   cargo run --release -p insider-bench --bin bench_check [-- repo_dir]
//!
//! Exits nonzero listing every violated check; prints one line per file on
//! success.

use serde_json::Value;
use std::path::Path;

const STEADY_P99_RATIO_MIN: f64 = 2.0;
const STEADY_THROUGHPUT_MIN: f64 = 0.9;
/// The paper reports FRR 0 % on known classes; anything below 1.0 means a
/// paper-class attack escaped at every cap-compliant threshold.
const ROC_PAPER_TPR_MIN: f64 = 1.0;
/// Floor for the evolved variant on the adversarial families (measured
/// 1.0; the floor leaves room for seed noise, not for a broken detector).
const ROC_ADV_EVOLVED_TPR_MIN: f64 = 0.9;
/// Benign false-positive-rate cap headline TPRs must be read at.
const ROC_FPR_CAP: f64 = 0.05;

const ROC_PAPER_FAMILIES: [&str; 3] = ["class-a-inplace", "class-b-outplace", "class-c-delete"];
const ROC_ADV_FAMILIES: [&str; 4] = ["throttled", "sleep-overwrite", "mimicry", "multi-process"];

/// A check failure: file + human-readable violation.
struct Violation(String, String);

/// One schema/headline check over a parsed artifact.
type Check = fn(&Value, &mut Vec<Violation>);

fn load(dir: &Path, name: &str, errors: &mut Vec<Violation>) -> Option<Value> {
    let path = dir.join(name);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            errors.push(Violation(name.into(), format!("unreadable: {e}")));
            return None;
        }
    };
    match serde_json::from_str(&raw) {
        Ok(v) => Some(v),
        Err(e) => {
            errors.push(Violation(name.into(), format!("invalid JSON: {e}")));
            None
        }
    }
}

/// Fetches a dotted path (`rows.3.mount_ms`); records a violation when the
/// path is missing.
fn get<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for part in path.split('.') {
        cur = match part.parse::<usize>() {
            Ok(i) => match cur {
                Value::Seq(items) => items.get(i)?,
                _ => return None,
            },
            Err(_) => cur.get(part)?,
        };
    }
    Some(cur)
}

// The vendored `serde_json::Value` is a bare content tree without the real
// crate's `as_*` accessors; these free functions fill that gap locally.

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn as_bool(v: &Value) -> Option<bool> {
    match *v {
        Value::Bool(b) => Some(b),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_array(v: &Value) -> Option<&Vec<Value>> {
    match v {
        Value::Seq(items) => Some(items),
        _ => None,
    }
}

fn need_f64(doc: &Value, path: &str, name: &str, errors: &mut Vec<Violation>) -> Option<f64> {
    match get(doc, path).and_then(as_f64) {
        Some(v) if v.is_finite() => Some(v),
        _ => {
            errors.push(Violation(
                name.into(),
                format!("missing or non-numeric `{path}`"),
            ));
            None
        }
    }
}

fn need_array<'a>(
    doc: &'a Value,
    path: &str,
    name: &str,
    errors: &mut Vec<Violation>,
) -> Option<&'a Vec<Value>> {
    match get(doc, path).and_then(as_array) {
        Some(a) if !a.is_empty() => Some(a),
        _ => {
            errors.push(Violation(
                name.into(),
                format!("missing or empty array `{path}`"),
            ));
            None
        }
    }
}

fn check_steady(doc: &Value, errors: &mut Vec<Violation>) {
    let name = "BENCH_steady.json";
    if let Some(ratio) = need_f64(doc, "report.p99_ratio", name, errors) {
        if ratio < STEADY_P99_RATIO_MIN {
            errors.push(Violation(
                name.into(),
                format!(
                    "incremental GC only cuts foreground p99 by {ratio:.2}x — floor is \
                     {STEADY_P99_RATIO_MIN}x"
                ),
            ));
        }
    }
    if let Some(tp) = need_f64(doc, "report.throughput_ratio", name, errors) {
        if tp < STEADY_THROUGHPUT_MIN {
            errors.push(Violation(
                name.into(),
                format!(
                    "incremental GC costs too much throughput ({tp:.3} of blocking) — floor \
                     is {STEADY_THROUGHPUT_MIN}"
                ),
            ));
        }
    }
    for arm in ["blocking", "incremental", "paced"] {
        need_f64(
            doc,
            &format!("report.{arm}.host.total.p99_ns"),
            name,
            errors,
        );
        need_f64(doc, &format!("report.{arm}.gc_pause.p99_ns"), name, errors);
        need_f64(
            doc,
            &format!("report.{arm}.churn_pages_per_sec"),
            name,
            errors,
        );
    }
    if get(doc, "report.contents_identical").and_then(as_bool) != Some(true) {
        errors.push(Violation(
            name.into(),
            "final drive contents diverged between GC arms".into(),
        ));
    }
}

fn check_roc(doc: &Value, errors: &mut Vec<Violation>) {
    let name = "BENCH_roc.json";
    let Some(curves) = need_array(doc, "report.curves", name, errors) else {
        return;
    };
    if need_f64(doc, "report.fpr_cap", name, errors).is_some_and(|cap| cap > ROC_FPR_CAP) {
        errors.push(Violation(
            name.into(),
            format!("artifact generated with an FPR cap looser than {ROC_FPR_CAP}"),
        ));
    }

    // Every curve carries a full, well-formed threshold sweep, and its
    // headline threshold genuinely meets the FPR cap.
    for (i, c) in curves.iter().enumerate() {
        let ctx = format!("{name} curves.{i}");
        let Some(points) = need_array(c, "points", &ctx, errors) else {
            continue;
        };
        for (j, p) in points.iter().enumerate() {
            for field in ["threshold", "tpr", "fpr"] {
                need_f64(p, field, &format!("{ctx}.points.{j}"), errors);
            }
        }
        if let Some(theta) = get(c, "threshold_at_cap").and_then(as_f64) {
            let fpr = points
                .iter()
                .find(|p| get(p, "threshold").and_then(as_f64) == Some(theta))
                .and_then(|p| get(p, "fpr"))
                .and_then(as_f64);
            match fpr {
                Some(f) if f <= ROC_FPR_CAP => {}
                _ => errors.push(Violation(
                    name.into(),
                    format!(
                        "curves.{i}: headline threshold {theta} exceeds the {ROC_FPR_CAP} FPR cap"
                    ),
                )),
            }
        }
    }

    let tpr_at_cap = |family: &str, variant: &str| -> Option<f64> {
        curves
            .iter()
            .find(|c| {
                get(c, "family").and_then(as_str) == Some(family)
                    && get(c, "variant").and_then(as_str) == Some(variant)
            })
            .and_then(|c| get(c, "tpr_at_cap"))
            .and_then(as_f64)
    };

    for family in ROC_PAPER_FAMILIES.into_iter().chain(ROC_ADV_FAMILIES) {
        let (Some(base), Some(evolved)) = (
            tpr_at_cap(family, "baseline"),
            tpr_at_cap(family, "evolved"),
        ) else {
            errors.push(Violation(
                name.into(),
                format!("missing baseline and/or evolved curve for `{family}`"),
            ));
            continue;
        };
        // The evolved tree is the baseline with a specialist grafted onto
        // its benign leaves; scoring below the baseline anywhere means the
        // composition broke.
        if evolved < base {
            errors.push(Violation(
                name.into(),
                format!("{family}: evolved TPR {evolved:.2} below baseline {base:.2}"),
            ));
        }
        if ROC_PAPER_FAMILIES.contains(&family) && base < ROC_PAPER_TPR_MIN {
            errors.push(Violation(
                name.into(),
                format!(
                    "{family}: baseline TPR {base:.2} below the {ROC_PAPER_TPR_MIN} floor \
                     within the FPR cap"
                ),
            ));
        }
        if ROC_ADV_FAMILIES.contains(&family) {
            if evolved <= base {
                errors.push(Violation(
                    name.into(),
                    format!(
                        "{family}: evolved TPR {evolved:.2} does not beat baseline {base:.2} \
                         at the FPR cap"
                    ),
                ));
            }
            if evolved < ROC_ADV_EVOLVED_TPR_MIN {
                errors.push(Violation(
                    name.into(),
                    format!(
                        "{family}: evolved TPR {evolved:.2} below the \
                         {ROC_ADV_EVOLVED_TPR_MIN} floor"
                    ),
                ));
            }
        }
    }
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let dir = Path::new(&dir);
    let mut errors = Vec::new();

    let checks: [(&str, Check); 2] = [
        ("BENCH_roc.json", check_roc),
        ("BENCH_steady.json", check_steady),
    ];
    for (name, check) in checks {
        let before = errors.len();
        if let Some(doc) = load(dir, name, &mut errors) {
            check(&doc, &mut errors);
        }
        if errors.len() == before {
            println!("ok   {name}");
        }
    }

    if !errors.is_empty() {
        eprintln!("\n{} benchmark check(s) failed:", errors.len());
        for Violation(file, what) in &errors {
            eprintln!("  {file}: {what}");
        }
        std::process::exit(1);
    }
    println!("all benchmark artifacts pass schema and headline-ratio checks");
}
