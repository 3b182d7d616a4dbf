//! Steady-state foreground-latency benchmark (`bench_steady`, the
//! `steady_smoke` tier-1 test).
//!
//! The scenario: an aged drive at ~90 % utilization under a sustained hot
//! overwrite churn, run three times with identical operation streams —
//!
//! * **blocking** — the classic collector: a host write that trips the
//!   reserve drains whole victim blocks (migrations + a 3 ms erase) before
//!   it is serviced, so the foreground tail inherits the full GC burst;
//! * **incremental** — the resumable [`GcJob`] engine plus erase-suspend:
//!   collection starts early at the low watermark and each write pumps a
//!   bounded migration budget, while host commands preempt straddling
//!   erases on their die;
//! * **paced** — incremental plus the write-pacing token bucket, which
//!   converts reserve pressure (`gc_debt`) into small admission stalls so
//!   bursts cannot outrun the collector into a stop-the-world fallback.
//!
//! All three arms write byte-identical payload streams, so after a final
//! [`SsdInsider::gc_quiesce`] the full logical span must compare equal —
//! the perf experiment doubles as a correctness differential. Foreground
//! percentiles come from the out-of-order scheduler's host-only histograms
//! (GC traffic excluded); GC pause distributions come from the per-entry
//! device-makespan histogram both collectors feed.
//!
//! [`GcJob`]: insider_ftl::FtlConfig::incremental_gc

use bytes::Bytes;
use insider_detect::{DecisionTree, DetectorConfig};
use insider_ftl::{FtlConfig, FtlStats};
use insider_nand::{Geometry, KindLatency, LatencySnapshot, Lba, NandStats, SimTime};
use serde::Serialize;
use ssd_insider::{InsiderConfig, SsdInsider};

/// Which GC/pacing feature bundle an arm runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyArm {
    /// Blocking collector, no erase-suspend, no pacing.
    Blocking,
    /// Incremental engine + erase-suspend.
    Incremental,
    /// Incremental engine + erase-suspend + write pacing.
    Paced,
}

impl SteadyArm {
    /// Stable label used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SteadyArm::Blocking => "blocking",
            SteadyArm::Incremental => "incremental",
            SteadyArm::Paced => "paced",
        }
    }
}

/// Tuning knobs for the steady-state scenario.
#[derive(Debug, Clone)]
pub struct SteadyParams {
    /// Device geometry (kept small-paged so the data set stays in MiB).
    pub geometry: Geometry,
    /// Fraction of the logical span cold-filled before churn begins.
    pub fill_fraction: f64,
    /// Logical span (pages) the churn phase overwrites round-robin.
    pub hot_span: u64,
    /// Number of churn overwrites.
    pub churn_writes: u64,
    /// Issue one foreground read per this many churn writes (0 disables).
    pub read_every: u64,
    /// Simulated inter-arrival time of fill writes (slow enough that the
    /// fill phase queues nothing and collects nothing).
    pub fill_interarrival: SimTime,
    /// Simulated inter-arrival time of churn operations.
    pub interarrival: SimTime,
    /// Protection window (the detector window is derived from this, ten
    /// slices of a tenth each, so `InsiderConfig::from_parts` does not
    /// widen it back to the 10 s default).
    pub window: SimTime,
    /// `FtlConfig::gc_low_water_extra` for the incremental arms.
    pub gc_low_water_extra: u32,
    /// `FtlConfig::gc_step_pages` for the incremental arms.
    pub gc_step_pages: u32,
    /// Token-bucket rate (pages/sec of simulated time) for the paced arm.
    pub pacing_rate: u64,
    /// Token-bucket burst capacity (pages) for the paced arm.
    pub pacing_burst: u64,
}

impl SteadyParams {
    /// Full-size run for the `bench_steady` binary (release builds).
    pub fn full() -> Self {
        SteadyParams {
            geometry: Geometry::builder()
                .channels(2)
                .chips_per_channel(2)
                .blocks_per_chip(96)
                .pages_per_block(32)
                .page_size(512)
                .build(),
            fill_fraction: 0.9,
            hot_span: 2048,
            churn_writes: 24_000,
            read_every: 2,
            fill_interarrival: SimTime::from_micros(400),
            interarrival: SimTime::from_micros(600),
            window: SimTime::from_millis(100),
            gc_low_water_extra: 8,
            gc_step_pages: 2,
            pacing_rate: 3_000,
            pacing_burst: 64,
        }
    }

    /// Bounded configuration for the tier-1 `steady_smoke` test: a small
    /// drive and a few thousand operations, fast even in debug builds.
    pub fn smoke() -> Self {
        SteadyParams {
            geometry: Geometry::builder()
                .blocks_per_chip(64)
                .pages_per_block(16)
                .page_size(64)
                .build(),
            fill_fraction: 0.9,
            hot_span: 192,
            churn_writes: 3_000,
            read_every: 4,
            fill_interarrival: SimTime::from_micros(150),
            interarrival: SimTime::from_micros(400),
            window: SimTime::from_millis(40),
            gc_low_water_extra: 2,
            gc_step_pages: 4,
            pacing_rate: 3_000,
            pacing_burst: 32,
        }
    }

    /// Applies `STEADY_WRITES`, `STEADY_HOT_SPAN`, `STEADY_INTERARRIVAL_US`
    /// and `STEADY_WINDOW_MS` environment overrides.
    pub fn from_env(mut self) -> Self {
        let get = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        if let Some(writes) = get("STEADY_WRITES") {
            self.churn_writes = writes;
        }
        if let Some(span) = get("STEADY_HOT_SPAN") {
            self.hot_span = span.max(1);
        }
        if let Some(us) = get("STEADY_INTERARRIVAL_US") {
            self.interarrival = SimTime::from_micros(us.max(1));
        }
        if let Some(ms) = get("STEADY_WINDOW_MS") {
            self.window = SimTime::from_millis(ms.max(1));
        }
        self
    }

    /// Device configuration for one arm. All arms share the out-of-order
    /// scheduler and over-provisioning; only the GC engine, erase-suspend
    /// and pacing knobs differ.
    pub fn arm_config(&self, arm: SteadyArm) -> InsiderConfig {
        let mut ftl = FtlConfig::new(self.geometry)
            .over_provisioning(0.25)
            .protection_window(self.window);
        if arm != SteadyArm::Blocking {
            ftl = ftl
                .incremental_gc(true)
                .gc_low_water_extra(self.gc_low_water_extra)
                .gc_step_pages(self.gc_step_pages)
                .erase_suspend(true);
        }
        if arm == SteadyArm::Paced {
            ftl = ftl
                .write_pacing(self.pacing_rate)
                .write_pacing_burst(self.pacing_burst);
        }
        // Ten slices of a tenth of the protection window each, so the
        // derived detection window equals `self.window` exactly and
        // `InsiderConfig::from_parts` leaves the FTL window alone.
        let slice = SimTime::from_micros((self.window.as_micros() / 10).max(1));
        let detector = DetectorConfig {
            slice,
            window_slices: 10,
            ..DetectorConfig::default()
        };
        InsiderConfig::from_parts(ftl, detector)
    }
}

/// Everything measured from one arm's run.
#[derive(Debug, Clone, Serialize)]
pub struct SteadyArmOutcome {
    /// Arm label (`blocking` / `incremental` / `paced`).
    pub arm: &'static str,
    /// Host-only completion-latency percentiles (GC traffic excluded).
    pub host: LatencySnapshot,
    /// Per-GC-entry device-makespan pause distribution.
    pub gc_pause: KindLatency,
    /// Device busy makespan of the churn phase (fill excluded).
    pub churn_makespan_ns: u64,
    /// Churn host pages per second of device busy time.
    pub churn_pages_per_sec: f64,
    /// FTL counters at the end of the run (before the final quiesce).
    pub ftl: FtlStats,
    /// NAND counters (includes `erases_suspended` / `suspend_overhead_ns`).
    pub nand: NandStats,
    /// Write-pacing admission stalls (zero unless pacing is armed).
    pub pacing_stalls: u64,
    /// Total simulated time spent in pacing stalls.
    pub pacing_stall_ns: u64,
    /// Reserve-pressure debt when churn ended.
    pub final_gc_debt: f64,
}

/// The three arms plus the blocking-vs-incremental comparison block.
#[derive(Debug, Clone, Serialize)]
pub struct SteadyReport {
    /// Logical pages exposed by the device.
    pub logical_pages: u64,
    /// Cold-fill writes issued before churn.
    pub fill_writes: u64,
    /// Churn overwrites issued per arm.
    pub churn_writes: u64,
    /// Logical span the churn overwrote.
    pub hot_span: u64,
    /// Classic blocking collector.
    pub blocking: SteadyArmOutcome,
    /// Incremental engine + erase-suspend.
    pub incremental: SteadyArmOutcome,
    /// Incremental + erase-suspend + write pacing.
    pub paced: SteadyArmOutcome,
    /// Blocking host-total p99 over incremental host-total p99 (the
    /// headline: how much foreground tail the incremental engine removed).
    pub p99_ratio: f64,
    /// Blocking host-total p99 over paced host-total p99.
    pub paced_p99_ratio: f64,
    /// Blocking GC-pause p99 over incremental GC-pause p99.
    pub pause_p99_ratio: f64,
    /// Incremental churn throughput over blocking churn throughput.
    pub throughput_ratio: f64,
    /// Paced churn throughput over blocking churn throughput.
    pub paced_throughput_ratio: f64,
    /// Whether all three arms converged to byte-identical logical contents
    /// after a final GC quiesce.
    pub contents_identical: bool,
}

/// Payload for write `seq` — identical across arms (no arm tag!) so the
/// final contents comparison is meaningful.
fn payload(lba: u64, seq: u64) -> Bytes {
    Bytes::from(format!("s{seq}:{lba}"))
}

/// Runs one arm: cold fill, hot churn with interleaved reads, measurement,
/// then a GC quiesce and a full logical readback for the differential.
fn run_arm(params: &SteadyParams, arm: SteadyArm) -> (SteadyArmOutcome, Vec<Option<Bytes>>) {
    let mut dev = SsdInsider::new(params.arm_config(arm), DecisionTree::constant(false));
    dev.set_detection(false);
    let logical = dev.logical_pages();
    let fill = ((logical as f64 * params.fill_fraction) as u64).clamp(1, logical);
    let hot = params.hot_span.clamp(1, fill);

    let mut now = SimTime::from_secs(1);
    let mut seq = 0u64;
    for lba in 0..fill {
        dev.write(Lba::new(lba), payload(lba, seq), now)
            .expect("cold fill write failed");
        seq += 1;
        now = now.saturating_add(params.fill_interarrival);
    }

    let fill_makespan = dev.nand_busy_ns().1;
    for i in 0..params.churn_writes {
        let lba = i % hot;
        dev.write(Lba::new(lba), payload(lba, seq), now)
            .expect("churn write failed");
        seq += 1;
        if params.read_every > 0 && (i + 1) % params.read_every == 0 {
            // A deterministic pseudo-random hot read: foreground reads are
            // the commands a straddling erase hurts most.
            let rlba = (i.wrapping_mul(7919)) % hot;
            dev.read(Lba::new(rlba), now).expect("churn read failed");
        }
        now = now.saturating_add(params.interarrival);
    }

    dev.sync();
    let host = dev.host_latency_snapshot().unwrap_or_default();
    let gc_pause = dev.gc_pause_latency();
    let churn_makespan_ns = dev.nand_busy_ns().1.saturating_sub(fill_makespan);
    let churn_pages_per_sec = if churn_makespan_ns == 0 {
        0.0
    } else {
        params.churn_writes as f64 * 1e9 / churn_makespan_ns as f64
    };
    let (pacing_stalls, pacing_stall_ns) = dev.pacing_stats();
    let final_gc_debt = dev.gc_debt();
    let ftl = *dev.ftl_stats();

    dev.gc_quiesce().expect("final GC quiesce failed");
    let contents = dev
        .read_extent(Lba::new(0), logical as u32, now)
        .expect("final readback failed");
    let nand = dev.nand_stats().clone();

    (
        SteadyArmOutcome {
            arm: arm.name(),
            host,
            gc_pause,
            churn_makespan_ns,
            churn_pages_per_sec,
            ftl,
            nand,
            pacing_stalls,
            pacing_stall_ns,
            final_gc_debt,
        },
        contents,
    )
}

fn ratio_ns(numer: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        numer as f64 / denom as f64
    }
}

fn ratio_f(numer: f64, denom: f64) -> f64 {
    if denom == 0.0 {
        0.0
    } else {
        numer / denom
    }
}

/// Runs all three arms over the identical operation stream and assembles
/// the comparison report.
pub fn run_steady(params: &SteadyParams) -> SteadyReport {
    let (blocking, base_contents) = run_arm(params, SteadyArm::Blocking);
    let (incremental, inc_contents) = run_arm(params, SteadyArm::Incremental);
    let (paced, paced_contents) = run_arm(params, SteadyArm::Paced);

    let contents_identical = base_contents == inc_contents && base_contents == paced_contents;
    let logical = base_contents.len() as u64;
    let fill = ((logical as f64 * params.fill_fraction) as u64).clamp(1, logical);

    SteadyReport {
        logical_pages: logical,
        fill_writes: fill,
        churn_writes: params.churn_writes,
        hot_span: params.hot_span.clamp(1, fill),
        p99_ratio: ratio_ns(blocking.host.total.p99_ns, incremental.host.total.p99_ns),
        paced_p99_ratio: ratio_ns(blocking.host.total.p99_ns, paced.host.total.p99_ns),
        pause_p99_ratio: ratio_ns(blocking.gc_pause.p99_ns, incremental.gc_pause.p99_ns),
        throughput_ratio: ratio_f(
            incremental.churn_pages_per_sec,
            blocking.churn_pages_per_sec,
        ),
        paced_throughput_ratio: ratio_f(paced.churn_pages_per_sec, blocking.churn_pages_per_sec),
        blocking,
        incremental,
        paced,
        contents_identical,
    }
}
