//! Replaying traces through detectors, FTLs and whole devices.

use bytes::Bytes;
use insider_detect::{DecisionTree, Detector, DetectorConfig, IoMode, IoReq, Verdict};
use insider_ftl::Ftl;
use insider_nand::{Geometry, LatencySnapshot};
use insider_nand::{Lba, SimTime};
use insider_workloads::{merge, AppKind, FileSpace, FileSpaceConfig, RansomwareKind, Trace};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ssd_insider::SsdInsider;

/// Geometry of the simulated drive used by the FTL-replay experiments
/// (Figs. 8–9): 1 GiB raw. Delayed deletion must be able to hold one full
/// protection window of writes (the heaviest trace writes ~3.5k pages/s,
/// so a 10 s window pins ~35k pages) on top of the pre-filled data, so the
/// drive needs meaningful slack beyond the logical space the traces touch —
/// just as the paper's 512 GB card had.
pub fn replay_geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(512)
        .pages_per_block(64)
        .page_size(4096)
        .build()
}

/// A compact file-space configuration sized so its traces fit on the
/// simulated 1 GiB drive used by the FTL-replay experiments (Figs. 8–9).
///
/// The span covers most of the drive's logical space so random-I/O
/// workloads recycle LBAs on a timescale longer than the 10 s protection
/// window — on a space much smaller than that, every invalidated page would
/// still be protected when its block is collected, which cannot happen on
/// the paper's 512 GB card.
pub fn small_space() -> FileSpaceConfig {
    FileSpaceConfig {
        total_blocks: 190_000,
        documents: 400,
        doc_blocks: (4, 96),
        media: 2,
        media_blocks: (256, 1024),
        system: 20,
        system_blocks: (2, 24),
        database_blocks: 1_024,
    }
}

/// Sequential-read sweep: 256-block reads walking a 64 MiB region over and
/// over for ten slices — the workload where extents pay off most (one
/// request header and one batched dispatch replace 256 per-block calls).
pub fn sequential_trace() -> Trace {
    let mut trace = Trace::new();
    for s in 0..10u64 {
        for i in 0..2_000u64 {
            let lba = Lba::new((i % 64) * 256);
            let t = SimTime::from_secs(s).plus_micros(i * 400);
            trace.push(IoReq::new(t, lba, IoMode::Read, 256));
        }
    }
    trace
}

/// Random mixed I/O: short variable-length extents, reads/writes/trims.
/// Fixed seed `0xBE7C`; see [`random_trace_seeded`] for the generator.
pub fn random_trace() -> Trace {
    random_trace_seeded(0xBE7C)
}

/// [`random_trace`] from an explicit seed. The committed benchmark
/// artifacts and the byte-stability test pin the `0xBE7C` stream.
pub fn random_trace_seeded(seed: u64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for i in 0..40_000u64 {
        let t = SimTime::from_micros(i * 1_000);
        let lba = Lba::new(rng.random_range(0u64..50_000));
        let len = rng.random_range(1u32..=16);
        let mode = match rng.random_range(0u32..10) {
            0..=4 => IoMode::Read,
            5..=8 => IoMode::Write,
            _ => IoMode::Trim,
        };
        trace.push(IoReq::new(t, lba, mode, len));
    }
    trace
}

/// Ransomware (Mole) mixed with cloud-storage background traffic — the
/// realistic detection workload. Fixed seed `0x5EED`; see
/// [`ransomware_mix_trace_seeded`] for the generator.
pub fn ransomware_mix_trace() -> Trace {
    ransomware_mix_trace_seeded(0x5EED)
}

/// [`ransomware_mix_trace`] from an explicit seed. The committed benchmark
/// artifacts and the byte-stability test pin the `0x5EED` stream.
pub fn ransomware_mix_trace_seeded(seed: u64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let space = FileSpace::generate(&mut rng, &small_space());
    let duration = SimTime::from_secs(10);
    let ransom = RansomwareKind::Mole
        .model()
        .generate(&mut rng, &space, duration);
    let cloud = AppKind::CloudStorage
        .model()
        .generate(&mut rng, &space, duration);
    merge([ransom, cloud])
}

/// Per-slice feature vectors of a trace (plus a few trailing idle slices so
/// window features settle) — the series behind the paper's Figs. 1–2.
pub fn feature_series(
    trace: &Trace,
    slice: SimTime,
    window_slices: usize,
) -> Vec<(u64, insider_detect::FeatureVector)> {
    let mut engine = insider_detect::FeatureEngine::new(slice, window_slices);
    let mut out = Vec::new();
    for req in trace {
        out.extend(engine.ingest(*req));
    }
    out.extend(engine.flush_until(trace.duration().saturating_add(SimTime::from_secs(5))));
    out
}

/// Runs a trace through a standalone detector, returning every per-slice
/// verdict (plus a final flush one slice past the last request).
pub fn replay_detector(trace: &Trace, tree: DecisionTree, config: DetectorConfig) -> Vec<Verdict> {
    let mut detector = Detector::new(config, tree);
    let mut verdicts = Vec::new();
    for req in trace {
        verdicts.extend(detector.ingest(*req));
    }
    verdicts.extend(detector.flush_until(trace.duration().saturating_add(config.slice)));
    verdicts
}

/// Payload stamped into replayed writes; content is irrelevant to every
/// metric, so a tiny constant keeps memory flat.
fn payload() -> Bytes {
    Bytes::from_static(b"replayed")
}

/// What a replay actually did: blocks applied to the device vs blocks
/// dropped because their LBAs exceeded its exported capacity. A skipped
/// block means the trace was mis-sized for the drive — the workload it
/// models silently shrank — so callers should surface `skipped`, not
/// ignore it.
#[must_use = "check `skipped` — a nonzero value means the trace did not fit the drive"]
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Blocks applied to the device.
    pub applied: u64,
    /// Blocks dropped for exceeding the device's logical capacity.
    pub skipped: u64,
    /// Per-command completion latencies observed by the NAND scheduler:
    /// always `Some` after a replay (`None` only in the `Default` value).
    /// Captured after a final sync so every queued command is finalized.
    pub latency: Option<LatencySnapshot>,
}

/// Equality deliberately ignores `latency`: outcomes are compared by what
/// the replay *did* (applied/skipped blocks); a trace and its
/// [`scalarized`](Trace::scalarized) form batch commands differently, so
/// their queueing latencies legitimately differ even when their effects
/// are identical.
impl PartialEq for ReplayOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.applied == other.applied && self.skipped == other.skipped
    }
}

impl Eq for ReplayOutcome {}

impl ReplayOutcome {
    /// Total blocks the trace asked for.
    pub fn total(&self) -> u64 {
        self.applied + self.skipped
    }

    /// Warns on stderr when any blocks were skipped. Returns `self` so
    /// callers can chain it.
    pub fn warn_if_skipped(self, context: &str) -> Self {
        if self.skipped > 0 {
            eprintln!(
                "warning: {context}: {} of {} blocks exceeded device capacity and were skipped \
                 — the trace is mis-sized for this drive",
                self.skipped,
                self.total()
            );
        }
        self
    }
}

/// Clips a request to the device's logical capacity, charging any excess
/// blocks to `outcome.skipped`. Returns the in-range prefix as
/// `(lba, len)`, or `None` when the whole request is out of range.
fn clamp_extent(req: &IoReq, logical: u64, outcome: &mut ReplayOutcome) -> Option<(Lba, u32)> {
    if req.lba.index() >= logical {
        outcome.skipped += req.len as u64;
        return None;
    }
    let fit = (req.len as u64).min(logical - req.lba.index()) as u32;
    outcome.skipped += (req.len - fit) as u64;
    Some((req.lba, fit))
}

/// Replays a trace against any FTL, one extent request per trace entry.
/// Requests are clipped to the FTL's exported capacity; the returned
/// [`ReplayOutcome`] reports applied vs skipped blocks and a warning is
/// logged when anything was skipped. For the one-block-per-request view of
/// the same workload, pass [`Trace::scalarized`].
///
/// # Panics
///
/// Panics if the FTL reports an error other than capacity exhaustion —
/// replay workloads are sized to fit.
pub fn replay_ftl(trace: &Trace, ftl: &mut dyn Ftl) -> ReplayOutcome {
    let logical = ftl.logical_pages();
    let mut outcome = ReplayOutcome::default();
    for req in trace {
        let Some((lba, fit)) = clamp_extent(req, logical, &mut outcome) else {
            continue;
        };
        match req.mode {
            IoMode::Read => {
                ftl.read_extent(lba, fit, req.time)
                    .expect("replay read failed");
            }
            IoMode::Write => {
                let payloads = vec![payload(); fit as usize];
                ftl.write_extent(lba, &payloads, req.time)
                    .expect("replay write failed");
            }
            IoMode::Trim => {
                ftl.trim_extent(lba, fit, req.time)
                    .expect("replay trim failed");
            }
        }
        outcome.applied += fit as u64;
    }
    ftl.sync();
    outcome.latency = ftl.latency_snapshot();
    outcome.warn_if_skipped("replay_ftl")
}

/// Replays a trace against a full SSD-Insider device, one extent request
/// per trace entry, so the detector sees exactly the multi-sector headers
/// the trace recorded. Alarms are auto-dismissed (modeling a user who
/// waves the dialog away and keeps working): without the dismissal, the
/// alarm-time retirement freeze would pin every backup entry for the rest
/// of the replay, distorting GC and eventually exhausting the drive. That
/// per-request state check is why the loop is not a plain [`replay_ftl`]
/// delegation.
///
/// # Panics
///
/// Panics on device errors other than capacity exhaustion.
pub fn replay_device(trace: &Trace, device: &mut SsdInsider) -> ReplayOutcome {
    use ssd_insider::DeviceState;
    let logical = Ftl::logical_pages(device);
    let mut outcome = ReplayOutcome::default();
    for req in trace {
        let Some((lba, fit)) = clamp_extent(req, logical, &mut outcome) else {
            continue;
        };
        match req.mode {
            IoMode::Read => {
                device
                    .read_extent(lba, fit, req.time)
                    .expect("replay read failed");
            }
            IoMode::Write => {
                let payloads = vec![payload(); fit as usize];
                device
                    .write_extent(lba, &payloads, req.time)
                    .expect("replay write failed");
            }
            IoMode::Trim => {
                device
                    .trim_extent(lba, fit, req.time)
                    .expect("replay trim failed");
            }
        }
        outcome.applied += fit as u64;
        if device.state() == DeviceState::Suspicious {
            device.dismiss_alarm().expect("alarm pending");
        }
    }
    device.sync();
    outcome.latency = device.latency_snapshot();
    outcome.warn_if_skipped("replay_device")
}

/// Fills the first `fraction` of an FTL's logical space with one write per
/// page, long before time zero's protection window, so the fill itself
/// leaves nothing protected. Models the paper's "90 % of the SSD filled
/// with user files" worst case.
///
/// Pages are written in a seeded-shuffled order so cold data is interleaved
/// across erase blocks, as on a long-lived real drive. (A sequential fill
/// would leave every hot block either fully live or fully invalid, making
/// garbage collection unrealistically free.)
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]` or a fill write fails.
pub fn prefill_ftl(ftl: &mut dyn Ftl, fraction: f64) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let pages = (ftl.logical_pages() as f64 * fraction) as u64;
    let mut order: Vec<u64> = (0..pages).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(0xF111));
    for i in order {
        ftl.write(Lba::new(i), payload(), SimTime::ZERO)
            .expect("prefill write failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_ftl::{FtlConfig, InsiderFtl};
    use insider_workloads::{FileSpace, RansomwareKind};
    use rand::SeedableRng;

    #[test]
    fn small_space_fits_replay_geometry() {
        let cfg = FtlConfig::new(replay_geometry());
        assert!(cfg.logical_pages() >= small_space().total_blocks);
    }

    #[test]
    fn detector_replay_produces_slice_verdicts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let space = FileSpace::generate(&mut rng, &small_space());
        let trace = RansomwareKind::Mole
            .model()
            .generate(&mut rng, &space, SimTime::from_secs(8));
        let verdicts = replay_detector(
            &trace,
            DecisionTree::stump(0, 0.5),
            DetectorConfig::default(),
        );
        assert!(verdicts.len() >= 6);
        assert!(verdicts.iter().any(|v| v.alarm));
    }

    #[test]
    fn ftl_replay_applies_all_in_range_requests() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let space = FileSpace::generate(&mut rng, &small_space());
        let trace =
            RansomwareKind::LockyBbs
                .model()
                .generate(&mut rng, &space, SimTime::from_secs(5));
        let mut ftl = InsiderFtl::new(FtlConfig::new(replay_geometry()).protection_window(None));
        let outcome = replay_ftl(&trace, &mut ftl);
        assert_eq!(outcome.applied, trace.total_blocks());
        assert_eq!(outcome.skipped, 0);
        assert!(ftl.stats().host_writes > 0);
        assert!(ftl.stats().host_reads > 0);
    }

    #[test]
    fn ftl_replay_reports_out_of_capacity_blocks() {
        use insider_detect::{IoMode, IoReq};
        let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
        let logical = ftl.logical_pages();
        let mut trace = Trace::new();
        // One in-range write, one straddling the capacity edge by 2 blocks.
        trace.push(IoReq::new(SimTime::ZERO, Lba::new(0), IoMode::Write, 1));
        trace.push(IoReq::new(
            SimTime::from_micros(1),
            Lba::new(logical - 2),
            IoMode::Write,
            4,
        ));
        let outcome = replay_ftl(&trace, &mut ftl);
        assert_eq!(outcome.applied, 3);
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.total(), trace.total_blocks());
    }

    #[test]
    fn scalarized_replay_reports_the_same_outcome() {
        use insider_detect::{IoMode, IoReq};
        let mut trace = Trace::new();
        let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
        let logical = ftl.logical_pages();
        trace.push(IoReq::new(SimTime::ZERO, Lba::new(0), IoMode::Write, 1));
        trace.push(IoReq::new(
            SimTime::from_micros(1),
            Lba::new(logical - 2),
            IoMode::Write,
            4,
        ));
        trace.push(IoReq::new(
            SimTime::from_micros(2),
            Lba::new(logical),
            IoMode::Read,
            3,
        ));
        let extent = replay_ftl(&trace, &mut ftl);
        let mut ftl2 = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
        let scalar = replay_ftl(&trace.scalarized(), &mut ftl2);
        assert_eq!(extent, scalar);
        assert_eq!(extent.applied, 3);
        assert_eq!(extent.skipped, 5);
        assert_eq!(ftl.stats(), ftl2.stats());
    }

    #[test]
    fn bench_traces_are_deterministic_and_sorted() {
        assert_eq!(sequential_trace().len(), 20_000);
        assert!(sequential_trace().is_sorted());
        let r1 = random_trace();
        let r2 = random_trace();
        assert_eq!(r1.reqs(), r2.reqs());
        assert!(!ransomware_mix_trace().is_empty());
    }

    #[test]
    fn prefill_reaches_requested_utilization() {
        let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
        prefill_ftl(&mut ftl, 0.5);
        assert!((ftl.utilization() - 0.5).abs() < 0.02);
    }
}
