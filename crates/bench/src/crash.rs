//! Deterministic power-loss crash-point sweeps.
//!
//! The harness replays a trace against an FTL with a
//! [`FaultPlan::power_cut_after`] schedule, cutting power at the k-th
//! program/erase boundary — including mid-GC-migration and mid-extent-batch
//! — then remounts from the OOB scan and checks the crash-consistency
//! contract against a shadow oracle of *acknowledged* operations:
//!
//! * every acknowledged write is readable byte-for-byte;
//! * a never-written page reads as unmapped;
//! * an unacknowledged (interrupted) write is cleanly absent — its payload,
//!   unique per (page, op), can never surface;
//! * trimmed pages are volatile (documented contract): after remount they
//!   read as unmapped *or* as a previously-acknowledged payload of that
//!   same page, never as foreign or torn data;
//! * on a drive with a protection window, ransomware rollback from the
//!   *reconstructed* recovery queue still rewinds every page to its newest
//!   pre-window version.
//!
//! Violations panic with a labelled message, so a sweep binary exits
//! nonzero the moment the contract breaks.

use crate::replay::{random_trace, ransomware_mix_trace, sequential_trace};
use bytes::Bytes;
use insider_detect::{IoMode, IoReq};
use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Geometry, Lba, NandError, SimTime};
use insider_workloads::Trace;
use std::collections::{HashMap, HashSet};

/// Geometry of the sweep drive: 2 048 pages in 128 blocks of 16 pages.
/// Small on purpose — a sweep replays the trace once *per crash point*, so
/// the cost is quadratic in trace length; 64-byte pages keep the quadratic
/// term cheap while still exercising multi-chip allocation and GC.
pub fn sweep_geometry() -> Geometry {
    Geometry::builder()
        .channels(1)
        .chips_per_channel(2)
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(64)
        .build()
}

/// Logical span the sweep traces are folded into. Small enough that random
/// workloads revisit pages (building multi-version OOB chains), with slack
/// below [`sweep_geometry`]'s logical exports.
pub const SWEEP_SPAN: u64 = 512;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Test every `stride`-th program/erase boundary (1 = every boundary).
    pub stride: u64,
    /// Stop folding a source trace once this many write pages are queued.
    /// Bounds both drive utilization (delayed deletion pins every
    /// superseded page for a window) and the sweep's quadratic cost.
    pub write_budget: u64,
    /// Protection window of the retaining drive under test. Shorter than
    /// the paper's 10 s so the compact traces straddle the cutoff and the
    /// post-remount rollback check rewinds to a *non-trivial* state.
    pub window: SimTime,
    /// Sweeps the incremental background GC engine instead of the blocking
    /// collector: a tiny step budget and watermark margin keep paused
    /// `GcJob`s live across most host writes, and the out-of-order NAND
    /// scheduler runs with erase-suspend armed — so strided cuts land
    /// inside half-migrated victim blocks and suspended erases, and every
    /// remount must rebuild to the same contract.
    pub incremental_gc: bool,
}

impl SweepConfig {
    /// Defaults for the full sweep binary.
    pub fn full() -> Self {
        SweepConfig {
            stride: 1,
            write_budget: 600,
            window: SimTime::from_millis(100),
            incremental_gc: false,
        }
    }

    /// Bounded defaults for the tier-1 fast sweep.
    pub fn fast() -> Self {
        SweepConfig {
            stride: 23,
            write_budget: 160,
            window: SimTime::from_millis(100),
            incremental_gc: false,
        }
    }

    /// The same sweep with incremental GC and erase-suspend armed (see
    /// [`SweepConfig::incremental_gc`]).
    pub fn incremental(self) -> Self {
        SweepConfig {
            incremental_gc: true,
            ..self
        }
    }

    /// Applies the `CRASH_SWEEP_STRIDE` / `CRASH_SWEEP_PAGES` env overrides.
    pub fn from_env(self) -> Self {
        fn env(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.parse().ok()
        }
        SweepConfig {
            stride: env("CRASH_SWEEP_STRIDE").unwrap_or(self.stride).max(1),
            write_budget: env("CRASH_SWEEP_PAGES").unwrap_or(self.write_budget),
            ..self
        }
    }

    /// The FTL configuration this sweep tests: the standard sweep config
    /// plus this sweep's GC engine selection.
    pub fn ftl_config(&self) -> FtlConfig {
        let mut cfg = sweep_ftl_config(self.window);
        if self.incremental_gc {
            // A 1-page step against 16-page blocks parks a GcJob across
            // nearly every host write, maximizing the states a cut can
            // land in; erase-suspend adds suspended erases to the mix.
            cfg = cfg
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1)
                .erase_suspend(true);
        }
        cfg
    }
}

/// FTL configuration used by the sweeps: generous over-provisioning so a
/// fully pinned protection window never exhausts the compact drive.
pub fn sweep_ftl_config(window: SimTime) -> FtlConfig {
    FtlConfig::new(sweep_geometry())
        .over_provisioning(0.25)
        .protection_window(window)
}

/// Folds a source trace into the sweep's compact LBA span, truncating once
/// `write_budget` write pages are queued and capping extent lengths.
fn compact_trace(src: &Trace, write_budget: u64, len_cap: u32) -> Trace {
    let mut out = Trace::new();
    let mut queued = 0u64;
    for req in src {
        let lba = Lba::new(req.lba.index() % SWEEP_SPAN);
        let len = req.len.clamp(1, len_cap);
        if req.mode == IoMode::Write {
            if queued >= write_budget {
                break;
            }
            queued += len as u64;
        }
        out.push(IoReq::new(req.time, lba, req.mode, len));
    }
    out
}

/// The three standard traces folded into sweepable form.
///
/// The sequential trace is pure reads, which would yield zero program/erase
/// boundaries to cut; it is prefixed with one write per spanned page (its
/// own mutation phase), so the sweep also covers crashes mid-initial-fill.
pub fn sweep_traces(write_budget: u64) -> Vec<(&'static str, Trace)> {
    let mut seq = Trace::new();
    let fill = SWEEP_SPAN.min(write_budget);
    for i in 0..fill {
        seq.push(IoReq::new(
            SimTime::from_micros(i * 50),
            Lba::new(i),
            IoMode::Write,
            1,
        ));
    }
    for req in &sequential_trace() {
        if seq.len() >= fill as usize + 400 {
            break;
        }
        let lba = Lba::new(req.lba.index() % SWEEP_SPAN);
        let t = SimTime::from_secs(1).plus_micros(req.time.as_micros());
        seq.push(IoReq::new(t, lba, IoMode::Read, req.len.clamp(1, 32)));
    }
    vec![
        ("sequential", seq),
        ("random", compact_trace(&random_trace(), write_budget, 16)),
        (
            "ransomware",
            compact_trace(&ransomware_mix_trace(), write_budget, 16),
        ),
    ]
}

/// Human label of a drive configuration, used in violation messages and
/// the sweep tables: `insider` with a protection window, `conventional`
/// without.
pub fn flavour(config: &FtlConfig) -> &'static str {
    if config.window().is_some() {
        "insider"
    } else {
        "conventional"
    }
}

/// Shadow oracle of acknowledged operations: per-page acknowledged write
/// history (stamp, unique payload) plus trim tracking.
#[derive(Debug, Default)]
struct Shadow {
    hist: HashMap<u64, Vec<(SimTime, Bytes)>>,
    trimmed_ever: HashSet<u64>,
    trimmed_now: HashSet<u64>,
}

/// What a post-remount read of one page must return.
enum Expect {
    /// Exactly this (None = unmapped).
    Exact(Option<Bytes>),
    /// Unmapped or any of these — the volatile-trim / GC-timing relaxation.
    AnyOf(Vec<Bytes>),
}

impl Shadow {
    fn apply_write(&mut self, lba: Lba, acked: &[Bytes], stamp: SimTime) {
        for (i, payload) in acked.iter().enumerate() {
            let idx = lba.index() + i as u64;
            self.hist
                .entry(idx)
                .or_default()
                .push((stamp, payload.clone()));
            self.trimmed_now.remove(&idx);
        }
    }

    fn apply_trim(&mut self, lba: Lba, len: u32) {
        for i in 0..len as u64 {
            let idx = lba.index() + i;
            self.trimmed_ever.insert(idx);
            self.trimmed_now.insert(idx);
        }
    }

    /// Expected *pre-crash* contents (DRAM mapping still live, trims exact).
    fn expected_live(&self, lba: u64) -> Option<&Bytes> {
        if self.trimmed_now.contains(&lba) {
            return None;
        }
        self.hist.get(&lba).and_then(|h| h.last()).map(|(_, p)| p)
    }

    /// Expected contents after a remount.
    fn expected_mounted(&self, lba: u64) -> Expect {
        let hist = self.hist.get(&lba);
        if self.trimmed_now.contains(&lba) {
            // Trims are volatile: the page may resurrect as any acked
            // version still on flash (GC decides which survive).
            return Expect::AnyOf(
                hist.map(|h| h.iter().map(|(_, p)| p.clone()).collect())
                    .unwrap_or_default(),
            );
        }
        Expect::Exact(hist.and_then(|h| h.last()).map(|(_, p)| p.clone()))
    }

    /// Expected contents after a remount *and* a rollback with the given
    /// cutoff: the newest acknowledged version older than the cutoff.
    fn expected_rolled_back(&self, lba: u64, cutoff: SimTime) -> Expect {
        let hist = self.hist.get(&lba);
        if self.trimmed_ever.contains(&lba) {
            // Trims leave no flash record, so the rebuilt queue chains
            // versions *across* them; rollback may land on any acked
            // version (or unmap). Torn or foreign data is still forbidden.
            return Expect::AnyOf(
                hist.map(|h| h.iter().map(|(_, p)| p.clone()).collect())
                    .unwrap_or_default(),
            );
        }
        Expect::Exact(
            hist.and_then(|h| h.iter().rev().find(|(s, _)| *s < cutoff))
                .map(|(_, p)| p.clone()),
        )
    }
}

/// Unique payload for op `op_seq` landing on `lba` — a phantom
/// unacknowledged write can therefore never collide with an expected value.
fn unique_payload(lba: u64, op_seq: u64) -> Bytes {
    Bytes::from(format!("L{lba}O{op_seq}"))
}

fn is_power_loss(e: &FtlError) -> bool {
    matches!(e, FtlError::Nand(NandError::PowerLoss))
}

/// Outcome of one full sweep of one trace against one FTL flavour.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct SweepSummary {
    /// Program+erase boundaries the clean run produced (the crash space).
    pub mutation_ops: u64,
    /// Crash points actually tested (`mutation_ops / stride`, plus the
    /// clean run).
    pub points_tested: u64,
    /// Points where the cut fired mid-run (the rest crashed at the very
    /// end or ran clean).
    pub crashes_fired: u64,
    /// Pages whose post-remount contents were checked, summed over points.
    pub pages_verified: u64,
    /// Post-remount rollbacks executed and verified.
    pub rollbacks_verified: u64,
}

/// Replays `trace` against a fresh FTL with power cut after `cut` NAND
/// mutations (`None` = clean run); remounts; verifies the durability
/// contract; rolls back and verifies again when the drive retains.
///
/// Returns `(crash fired, pages verified, rollback ran)`.
fn run_crash_point(config: &FtlConfig, trace: &Trace, cut: Option<u64>) -> (bool, u64, bool) {
    let label = flavour(config);
    let mut ftl = InsiderFtl::new(config.clone());
    if let Some(k) = cut {
        let mut plan = FaultPlan::new();
        plan.power_cut_after(k);
        ftl.set_fault_plan(plan);
    }
    let logical = ftl.logical_pages();
    let mut shadow = Shadow::default();
    let mut op_seq = 0u64;
    let mut now = SimTime::ZERO;
    let mut crashed = false;

    'replay: for req in trace {
        now = req.time;
        let fit = (req.len as u64).min(logical.saturating_sub(req.lba.index())) as u32;
        if fit == 0 {
            continue;
        }
        match req.mode {
            IoMode::Read => match ftl.read_extent(req.lba, fit, req.time) {
                Ok(pages) => {
                    for (i, got) in pages.iter().enumerate() {
                        let want = shadow.expected_live(req.lba.index() + i as u64);
                        assert_eq!(
                            got.as_ref(),
                            want,
                            "[{label}] pre-crash read diverged at lba {}",
                            req.lba.index() + i as u64
                        );
                    }
                }
                Err(e) if is_power_loss(&e) => {
                    crashed = true;
                    break 'replay;
                }
                Err(e) => panic!("[{label}] sweep read failed: {e}"),
            },
            IoMode::Write => {
                let payloads: Vec<Bytes> = (0..fit as u64)
                    .map(|i| unique_payload(req.lba.index() + i, op_seq))
                    .collect();
                let before = ftl.stats().host_writes;
                let result = ftl.write_extent(req.lba, &payloads, req.time);
                // The device acknowledges exactly the completed prefix of
                // an extent, even when the tail was interrupted.
                let acked = (ftl.stats().host_writes - before) as usize;
                shadow.apply_write(req.lba, &payloads[..acked], req.time);
                match result {
                    Ok(()) => assert_eq!(acked, fit as usize),
                    Err(e) if is_power_loss(&e) => {
                        crashed = true;
                        break 'replay;
                    }
                    Err(e) => panic!("[{label}] sweep write failed: {e}"),
                }
            }
            IoMode::Trim => match ftl.trim_extent(req.lba, fit, req.time) {
                Ok(()) => shadow.apply_trim(req.lba, fit),
                Err(e) if is_power_loss(&e) => {
                    crashed = true;
                    break 'replay;
                }
                Err(e) => panic!("[{label}] sweep trim failed: {e}"),
            },
        }
        op_seq += 1;
    }

    assert_eq!(
        ftl.nand_stats().injected_faults,
        u64::from(crashed),
        "[{label}] exactly the scheduled power cut must fire (cut={cut:?})"
    );

    // Power restored: remount from the OOB scan.
    ftl.power_cut(now).expect("remount failed");

    let check = |ftl: &mut InsiderFtl, lba: u64, want: Expect, phase: &str| {
        let got = ftl
            .read(Lba::new(lba), now)
            .expect("post-remount read failed");
        match want {
            Expect::Exact(want) => assert_eq!(
                got, want,
                "[{label} {phase}] lba {lba} diverged (cut={cut:?})"
            ),
            Expect::AnyOf(allowed) => assert!(
                got.is_none() || allowed.contains(got.as_ref().unwrap()),
                "[{label} {phase}] lba {lba} holds foreign data {got:?} (cut={cut:?})"
            ),
        }
    };

    let mut pages = 0u64;
    for lba in 0..logical {
        check(&mut ftl, lba, shadow.expected_mounted(lba), "remount");
        pages += 1;
    }

    let rolled_back = if let Some(window) = config.window() {
        let report = ftl.rollback(now).expect("post-remount rollback failed");
        let cutoff = now.saturating_sub(window);
        assert_eq!(report.restored_to, cutoff);
        for lba in 0..logical {
            check(
                &mut ftl,
                lba,
                shadow.expected_rolled_back(lba, cutoff),
                "rollback",
            );
            pages += 1;
        }
        true
    } else {
        false
    };

    (crashed, pages, rolled_back)
}

/// Sweeps one trace against a drive built from `ftl`: a clean run sizes the
/// crash space (and checks the no-crash remount), then every `stride`-th
/// program/erase boundary is cut, remounted and verified.
///
/// # Panics
///
/// Panics on any violation of the crash-consistency contract.
pub fn sweep(ftl: &FtlConfig, trace: &Trace, config: &SweepConfig) -> SweepSummary {
    let mut summary = SweepSummary::default();

    // Clean run: no fault plan, remount at trace end, and measure the
    // number of NAND mutations — the crash space for this trace.
    let probe = {
        let mut ftl = InsiderFtl::new(ftl.clone());
        let outcome = crate::replay::replay_ftl(trace, &mut ftl);
        assert_eq!(outcome.skipped, 0, "sweep trace must fit the sweep drive");
        let s = ftl.nand_stats();
        s.programs + s.erases
    };
    summary.mutation_ops = probe;

    let (_, pages, rb) = run_crash_point(ftl, trace, None);
    summary.points_tested += 1;
    summary.pages_verified += pages;
    summary.rollbacks_verified += u64::from(rb);

    let mut k = 1;
    while k <= probe {
        let (crashed, pages, rb) = run_crash_point(ftl, trace, Some(k));
        summary.points_tested += 1;
        summary.crashes_fired += u64::from(crashed);
        summary.pages_verified += pages;
        summary.rollbacks_verified += u64::from(rb);
        k += config.stride;
    }
    summary
}

/// Runs the full matrix — three standard traces × both retention values
/// (none, then the sweep's window) — returning `(trace, flavour, summary)`
/// rows. Panics on any violation.
pub fn sweep_matrix(config: &SweepConfig) -> Vec<(&'static str, &'static str, SweepSummary)> {
    let retaining = config.ftl_config();
    let drives = [retaining.clone().protection_window(None), retaining];
    let mut rows = Vec::new();
    for (name, trace) in sweep_traces(config.write_budget) {
        for ftl in &drives {
            rows.push((name, flavour(ftl), sweep(ftl, &trace, config)));
        }
    }
    rows
}

/// Geometry of the filesystem-backed crash scenario: 4 096 × 4 KiB pages
/// (16 MiB), enough for a MiniExt with a victim corpus plus GC headroom.
pub fn fs_crash_geometry() -> Geometry {
    Geometry::builder()
        .channels(1)
        .chips_per_channel(2)
        .blocks_per_chip(64)
        .pages_per_block(32)
        .page_size(4096)
        .build()
}

/// Outcome of one filesystem-backed attack/crash/recover cycle.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct FsCrashOutcome {
    /// The scheduled power cut fired mid-attack (before the alarm).
    pub cut_fired: bool,
    /// Power was yanked *after* the alarm, before the user confirmed — the
    /// paper's worst-case recovery window.
    pub crashed_post_alarm: bool,
    /// NAND mutations (programs + erases) the attack phase performed — the
    /// crash space a sweep over this scenario iterates.
    pub attack_mutations: u64,
    /// First fsck pass found nothing to repair (the paper expects this to
    /// be false sometimes: the rollback point lands mid-metadata-update).
    pub fsck_first_pass_clean: bool,
    /// Second fsck pass is clean — every corruption was repairable.
    pub fsck_second_pass_clean: bool,
    /// Victim files in the corpus.
    pub files_total: usize,
    /// Victim files whose recovered content byte-compares to the original.
    pub files_recovered: usize,
    /// Mapping entries the rollback restored.
    pub restored_entries: u64,
}

fn is_fs_power_loss(e: &insider_fs::FsError) -> bool {
    matches!(e, insider_fs::FsError::Device(msg) if msg.contains("power loss"))
}

fn device_mutations(device: &ssd_insider::SsdInsider) -> u64 {
    let s = ssd_insider::SsdInsider::nand_stats(device);
    s.programs + s.erases
}

/// The filesystem-backed crash scenario: a MiniExt victim corpus is aged
/// past the protection window, an in-place ransomware encrypts it until the
/// device raises the alarm, and power is lost — either at attack mutation
/// `cut_after` (mid-attack, possibly before the alarm) or, with `None`,
/// yanked right after the alarm while the user has not yet confirmed.
///
/// After the remount: a pre-alarm crash resumes the attack (fsck first, so
/// the possibly-torn filesystem mounts) until the alarm fires; then the
/// user confirms, the drive rolls back from the *reconstructed* recovery
/// queue, the host reboots, fsck runs twice, and every victim file is
/// byte-compared against its pre-attack plaintext.
///
/// Fully deterministic: same `cut_after` → same outcome.
///
/// # Panics
///
/// Panics if any phase fails or the alarm never fires.
pub fn fs_attack_crash(cut_after: Option<u64>) -> FsCrashOutcome {
    use insider_detect::{DecisionTree, DetectorConfig};
    use insider_fs::{fsck, FsConfig, MiniExt};
    use rand::{Rng, SeedableRng};
    use ssd_insider::{DeviceState, FsBridge, InsiderConfig, SsdInsider};

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC8A5);
    let config = InsiderConfig::from_parts(
        FtlConfig::new(fs_crash_geometry()),
        DetectorConfig::default(),
    );
    // Arm the evolved detector shape: the OWIO stump (votes in any slice
    // with an overwrite) with an RHEW stump grafted onto its benign leaf,
    // exactly how `train_tree_variant` composes the evolved variant. The
    // sweep then cuts power with the entropy path live: the device stamps
    // payload entropy on every write, the RHEW window set sits in detector
    // DRAM, and both are volatile by design — a cut discards them and the
    // cold-restarted detector re-accumulates evidence after the remount.
    // Feature 7 is RHEW in `FEATURE_NAMES` order.
    let tree = DecisionTree::stump(0, 0.5).or_graft(&DecisionTree::stump(7, 0.5));
    let mut device = SsdInsider::new(config, tree);
    // The tree alarms on any in-slice overwrite; keep detection off while
    // laying down the corpus (metadata updates overwrite constantly).
    device.set_detection(false);
    let bridge = FsBridge::new(device, SimTime::ZERO, SimTime::from_micros(500));
    let mut fs = MiniExt::format(bridge, &FsConfig { inode_count: 64 }).unwrap();

    let mut victims = Vec::new();
    for i in 0..18 {
        let blocks = rng.random_range(1..=6u32);
        let mut content = vec![0u8; blocks as usize * 4096 - rng.random_range(0..4000usize)];
        rng.fill(&mut content[..]);
        let name = format!("victim{i:02}");
        fs.write_file(&name, &content).unwrap();
        victims.push((name, content));
    }
    // Age the corpus well past the protection window, then arm detection.
    let safe_at = fs.dev_mut().now() + SimTime::from_secs(30);
    fs.dev_mut().advance(safe_at);
    fs.dev_mut().device_mut().set_detection(true);

    let base_ops = device_mutations(fs.dev_mut().device());
    if let Some(k) = cut_after {
        let mut plan = FaultPlan::new();
        plan.power_cut_after(k);
        fs.dev_mut().device_mut().set_fault_plan(plan);
    }

    // Attack until the alarm fires or the scheduled cut hits. One pass
    // paces ~4.5 s of device time; the detector needs ~4 s of sustained
    // overwriting, so the alarm normally lands within the first pass and
    // every attack write stays inside the 10 s rollback window.
    let mut cut_fired = false;
    let mut passes = 0;
    'attack: while fs.dev_mut().device().state() != DeviceState::Suspicious {
        passes += 1;
        assert!(passes <= 4, "alarm never fired during the attack");
        for victim in &victims {
            if fs.dev_mut().device().state() == DeviceState::Suspicious {
                break 'attack;
            }
            let name = victim.0.clone();
            let step = fs.read_file(&name).and_then(|data| {
                let cipher: Vec<u8> = data.iter().map(|b| b ^ 0xa5).collect();
                fs.write_file(&name, &cipher)
            });
            match step {
                Ok(()) => {}
                Err(e) if is_fs_power_loss(&e) => {
                    cut_fired = true;
                    break 'attack;
                }
                Err(e) => panic!("attack write failed: {e}"),
            }
            let pace = fs.dev_mut().now() + SimTime::from_millis(250);
            fs.dev_mut().advance(pace);
        }
    }
    let attack_mutations = device_mutations(fs.dev_mut().device()).saturating_sub(base_ops);

    // Power loss. When the alarm beat the scheduled cut (or none was
    // scheduled), disarm it and yank power explicitly: the crash lands
    // after the alarm but before the user confirms.
    let crashed_post_alarm = !cut_fired;
    let now = fs.dev_mut().now();
    let mut bridge = fs.into_dev();
    if crashed_post_alarm {
        bridge.device_mut().set_fault_plan(FaultPlan::new());
    }
    bridge.device_mut().power_cut(now).unwrap();

    // A pre-alarm crash loses the detector's DRAM window but not the
    // corpus: repair the possibly-torn filesystem, remount it and let the
    // still-running ransomware re-trip the (cold-restarted) detector.
    let confirm_at = if bridge.device().state() == DeviceState::Suspicious {
        now
    } else {
        let (_torn_report, repaired) = fsck(bridge).unwrap();
        let mut fs = MiniExt::mount(repaired).unwrap();
        let mut guard = 0;
        while fs.dev_mut().device().state() != DeviceState::Suspicious {
            guard += 1;
            assert!(guard <= 200, "alarm never re-fired after the remount");
            let name = victims[guard % victims.len()].0.clone();
            let data = fs.read_file(&name).unwrap();
            let cipher: Vec<u8> = data.iter().map(|b| b ^ 0xa5).collect();
            fs.write_file(&name, &cipher).unwrap();
            let pace = fs.dev_mut().now() + SimTime::from_millis(250);
            fs.dev_mut().advance(pace);
        }
        let t = fs.dev_mut().now();
        bridge = fs.into_dev();
        t
    };

    // The alarm state survived the crash in NVRAM; the user confirms and
    // the drive rolls back from the queue rebuilt out of the OOB scan.
    let report = bridge.device_mut().confirm_and_recover(confirm_at).unwrap();
    bridge.device_mut().reboot().unwrap();
    let (first, bridge) = fsck(bridge).unwrap();
    let (second, bridge) = fsck(bridge).unwrap();

    let mut fs = MiniExt::mount(bridge).unwrap();
    let files_recovered = victims
        .iter()
        .filter(|(name, original)| fs.read_file(name).as_deref() == Ok(original))
        .count();

    FsCrashOutcome {
        cut_fired,
        crashed_post_alarm,
        attack_mutations,
        fsck_first_pass_clean: first.is_clean(),
        fsck_second_pass_clean: second.is_clean(),
        files_total: victims.len(),
        files_recovered,
        restored_entries: report.restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_traces_are_compact_and_deterministic() {
        let a = sweep_traces(160);
        let b = sweep_traces(160);
        assert_eq!(a.len(), 3);
        for ((name_a, ta), (name_b, tb)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(ta.reqs(), tb.reqs(), "{name_a} not deterministic");
            assert!(ta.is_sorted(), "{name_a} not time-sorted");
            assert!(
                ta.reqs()
                    .iter()
                    .all(|r| r.lba.index() + r.len as u64 <= SWEEP_SPAN + 32),
                "{name_a} escapes the sweep span"
            );
        }
        let writes: u64 = a[1]
            .1
            .reqs()
            .iter()
            .filter(|r| r.mode == IoMode::Write)
            .map(|r| r.len as u64)
            .sum();
        assert!(writes <= 160 + 16, "write budget not honoured");
        assert!(writes > 0, "random sweep trace must mutate");
    }

    #[test]
    fn unique_payloads_never_collide() {
        assert_ne!(unique_payload(1, 2), unique_payload(1, 3));
        assert_ne!(unique_payload(1, 2), unique_payload(12, 2));
    }

    #[test]
    fn clean_run_and_one_crash_point_pass() {
        let config = SweepConfig {
            write_budget: 48,
            ..SweepConfig::full()
        };
        let traces = sweep_traces(config.write_budget);
        let (_, trace) = &traces[1];
        let cfg = sweep_ftl_config(config.window);
        let (_, pages, rb) = run_crash_point(&cfg, trace, None);
        assert!(pages > 0);
        assert!(rb);
        let (crashed, _, _) = run_crash_point(&cfg, trace, Some(3));
        assert!(crashed, "cut after 3 mutations must fire");
    }
}
