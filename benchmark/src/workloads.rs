//! The four workloads. Each is a closed loop with one client: the next
//! operation is issued when the previous one returns. Operation counts are
//! fixed (divided by `Ctx::div` for smoke runs), inputs come from the seed
//! alone, and every byte read back is compared with a shadow model. Shadow
//! work and input generation happen outside the timed spans.

use crate::gen::{Pool, SplitMix64, StreamHash, PAGE, POOL_PAGES};
use crate::stack::{self, CacheCounts, DeviceSnapshot, Fs, Res, Stack, Tree};
use crate::trace::{Layer, Tracer};
use bytes::Bytes;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FsOfficeCached,
    FsAttackRecover,
    DevChurnGc,
    DevReadMostly,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FsOfficeCached,
        Workload::FsAttackRecover,
        Workload::DevChurnGc,
        Workload::DevReadMostly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FsOfficeCached => "fs-office-cached",
            Workload::FsAttackRecover => "fs-attack-recover",
            Workload::DevChurnGc => "dev-churn-gc",
            Workload::DevReadMostly => "dev-read-mostly",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether MiniExt and the block cache are on the path.
    pub fn has_fs(self) -> bool {
        matches!(self, Workload::FsOfficeCached | Workload::FsAttackRecover)
    }
}

// Sizes, chosen so one repetition (set-up, timed phase, remount and
// verification) takes three to four seconds on the 2-vCPU reference box at
// the commit that introduced the benchmark.
const OFFICE_FILES: u64 = 1000;
const OFFICE_OPS: u64 = 8000;
/// 128 MiB: larger than the ~60 MB corpus, so reads never leave the cache.
const OFFICE_CACHE_BLOCKS: usize = 32768;
const OFFICE_THINK_US: u64 = 20_000;
const OFFICE_FLUSH_EVERY: u64 = 50;

const ATTACK_FILES: u64 = 1000;
const ATTACK_CYCLES: u64 = 6;
/// 8 MiB: far smaller than the ~60 MB corpus, so scans miss and evict.
const ATTACK_CACHE_BLOCKS: usize = 2048;
const ATTACK_AGE_US: u64 = 30_000_000;
const ATTACK_THINK_US: u64 = 30_000;

const FILE_MIN_BYTES: u64 = 2_000;
const FILE_MAX_BYTES: u64 = 120_000;
/// Simulated time per block moved under the filesystem workloads.
const FS_BLOCK_US: u64 = 50;

const CHURN_REQUESTS: u64 = 80_000;
const CHURN_PREFILL_PCT: u64 = 70;
const READ_REQUESTS: u64 = 400_000;
const READ_PREFILL_PCT: u64 = 50;
const SCAN_PAGES: u32 = 128;
/// Simulated time per page moved under the device workloads.
const DEV_PAGE_US: u64 = 400;
const DEV_IDLE_US: u64 = 20_000_000;
const PREFILL_EXTENT: u32 = 64;
/// Requests generated, issued and verified together on the device
/// workloads, so one clock pair covers many sub-microsecond requests.
const DEV_BATCH: usize = 256;
/// Power cycles per repetition; a remount is one short measurement (15 to
/// 250 ms), so the fastest of a few is far steadier than a single one.
const REMOUNTS: usize = 3;
/// Host operations between DRAM samples.
const DRAM_SAMPLE_EVERY: u64 = 1024;

/// What one repetition is run with.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub seed: u64,
    /// Operation counts are divided by this (1 for a full run).
    pub div: u64,
    /// Present on the traced pass.
    pub tracer: Option<&'a Tracer>,
    /// Self-test hook: flip one shadow entry (before the final read-back;
    /// on `fs-attack-recover`, which never rewrites its shadow, right after
    /// set-up), which the run must then report as failed operations and
    /// lost files.
    pub corrupt_shadow: bool,
}

/// Raw measurements of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    pub setup_ns: u64,
    /// Host time inside product calls during the measured phase.
    pub timed_ns: u64,
    /// Wall time of the measured phase spent outside them: input
    /// generation and shadow verification.
    pub driver_ns: u64,
    /// 4 KiB blocks moved by host operations in the measured phase.
    pub blocks: u64,
    pub attempted: u64,
    pub failed: u64,
    pub stream_hash: u64,
    pub op_counts: Vec<(&'static str, u64)>,
    pub remount_ns: u64,
    /// Per attack cycle: user confirmation → mounted filesystem.
    pub recover_ns: Vec<u64>,
    /// Per attack cycle: first attack write → alarm, simulated µs.
    pub detect_latency_us: Vec<u64>,
    pub alarms: u64,
    pub false_alarms: u64,
    pub lost_files: u64,
    pub dram_peak_bytes: u64,
    pub queue_peak_entries: u64,
    /// Cache counters over the measured phase (filesystem workloads).
    pub cache: Option<CacheCounts>,
    pub fsck_repairs: u64,
    pub rollback_restored: u64,
    pub rollback_ns: u64,
    pub gc_wall_ns: u64,
    /// Device statistics at the end of the run, verification included.
    pub device: DeviceSnapshot,
}

/// Runs one repetition of `workload` on a fresh stack.
pub fn run_rep(workload: Workload, ctx: &Ctx) -> Res<Rep> {
    match (workload, ctx.tracer) {
        (Workload::FsOfficeCached, None) => {
            fs_office(ctx, &|b| stack::plain_fs(b, OFFICE_CACHE_BLOCKS))
        }
        (Workload::FsOfficeCached, Some(t)) => {
            fs_office(ctx, &|b| stack::traced_fs(b, OFFICE_CACHE_BLOCKS, t))
        }
        (Workload::FsAttackRecover, None) => {
            fs_attack(ctx, &|b| stack::plain_fs(b, ATTACK_CACHE_BLOCKS))
        }
        (Workload::FsAttackRecover, Some(t)) => {
            fs_attack(ctx, &|b| stack::traced_fs(b, ATTACK_CACHE_BLOCKS, t))
        }
        (Workload::DevChurnGc, None) => dev_churn(ctx, &|b| b),
        (Workload::DevChurnGc, Some(t)) => dev_churn(ctx, &|b| stack::traced_dev(b, t)),
        (Workload::DevReadMostly, None) => dev_read(ctx, &|b| b),
        (Workload::DevReadMostly, Some(t)) => dev_read(ctx, &|b| stack::traced_dev(b, t)),
    }
}

// ---------------------------------------------------------------- shared

/// Accumulates host time inside product calls, and tells the tracer when a
/// timed section is open.
struct Meter<'a> {
    tracer: Option<&'a Tracer>,
    timed_ns: u64,
}

impl<'a> Meter<'a> {
    fn new(tracer: Option<&'a Tracer>) -> Self {
        Meter {
            tracer,
            timed_ns: 0,
        }
    }

    /// Times `call`, one host operation; with `layer`, under a span.
    fn time<T>(&mut self, layer: Option<Layer>, call: impl FnOnce() -> T) -> T {
        if let Some(t) = self.tracer {
            t.set_timed(true);
            t.next_op();
        }
        let started = Instant::now();
        let out = match layer {
            Some(layer) => spanned(self.tracer, layer, call),
            None => call(),
        };
        self.timed_ns += started.elapsed().as_nanos() as u64;
        if let Some(t) = self.tracer {
            t.set_timed(false);
        }
        out
    }
}

/// Runs `call` under a span of `layer` when tracing.
fn spanned<T>(tracer: Option<&Tracer>, layer: Layer, call: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(layer, call),
        None => call(),
    }
}

/// Failed operations out of attempted. The first few failures are named on
/// standard error.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts one host operation; an `Err` is a failed one.
    fn host<T>(&mut self, what: &str, result: Res<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts a shadow comparison that did not hold.
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what);
        }
        ok
    }
}

fn blocks_of(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE) as u64
}

fn scaled(count: u64, div: u64, floor: u64) -> u64 {
    (count / div).max(floor)
}

/// Peak DRAM bill and recovery-queue length, sampled between operations.
#[derive(Debug, Default)]
struct Peaks {
    dram_bytes: u64,
    queue_entries: u64,
}

impl Peaks {
    fn sample<S: Stack>(&mut self, stack: &mut S) {
        let bridge = stack.bridge();
        self.dram_bytes = self.dram_bytes.max(stack::dram_bytes(bridge));
        self.queue_entries = self
            .queue_entries
            .max(stack::recovery_queue_entries(bridge));
    }
}

/// Alarms raised by benign traffic are dismissed at once and counted.
fn dismiss_false_alarm<S: Stack>(stack: &mut S, rep: &mut Rep, tally: &mut Tally) {
    if stack::alarm_pending(stack.bridge()) {
        rep.alarms += 1;
        rep.false_alarms += 1;
        tally.host("dismiss_alarm", stack::dismiss_alarm(stack.bridge()));
    }
}

// ------------------------------------------------------ filesystem corpus

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileShadow {
    /// Pool page the content starts at.
    start: u8,
    len: u32,
}

fn file_name(id: u64) -> String {
    format!("f{id:05}.doc")
}

struct Corpus {
    files: Vec<FileShadow>,
}

impl Corpus {
    /// Writes `count` files of 2–120 KB and flushes them to the device.
    fn create<S: Stack>(
        fs: &mut Fs<S>,
        count: u64,
        rng: &mut SplitMix64,
        pool: &Pool,
        tally: &mut Tally,
        hash: &mut StreamHash,
    ) -> Corpus {
        let mut files = Vec::with_capacity(count as usize);
        for id in 0..count {
            let shadow = FileShadow {
                start: rng.below(POOL_PAGES as u64) as u8,
                len: rng.range(FILE_MIN_BYTES, FILE_MAX_BYTES) as u32,
            };
            hash.mix(&[id, shadow.start as u64, shadow.len as u64]);
            let data = pool.file(shadow.start, shadow.len as usize);
            tally.host("create", fs.write(&file_name(id), data));
            files.push(shadow);
        }
        tally.host("flush", fs.stack().flush_cache());
        Corpus { files }
    }

    fn matches(&self, id: u64, data: &[u8], pool: &Pool) -> bool {
        let f = self.files[id as usize];
        data == &pool.file(f.start, f.len as usize)[..]
    }

    /// Reads every file back; returns how many differ from the shadow.
    fn verify_all<S: Stack>(&self, fs: &mut Fs<S>, pool: &Pool, tally: &mut Tally) -> u64 {
        let mut wrong = 0;
        for id in 0..self.files.len() as u64 {
            let name = file_name(id);
            let ok = tally
                .host("verify read", fs.read(&name))
                .is_some_and(|data| self.matches(id, &data, pool));
            if !tally.expect(ok, || format!("{name} differs from its shadow")) {
                wrong += 1;
            }
        }
        wrong
    }
}

fn cache_counts<S: Stack>(stack: &S) -> CacheCounts {
    stack
        .cache_counts()
        .expect("filesystem workloads run over a cache")
}

/// What set-up leaves a filesystem workload with.
struct FsSetup<S: Stack> {
    fs: Fs<S>,
    corpus: Corpus,
    pool: Pool,
    rng: SplitMix64,
    hash: StreamHash,
    tally: Tally,
}

/// Fresh device, format, and a flushed corpus of `files` files.
fn fs_setup<S: Stack>(
    ctx: &Ctx,
    make: &dyn Fn(stack::Bridge) -> S,
    files: u64,
    salt: u64,
) -> Res<FsSetup<S>> {
    let mut rng = SplitMix64::new(ctx.seed ^ salt);
    let mut hash = StreamHash::new();
    let mut tally = Tally::default();
    let pool = Pool::new(ctx.seed);
    let bridge = stack::new_bridge(&Tree::load(), FS_BLOCK_US);
    let mut fs = Fs::format(make(bridge), files as u32 + 64)?;
    let corpus = Corpus::create(&mut fs, files, &mut rng, &pool, &mut tally, &mut hash);
    Ok(FsSetup {
        fs,
        corpus,
        pool,
        rng,
        hash,
        tally,
    })
}

/// Power loss, device mount and filesystem mount on a cold cache;
/// `remount_ns` is the fastest of [`REMOUNTS`] such cycles.
fn fs_remount<S: Stack>(
    mut fs: Fs<S>,
    make: &dyn Fn(stack::Bridge) -> S,
    tally: &mut Tally,
    rep: &mut Rep,
) -> Res<Fs<S>> {
    rep.remount_ns = u64::MAX;
    for _ in 0..REMOUNTS {
        let mut bridge = fs.into_stack().into_bridge();
        let started = Instant::now();
        stack::power_cycle(&mut bridge)?;
        fs = Fs::mount(make(bridge))?;
        rep.remount_ns = rep.remount_ns.min(started.elapsed().as_nanos() as u64);
        tally.attempted += 1;
    }
    Ok(fs)
}

/// Reads the device's statistics at the end of a filesystem run.
fn fs_snapshot<S: Stack>(fs: Fs<S>, rep: &mut Rep) {
    let mut bridge = fs.into_stack().into_bridge();
    rep.gc_wall_ns = stack::gc_wall_ns(&bridge);
    rep.device = stack::snapshot(&mut bridge);
}

// ------------------------------------------------------- fs-office-cached

/// Office work over a cache that holds the whole corpus: 60 % whole-file
/// reads (80 % of accesses go to 20 % of the files), 25 % save-in-place at
/// ±10 % size, 8 % temp-file create and delete, 5 % `stat`, 2 % `list`,
/// with a flush every 50 operations and 20 ms of simulated think time.
fn fs_office<S: Stack>(ctx: &Ctx, make: &dyn Fn(stack::Bridge) -> S) -> Res<Rep> {
    let setup = Instant::now();
    let files = scaled(OFFICE_FILES, ctx.div, 100);
    let ops = scaled(OFFICE_OPS, ctx.div, 100);
    let FsSetup {
        mut fs,
        mut corpus,
        pool,
        mut rng,
        mut hash,
        mut tally,
    } = fs_setup(ctx, make, files, 0x0ff1_ce00)?;
    let pool = &pool;
    let mut rep = Rep::default();
    let mut peaks = Peaks::default();
    let cache_base = cache_counts(fs.stack());
    rep.setup_ns = setup.elapsed().as_nanos() as u64;

    let phase = Instant::now();
    let mut meter = Meter::new(ctx.tracer);
    let hot = files / 5;
    let (mut reads, mut saves, mut temps, mut stats, mut lists) = (0, 0, 0, 0, 0);
    for op in 0..ops {
        let id = if rng.below(100) < 80 {
            rng.below(hot)
        } else {
            hot + rng.below(files - hot)
        };
        let name = file_name(id);
        let roll = rng.below(100);
        hash.mix(&[op, id, roll]);
        if roll < 60 {
            reads += 1;
            let got = meter.time(Some(Layer::Fs), || fs.read(&name));
            if let Some(data) = tally.host("read", got) {
                rep.blocks += blocks_of(data.len());
                let ok = corpus.matches(id, &data, pool);
                tally.expect(ok, || format!("{name} differs from its shadow"));
            }
        } else if roll < 85 {
            saves += 1;
            let old = corpus.files[id as usize];
            let len = (old.len as u64 * rng.range(90, 110) / 100)
                .clamp(FILE_MIN_BYTES, FILE_MAX_BYTES) as u32;
            let start =
                (old.start as u64 + 1 + rng.below(POOL_PAGES as u64 - 1)) as u8 % POOL_PAGES as u8;
            hash.mix(&[start as u64, len as u64]);
            let data = pool.file(start, len as usize);
            let done = meter.time(Some(Layer::Fs), || fs.write(&name, data));
            if tally.host("save", done).is_some() {
                corpus.files[id as usize] = FileShadow { start, len };
                rep.blocks += blocks_of(len as usize);
            }
        } else if roll < 93 {
            temps += 1;
            let temp = format!("t{op:06}.tmp");
            let len = rng.range(FILE_MIN_BYTES, 40_000) as usize;
            let data = pool.file(rng.below(POOL_PAGES as u64) as u8, len);
            hash.mix(&[len as u64]);
            let made = meter.time(Some(Layer::Fs), || fs.write(&temp, data));
            if tally.host("temp create", made).is_some() {
                rep.blocks += blocks_of(len);
            }
            let gone = meter.time(Some(Layer::Fs), || fs.delete(&temp));
            tally.host("temp delete", gone);
        } else if roll < 98 {
            stats += 1;
            let got = meter.time(Some(Layer::Fs), || fs.stat(&name));
            if let Some(size) = tally.host("stat", got) {
                let want = corpus.files[id as usize].len as u64;
                tally.expect(size == want, || format!("stat {name}: {size} != {want}"));
            }
        } else {
            lists += 1;
            let got = meter.time(Some(Layer::Fs), || fs.list());
            if let Some(n) = tally.host("list", got) {
                tally.expect(n as u64 == files, || format!("list: {n} != {files}"));
            }
        }

        let until = stack::now_us(fs.stack().bridge()) + OFFICE_THINK_US;
        meter.time(None, || fs.stack().advance_to(until));
        if (op + 1) % OFFICE_FLUSH_EVERY == 0 {
            let flushed = meter.time(None, || fs.stack().flush_cache());
            tally.host("flush", flushed);
        }
        dismiss_false_alarm(fs.stack(), &mut rep, &mut tally);
        if op % DRAM_SAMPLE_EVERY == 0 {
            peaks.sample(fs.stack());
        }
    }
    let flushed = meter.time(None, || fs.stack().flush_cache());
    tally.host("flush", flushed);
    peaks.sample(fs.stack());
    rep.cache = Some(cache_counts(fs.stack()) - cache_base);
    rep.timed_ns = meter.timed_ns;
    rep.driver_ns = (phase.elapsed().as_nanos() as u64).saturating_sub(rep.timed_ns);

    let mut fs = fs_remount(fs, make, &mut tally, &mut rep)?;
    if ctx.corrupt_shadow {
        corpus.files[0].start ^= 1;
    }
    corpus.verify_all(&mut fs, pool, &mut tally);
    fs_snapshot(fs, &mut rep);
    rep.op_counts = vec![
        ("files", files),
        ("ops", ops),
        ("reads", reads),
        ("saves", saves),
        ("temps", temps),
        ("stats", stats),
        ("lists", lists),
    ];
    finish(rep, tally, peaks, hash)
}

fn finish(mut rep: Rep, tally: Tally, peaks: Peaks, hash: StreamHash) -> Res<Rep> {
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    rep.dram_peak_bytes = peaks.dram_bytes;
    rep.queue_peak_entries = peaks.queue_entries;
    rep.stream_hash = hash.0;
    Ok(rep)
}

// ------------------------------------------------------ fs-attack-recover

/// The paper's headline path over a cache much smaller than the corpus.
/// Each cycle: the corpus ages 30 s; ransomware reads, encrypts and
/// overwrites files one by one, with a flush per file, until the device
/// raises the alarm (in place on even cycles, delete-then-write on odd
/// ones); the user confirms, the drive rolls back, the host reboots, runs
/// `fsck` twice and mounts; a cold scan then reads the whole corpus, and
/// every file must equal its pre-attack shadow. The last scan is the run's
/// final verification.
///
/// The scan follows recovery and not the ageing. Run right before the
/// attack, it leaves the whole (contiguous) corpus as one read run in the
/// detector's counting table, the overwrites then look like one long wipe
/// (`AVGWIO` in the hundreds) and the evolved tree votes benign until every
/// file is encrypted. That is a finding about the detector; a benchmark
/// workload may not contain an operation that fails.
fn fs_attack<S: Stack>(ctx: &Ctx, make: &dyn Fn(stack::Bridge) -> S) -> Res<Rep> {
    let setup = Instant::now();
    let files = scaled(ATTACK_FILES, ctx.div.min(3), 300);
    let cycles = scaled(ATTACK_CYCLES, ctx.div, 2);
    let FsSetup {
        fs,
        mut corpus,
        pool,
        mut rng,
        mut hash,
        mut tally,
    } = fs_setup(ctx, make, files, 0xa77a_c400)?;
    let pool = &pool;
    if ctx.corrupt_shadow {
        corpus.files[0].start ^= 1;
    }
    let mut rep = Rep::default();
    let mut peaks = Peaks::default();
    rep.setup_ns = setup.elapsed().as_nanos() as u64;

    // The power cycle comes before the first attack on this workload: a
    // power cut after a rollback brings the ciphertext back (the mount scan
    // lets the newest copy of a page win, and the rollback lives in DRAM
    // only), so at the end of the run it would lose files.
    let mut fs = fs_remount(fs, make, &mut tally, &mut rep)?;
    // Every cache of the measured phase starts cold, at a mount.
    let mut cache = CacheCounts::default();

    let phase = Instant::now();
    let mut meter = Meter::new(ctx.tracer);
    let mut attacked = 0;
    for cycle in 0..cycles {
        let until = stack::now_us(fs.stack().bridge()) + ATTACK_AGE_US;
        meter.time(None, || fs.stack().advance_to(until));
        dismiss_false_alarm(fs.stack(), &mut rep, &mut tally);

        // One pass over the files in a seeded order.
        let mut order: Vec<u64> = (0..files).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let attack_start = stack::now_us(fs.stack().bridge());
        let mut alarm_at = None;
        for &id in &order {
            let name = file_name(id);
            let len = corpus.files[id as usize].len as usize;
            let cipher = pool.ciphertext(rng.below(POOL_PAGES as u64) as u8, len);
            hash.mix(&[cycle, id, len as u64]);
            let plain = meter.time(Some(Layer::Fs), || fs.read(&name));
            if let Some(data) = tally.host("attack read", plain) {
                let ok = corpus.matches(id, &data, pool);
                tally.expect(ok, || format!("attack: {name} differs from its shadow"));
            }
            if cycle % 2 == 1 {
                let gone = meter.time(Some(Layer::Fs), || fs.delete(&name));
                tally.host("attack delete", gone);
            }
            let done = meter.time(Some(Layer::Fs), || fs.write(&name, cipher));
            tally.host("attack write", done);
            let flushed = meter.time(None, || fs.stack().flush_cache());
            tally.host("attack flush", flushed);
            let until = stack::now_us(fs.stack().bridge()) + ATTACK_THINK_US;
            meter.time(None, || fs.stack().advance_to(until));
            rep.blocks += 2 * blocks_of(len);
            attacked += 1;
            if stack::alarm_pending(fs.stack().bridge()) {
                alarm_at = Some(stack::now_us(fs.stack().bridge()));
                break;
            }
        }
        peaks.sample(fs.stack());
        tally.attempted += 1;
        let Some(alarm_at) = alarm_at else {
            tally.fail(|| format!("cycle {cycle}: every file encrypted and no alarm"));
            break;
        };
        rep.alarms += 1;
        rep.detect_latency_us.push(alarm_at - attack_start);

        // User confirmation → consistent mounted filesystem.
        cache += cache_counts(fs.stack());
        let started = Instant::now();
        let recovered = meter.time(None, || -> Res<Fs<S>> {
            let mut bridge = fs.into_stack().into_bridge();
            let (restored, rollback_ns) = spanned(ctx.tracer, Layer::Core, || {
                stack::confirm_and_reboot(&mut bridge)
            })?;
            rep.rollback_restored += restored;
            rep.rollback_ns += rollback_ns;
            let mut stack = make(bridge);
            for pass in 0..2 {
                let (repairs, checked) =
                    spanned(ctx.tracer, Layer::Fsck, || stack::fsck_pass(stack))?;
                stack = checked;
                tally.attempted += 1;
                if pass == 0 {
                    rep.fsck_repairs += repairs;
                } else {
                    tally.expect(repairs == 0, || {
                        format!("cycle {cycle}: second fsck pass found {repairs} problems")
                    });
                }
            }
            stack.flush_cache()?;
            spanned(ctx.tracer, Layer::Mount, || Fs::mount(stack))
        });
        fs = recovered?;
        rep.recover_ns.push(started.elapsed().as_nanos() as u64);
        tally.attempted += 1;

        // Cold scan of the recovered corpus against the pre-attack shadow.
        for id in 0..files {
            let name = file_name(id);
            let got = meter.time(Some(Layer::Fs), || fs.read(&name));
            let ok = tally.host("scan read", got).is_some_and(|data| {
                rep.blocks += blocks_of(data.len());
                corpus.matches(id, &data, pool)
            });
            if !tally.expect(ok, || format!("{name} was not recovered")) {
                rep.lost_files += 1;
            }
        }
        dismiss_false_alarm(fs.stack(), &mut rep, &mut tally);
        peaks.sample(fs.stack());
    }
    cache += cache_counts(fs.stack());
    rep.cache = Some(cache);
    rep.timed_ns = meter.timed_ns;
    rep.driver_ns = (phase.elapsed().as_nanos() as u64).saturating_sub(rep.timed_ns);

    fs_snapshot(fs, &mut rep);
    rep.op_counts = vec![
        ("files", files),
        ("cycles", cycles),
        ("files_attacked", attacked),
    ];
    finish(rep, tally, peaks, hash)
}

// -------------------------------------------------------- device workloads

#[derive(Debug, Clone, Copy)]
struct DevOp {
    lba: u64,
    len: u32,
    write: bool,
}

/// Pool page a logical page holds before its first overwrite; neighbours
/// differ, so a misdirected read is caught.
fn first_index(lba: u64) -> u8 {
    ((lba ^ (lba >> 6)) % POOL_PAGES as u64) as u8
}

const UNWRITTEN: u8 = u8::MAX;

/// `0..pages` as sequential extents.
fn sequential(pages: u64, write: bool) -> Vec<DevOp> {
    (0..pages)
        .step_by(PREFILL_EXTENT as usize)
        .map(|lba| DevOp {
            lba,
            len: (pages - lba).min(PREFILL_EXTENT as u64) as u32,
            write,
        })
        .collect()
}

/// State shared by the two device workloads: the stack, the per-page shadow
/// (which pool page each logical page holds) and the batch loop.
struct DevRun<'a, S: Stack> {
    stack: S,
    shadow: Vec<u8>,
    pages: Vec<Bytes>,
    meter: Meter<'a>,
    tally: Tally,
    hash: StreamHash,
    peaks: Peaks,
    rep: Rep,
    requests: u64,
    corrupt_shadow: bool,
}

impl<'a, S: Stack> DevRun<'a, S> {
    fn new(ctx: &Ctx<'a>, make: &dyn Fn(stack::Bridge) -> S) -> Self {
        let pool = Pool::new(ctx.seed);
        let stack = make(stack::new_bridge(&Tree::load(), DEV_PAGE_US));
        let logical = stack::logical_pages(&stack) as usize;
        DevRun {
            stack,
            shadow: vec![UNWRITTEN; logical],
            pages: (0..POOL_PAGES as u8).map(|i| pool.page(i)).collect(),
            meter: Meter::new(ctx.tracer),
            tally: Tally::default(),
            hash: StreamHash::new(),
            peaks: Peaks::default(),
            rep: Rep::default(),
            requests: 0,
            corrupt_shadow: ctx.corrupt_shadow,
        }
    }

    fn page_matches(&self, got: &Option<Bytes>, want: u8) -> bool {
        match got {
            None => want == UNWRITTEN,
            Some(_) if want == UNWRITTEN => false,
            Some(data) => {
                let page = &self.pages[want as usize];
                // The zero-copy path hands back the very buffer written;
                // fall back to comparing bytes if a copy was made.
                (data.as_ptr() == page.as_ptr() && data.len() == page.len()) || data == page
            }
        }
    }

    /// Issues `ops` back to back. Payloads and expected contents are worked
    /// out first and results compared afterwards, so with `timed` the clock
    /// covers product calls only.
    fn batch(&mut self, ops: &[DevOp], timed: bool) {
        let mut payloads: Vec<Vec<Bytes>> = Vec::new();
        let mut expected: Vec<u8> = Vec::new();
        for op in ops {
            self.hash.mix(&[op.write as u64, op.lba, op.len as u64]);
            let range = op.lba as usize..op.lba as usize + op.len as usize;
            if op.write {
                let mut data = Vec::with_capacity(op.len as usize);
                for lba in range {
                    let next = match self.shadow[lba] {
                        UNWRITTEN => first_index(lba as u64),
                        held => (held + 1) % POOL_PAGES as u8,
                    };
                    self.shadow[lba] = next;
                    data.push(self.pages[next as usize].clone());
                }
                payloads.push(data);
            } else {
                expected.extend_from_slice(&self.shadow[range]);
            }
        }

        let mut results: Vec<Res<Vec<Option<Bytes>>>> = Vec::new();
        let mut written: Vec<Res<()>> = Vec::new();
        let mut dismissed: Vec<Res<()>> = Vec::new();
        let stack = &mut self.stack;
        let mut issue = || {
            let mut payloads = payloads.iter();
            for op in ops {
                if op.write {
                    let data = payloads.next().expect("one payload per write");
                    written.push(stack::write_extent(stack, op.lba, data));
                } else {
                    results.push(stack::read_extent(stack, op.lba, op.len));
                }
                if stack::alarm_pending(stack.bridge()) {
                    dismissed.push(stack::dismiss_alarm(stack.bridge()));
                }
            }
        };
        if timed {
            self.meter.time(None, issue);
            self.rep.blocks += ops.iter().map(|op| op.len as u64).sum::<u64>();
        } else {
            issue();
        }
        self.rep.alarms += dismissed.len() as u64;
        self.rep.false_alarms += dismissed.len() as u64;

        for done in written {
            self.tally.host("write", done);
        }
        for done in dismissed {
            self.tally.host("dismiss_alarm", done);
        }
        let mut at = 0;
        for (op, got) in ops.iter().filter(|op| !op.write).zip(results) {
            let want = &expected[at..at + op.len as usize];
            at += op.len as usize;
            if let Some(pages) = self.tally.host("read", got) {
                let ok = pages.len() == want.len()
                    && pages
                        .iter()
                        .zip(want)
                        .all(|(p, w)| self.page_matches(p, *w));
                self.tally.expect(ok, || {
                    format!(
                        "read of {} pages at {} differs from the shadow",
                        op.len, op.lba
                    )
                });
            }
        }
        self.requests += ops.len() as u64;
        if self.requests % DRAM_SAMPLE_EVERY < ops.len() as u64 {
            self.peaks.sample(&mut self.stack);
        }
    }

    /// Builds the stack and fills `percent` % of the logical space
    /// sequentially, then idles 20 s so the fill's recovery-queue entries
    /// retire before the measured phase. Returns the pages filled.
    fn start(
        ctx: &Ctx<'a>,
        make: &dyn Fn(stack::Bridge) -> S,
        percent: u64,
        setup: Instant,
    ) -> (Self, u64) {
        let mut run = DevRun::new(ctx, make);
        let filled = stack::logical_pages(&run.stack) * percent / 100;
        for chunk in sequential(filled, true).chunks(DEV_BATCH) {
            run.batch(chunk, false);
        }
        let until = stack::now_us(run.stack.bridge()) + DEV_IDLE_US;
        run.stack.advance_to(until);
        run.rep.setup_ns = setup.elapsed().as_nanos() as u64;
        (run, filled)
    }

    /// The measured phase — `requests` requests from `next`, in batches —
    /// then the end of a device run: power loss and mount, and every
    /// written page read back against the shadow.
    fn measure(mut self, filled: u64, requests: u64, mut next: impl FnMut() -> DevOp) -> Res<Rep> {
        let phase = Instant::now();
        let mut ops = Vec::with_capacity(DEV_BATCH);
        let mut issued = 0;
        while issued < requests {
            ops.clear();
            while ops.len() < DEV_BATCH && issued < requests {
                ops.push(next());
                issued += 1;
            }
            self.batch(&ops, true);
        }
        self.peaks.sample(&mut self.stack);
        self.rep.timed_ns = self.meter.timed_ns;
        self.rep.driver_ns = (phase.elapsed().as_nanos() as u64).saturating_sub(self.rep.timed_ns);

        self.rep.remount_ns = u64::MAX;
        for _ in 0..REMOUNTS {
            let started = Instant::now();
            stack::power_cycle(self.stack.bridge())?;
            let took = started.elapsed().as_nanos() as u64;
            self.rep.remount_ns = self.rep.remount_ns.min(took);
            self.tally.attempted += 1;
        }
        let written = self
            .shadow
            .iter()
            .rposition(|&held| held != UNWRITTEN)
            .map_or(0, |last| last as u64 + 1);
        if self.corrupt_shadow {
            self.shadow[0] ^= 1;
        }
        // The read-back is not part of the generated stream.
        let hash = self.hash;
        for chunk in sequential(written, false).chunks(DEV_BATCH) {
            self.batch(chunk, false);
        }
        let mut bridge = self.stack.into_bridge();
        self.rep.gc_wall_ns = stack::gc_wall_ns(&bridge);
        self.rep.device = stack::snapshot(&mut bridge);
        self.rep.op_counts = vec![("prefill_pages", filled), ("requests", requests)];
        finish(self.rep, self.tally, self.peaks, hash)
    }
}

/// Garbage collection under delayed deletion: fill 70 % of the logical
/// space, then extents of 1–8 pages, two thirds writes and one third reads,
/// 80 % of them in the hottest quarter of the filled space.
fn dev_churn<S: Stack>(ctx: &Ctx, make: &dyn Fn(stack::Bridge) -> S) -> Res<Rep> {
    let (run, filled) = DevRun::start(ctx, make, CHURN_PREFILL_PCT, Instant::now());
    let mut rng = SplitMix64::new(ctx.seed ^ 0xc4);
    let hot = filled / 4;
    run.measure(filled, scaled(CHURN_REQUESTS, ctx.div, 1000), || {
        let len = rng.range(1, 8);
        let (base, span) = if rng.below(100) < 80 {
            (0, hot)
        } else {
            (hot, filled - hot)
        };
        DevOp {
            lba: base + rng.below(span - len + 1),
            len: len as u32,
            write: rng.below(3) < 2,
        }
    })
}

/// The read path: fill 50 %, then 45 % sequential 128-page scans, 54 %
/// random reads of 1–8 pages and 1 % log appends into space that is never
/// read. Garbage collection must stay idle.
fn dev_read<S: Stack>(ctx: &Ctx, make: &dyn Fn(stack::Bridge) -> S) -> Res<Rep> {
    let (run, filled) = DevRun::start(ctx, make, READ_PREFILL_PCT, Instant::now());
    let logical = stack::logical_pages(&run.stack);
    let mut rng = SplitMix64::new(ctx.seed ^ 0x7ead);
    let mut scan_at = 0;
    let mut append_at = filled;
    run.measure(filled, scaled(READ_REQUESTS, ctx.div, 1000), || {
        let roll = rng.below(100);
        if roll < 45 {
            if scan_at + SCAN_PAGES as u64 > filled {
                scan_at = 0;
            }
            let lba = scan_at;
            scan_at += SCAN_PAGES as u64;
            DevOp {
                lba,
                len: SCAN_PAGES,
                write: false,
            }
        } else if roll < 99 {
            let len = rng.range(1, 8);
            DevOp {
                lba: rng.below(filled - len + 1),
                len: len as u32,
                write: false,
            }
        } else {
            let len = rng.range(1, 8).min(logical - append_at);
            assert!(len > 0, "log appends ran out of logical space");
            let lba = append_at;
            append_at += len;
            DevOp {
                lba,
                len: len as u32,
                write: true,
            }
        }
    })
}
