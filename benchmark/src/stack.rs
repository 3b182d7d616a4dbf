//! Every call the benchmark makes into the product.
//!
//! The stack under test is built exactly as the CLI and the examples build
//! it: `InsiderConfig::new(geometry)` for the device and
//! `FsBridge::new(..).cached(n)` for the host side. No `FtlConfig` builder
//! knob is named, so whatever the default configuration does is what gets
//! measured. The one exception is [`FtlReplay::new`], which can switch
//! `capture_commands` on for a standalone FTL of the traced pass.
//!
//! Other modules see simulated time as plain microseconds and errors as
//! strings; product types stay in this file.

use crate::trace::{Layer, Request, Tracer};
use bytes::Bytes;
use insider_detect::{
    payload_entropy_milli, DecisionTree, Detector, IoMode, IoReq, ENTROPY_SAMPLE_BYTES,
};
use insider_fs::{fsck, BlockCache, BlockDev, FsConfig, MiniExt};
use insider_ftl::{Ftl, InsiderFtl};
use insider_nand::{CmdRecord, FaultKind, Geometry, Lba, NandDevice, OobTag, Pba, Ppa, SimTime};
use ssd_insider::{CachedFsBridge, DeviceState, DramUsage, FsBridge, InsiderConfig, SsdInsider};
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// The device behind its filesystem bridge: what every stack is built on.
pub type Bridge = FsBridge;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// 2 channels × 4 chips × 512 blocks × 64 pages × 4 KiB: 1 GiB raw.
pub fn geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(512)
        .pages_per_block(64)
        .page_size(crate::gen::PAGE as u32)
        .build()
}

/// The evolved decision tree, from the committed fixture.
#[derive(Debug, Clone)]
pub struct Tree(DecisionTree);

impl Tree {
    /// # Panics
    ///
    /// Panics if the fixture does not parse: a benchmark that silently fell
    /// back to a stump would report detection numbers for another detector.
    pub fn load() -> Self {
        let json = include_str!("../fixtures/tree-evolved.json");
        let tree = DecisionTree::from_json(json).expect(
            "fixtures/tree-evolved.json must hold a DecisionTree (see README to regenerate)",
        );
        assert!(tree.node_count() > 3, "tree fixture is a stump");
        Tree(tree)
    }
}

/// A default device behind its filesystem bridge, clock at zero, advancing
/// `per_block_us` of simulated time per block moved.
pub fn new_bridge(tree: &Tree, per_block_us: u64) -> FsBridge {
    let device = SsdInsider::new(InsiderConfig::new(geometry()), tree.0.clone());
    FsBridge::new(device, SimTime::ZERO, SimTime::from_micros(per_block_us))
}

// ---------------------------------------------------------------- stacks

/// The block cache's counters, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub evictions: u64,
}

impl std::ops::Sub for CacheCounts {
    type Output = CacheCounts;

    fn sub(self, rhs: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            writebacks: self.writebacks - rhs.writebacks,
            evictions: self.evictions - rhs.evictions,
        }
    }
}

impl std::ops::AddAssign for CacheCounts {
    fn add_assign(&mut self, rhs: CacheCounts) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.writebacks += rhs.writebacks;
        self.evictions += rhs.evictions;
    }
}

/// What a workload needs from whatever sits between it and the device,
/// beyond block I/O: the bridge (clock, alarm handling), the cache's flush
/// and counters, and a way back to the bare bridge.
pub trait Stack: BlockDev {
    fn bridge(&mut self) -> &mut FsBridge;
    /// Idle until simulated time `us`: the device closes detector slices
    /// and retires expired recovery-queue entries.
    fn advance_to(&mut self, us: u64);
    fn flush_cache(&mut self) -> Res<()>;
    fn cache_counts(&self) -> Option<CacheCounts>;
    /// Drops everything above the bridge, unflushed cache contents too, as
    /// a host reboot does.
    fn into_bridge(self) -> FsBridge;
}

impl Stack for FsBridge {
    fn bridge(&mut self) -> &mut FsBridge {
        self
    }

    fn advance_to(&mut self, us: u64) {
        self.advance(SimTime::from_micros(us));
    }

    fn flush_cache(&mut self) -> Res<()> {
        Ok(())
    }

    fn cache_counts(&self) -> Option<CacheCounts> {
        None
    }

    fn into_bridge(self) -> FsBridge {
        self
    }
}

impl<D: Stack> Stack for BlockCache<D> {
    fn bridge(&mut self) -> &mut FsBridge {
        self.inner_mut().bridge()
    }

    fn advance_to(&mut self, us: u64) {
        self.inner_mut().advance_to(us);
    }

    fn flush_cache(&mut self) -> Res<()> {
        self.flush().map_err(err)
    }

    fn cache_counts(&self) -> Option<CacheCounts> {
        let stats = self.stats();
        Some(CacheCounts {
            hits: stats.hits,
            misses: stats.misses,
            writebacks: stats.writebacks,
            evictions: stats.evictions,
        })
    }

    fn into_bridge(self) -> FsBridge {
        self.into_inner_discarding().into_bridge()
    }
}

/// Timing shim: a [`BlockDev`] that records a span around every call into
/// the device below it. The shim at the device boundary also captures the
/// request stream.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    layer: Layer,
    tracer: Tracer,
    /// Simulated clock of the device below, set on the boundary shim only.
    clock: Option<fn(&D) -> SimTime>,
}

impl<D> Timed<D> {
    fn span<T>(&mut self, layer: Layer, call: impl FnOnce(&mut D) -> T) -> T {
        let inner = &mut self.inner;
        self.tracer.span(layer, || call(inner))
    }

    fn capture(&self, req: impl FnOnce() -> Request) {
        if let Some(clock) = self.clock {
            self.tracer.capture(clock(&self.inner).as_micros(), req());
        }
    }
}

impl<D: BlockDev> BlockDev for Timed<D> {
    fn read_block(&mut self, index: u64) -> insider_fs::Result<Option<Bytes>> {
        self.capture(|| Request::Read { lba: index, len: 1 });
        self.span(self.layer, |d| d.read_block(index))
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> insider_fs::Result<()> {
        self.capture(|| Request::Write {
            lba: index,
            data: vec![data.clone()],
        });
        self.span(self.layer, |d| d.write_block(index, data))
    }

    fn trim_block(&mut self, index: u64) -> insider_fs::Result<()> {
        self.capture(|| Request::Trim { lba: index, len: 1 });
        self.span(self.layer, |d| d.trim_block(index))
    }

    fn read_blocks(&mut self, index: u64, count: u64) -> insider_fs::Result<Vec<Option<Bytes>>> {
        self.capture(|| Request::Read {
            lba: index,
            len: count as u32,
        });
        self.span(self.layer, |d| d.read_blocks(index, count))
    }

    fn write_blocks(&mut self, index: u64, data: &[Bytes]) -> insider_fs::Result<()> {
        self.capture(|| Request::Write {
            lba: index,
            data: data.to_vec(),
        });
        self.span(self.layer, |d| d.write_blocks(index, data))
    }

    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
}

impl<D: Stack> Stack for Timed<D> {
    fn bridge(&mut self) -> &mut FsBridge {
        self.inner.bridge()
    }

    fn advance_to(&mut self, us: u64) {
        if self.clock.is_some() {
            self.tracer.capture(us, Request::Poll);
            self.span(Layer::Core, |d| d.advance_to(us));
        } else {
            self.inner.advance_to(us);
        }
    }

    fn flush_cache(&mut self) -> Res<()> {
        if self.layer == Layer::Cache {
            self.span(Layer::Flush, |d| d.flush_cache())
        } else {
            self.inner.flush_cache()
        }
    }

    fn cache_counts(&self) -> Option<CacheCounts> {
        self.inner.cache_counts()
    }

    fn into_bridge(self) -> FsBridge {
        self.inner.into_bridge()
    }
}

/// The traced device boundary.
pub type TracedDev = Timed<FsBridge>;
/// The traced filesystem stack: a shim above the cache and one above the
/// bridge.
pub type TracedFs = Timed<BlockCache<TracedDev>>;

/// The host side as every example builds it.
pub fn plain_fs(bridge: FsBridge, cache_blocks: usize) -> CachedFsBridge {
    bridge.cached(cache_blocks)
}

pub fn traced_dev(bridge: FsBridge, tracer: &Tracer) -> TracedDev {
    Timed {
        inner: bridge,
        layer: Layer::Core,
        tracer: tracer.clone(),
        clock: Some(FsBridge::now),
    }
}

pub fn traced_fs(bridge: FsBridge, cache_blocks: usize, tracer: &Tracer) -> TracedFs {
    Timed {
        inner: BlockCache::new(traced_dev(bridge, tracer), cache_blocks),
        layer: Layer::Cache,
        tracer: tracer.clone(),
        clock: None,
    }
}

// ------------------------------------------------------------ block I/O

pub fn read_extent<S: Stack>(stack: &mut S, lba: u64, len: u32) -> Res<Vec<Option<Bytes>>> {
    stack.read_blocks(lba, len as u64).map_err(err)
}

pub fn write_extent<S: Stack>(stack: &mut S, lba: u64, data: &[Bytes]) -> Res<()> {
    stack.write_blocks(lba, data).map_err(err)
}

pub fn logical_pages<S: Stack>(stack: &S) -> u64 {
    stack.block_count()
}

// ----------------------------------------------------------- filesystem

/// MiniExt mounted on a stack.
#[derive(Debug)]
pub struct Fs<S: Stack>(MiniExt<S>);

impl<S: Stack> Fs<S> {
    pub fn format(stack: S, inode_count: u32) -> Res<Self> {
        MiniExt::format(stack, &FsConfig { inode_count })
            .map(Fs)
            .map_err(err)
    }

    pub fn mount(stack: S) -> Res<Self> {
        MiniExt::mount(stack).map(Fs).map_err(err)
    }

    pub fn read(&mut self, name: &str) -> Res<Vec<u8>> {
        self.0.read_file(name).map_err(err)
    }

    pub fn write(&mut self, name: &str, data: Bytes) -> Res<()> {
        self.0.write_file_bytes(name, data).map_err(err)
    }

    pub fn delete(&mut self, name: &str) -> Res<()> {
        self.0.delete(name).map_err(err)
    }

    /// The file's size in bytes.
    pub fn stat(&mut self, name: &str) -> Res<u64> {
        self.0.stat(name).map(|inode| inode.size).map_err(err)
    }

    /// Number of directory entries.
    pub fn list(&mut self) -> Res<usize> {
        self.0.list().map(|names| names.len()).map_err(err)
    }

    pub fn stack(&mut self) -> &mut S {
        self.0.dev_mut()
    }

    pub fn into_stack(self) -> S {
        self.0.into_dev()
    }
}

/// One `fsck` pass; returns how many findings it repaired.
pub fn fsck_pass<S: Stack>(stack: S) -> Res<(u64, S)> {
    let (report, stack) = fsck(stack).map_err(err)?;
    Ok((report.total(), stack))
}

// ------------------------------------------------------- device control

pub fn now_us(bridge: &FsBridge) -> u64 {
    bridge.now().as_micros()
}

pub fn alarm_pending(bridge: &FsBridge) -> bool {
    bridge.device().state() == DeviceState::Suspicious
}

pub fn dismiss_alarm(bridge: &mut FsBridge) -> Res<()> {
    bridge.device_mut().dismiss_alarm().map_err(err)
}

/// The user confirms the alarm and the host reboots: rollback, then leave
/// read-only mode. Returns restored mapping entries and the wall time of
/// the rollback alone.
pub fn confirm_and_reboot(bridge: &mut FsBridge) -> Res<(u64, u64)> {
    let now = bridge.now();
    let started = Instant::now();
    let report = bridge.device_mut().confirm_and_recover(now).map_err(err)?;
    let rollback_ns = started.elapsed().as_nanos() as u64;
    bridge.device_mut().reboot().map_err(err)?;
    Ok((report.restored, rollback_ns))
}

/// Sudden power loss and power-on mount of the device.
pub fn power_cycle(bridge: &mut FsBridge) -> Res<()> {
    let now = bridge.now();
    bridge.device_mut().power_cut(now).map_err(err)
}

/// Table III DRAM bill of the device's structures right now.
pub fn dram_bytes(bridge: &FsBridge) -> u64 {
    DramUsage::measure(bridge.device()).total_bytes() as u64
}

pub fn recovery_queue_entries(bridge: &FsBridge) -> u64 {
    bridge.device().ftl().recovery_queue().len() as u64
}

/// Wall-clock nanoseconds the FTL's own timer has spent in garbage
/// collection.
pub fn gc_wall_ns(bridge: &FsBridge) -> u64 {
    bridge.device().ftl_stats().gc_ns
}

/// Every simulated-time and count statistic the device exposes, as plain
/// numbers. Two runs of the same inputs must produce equal snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub host_reads: u64,
    pub host_writes: u64,
    pub host_trims: u64,
    pub gc_invocations: u64,
    pub gc_page_copies: u64,
    pub gc_protected_copies: u64,
    pub gc_erases: u64,
    pub mounts: u64,
    pub mount_scanned: u64,
    pub nand_reads: u64,
    pub nand_programs: u64,
    pub nand_erases: u64,
    pub erases_suspended: u64,
    pub reads_promoted: u64,
    pub gc_stalled_cmds: u64,
    pub gc_stall_ns: u64,
    pub pacing_stalls: u64,
    pub pacing_stall_ns: u64,
    pub busy_serial_ns: u64,
    pub makespan_ns: u64,
    pub dies: u64,
    pub host_p50_ns: u64,
    pub host_samples: u64,
    pub read_mean_ns: u64,
    pub read_p99_ns: u64,
    pub read_samples: u64,
    pub write_mean_ns: u64,
    pub write_p99_ns: u64,
    pub write_samples: u64,
    pub gc_pause_p99_ns: u64,
}

/// Drains the NAND scheduler and reads every statistic.
///
/// # Panics
///
/// Panics if the device keeps no latency histograms (the legacy makespan
/// model): the benchmark's simulated latencies would all read zero.
pub fn snapshot(bridge: &mut FsBridge) -> DeviceSnapshot {
    let ssd: &mut SsdInsider = bridge.device_mut();
    ssd.sync();
    let lat = ssd
        .host_latency_snapshot()
        .expect("the default NAND scheduler must keep host latency histograms");
    let ftl = *ssd.ftl_stats();
    let nand = ssd.nand_stats().clone();
    let (busy_serial_ns, makespan_ns) = ssd.nand_busy_ns();
    let (pacing_stalls, pacing_stall_ns) = ssd.pacing_stats();
    DeviceSnapshot {
        host_reads: ftl.host_reads,
        host_writes: ftl.host_writes,
        host_trims: ftl.host_trims,
        gc_invocations: ftl.gc_invocations,
        gc_page_copies: ftl.gc_page_copies,
        gc_protected_copies: ftl.gc_protected_copies,
        gc_erases: ftl.gc_erases,
        mounts: ftl.mounts,
        mount_scanned: ssd.ftl().mount_scan_entries(),
        nand_reads: nand.reads,
        nand_programs: nand.programs,
        nand_erases: nand.erases,
        erases_suspended: nand.erases_suspended,
        reads_promoted: ssd.ftl().reads_promoted(),
        gc_stalled_cmds: nand.gc_stalled_cmds,
        gc_stall_ns: nand.gc_stall_ns,
        pacing_stalls,
        pacing_stall_ns,
        busy_serial_ns,
        makespan_ns,
        dies: nand.die_busy_ns.len() as u64,
        host_p50_ns: lat.total.p50_ns,
        host_samples: lat.total.count,
        read_mean_ns: lat.read.mean_ns,
        read_p99_ns: lat.read.p99_ns,
        read_samples: lat.read.count,
        write_mean_ns: lat.program.mean_ns,
        write_p99_ns: lat.program.p99_ns,
        write_samples: lat.program.count,
        gc_pause_p99_ns: ssd.gc_pause_latency().p99_ns,
    }
}

// -------------------------------------------------------------- replays

/// The entropy stamp `SsdInsider::write_extent` computes for an extent:
/// `payload_entropy_milli` over the leading `ENTROPY_SAMPLE_BYTES`, gathered
/// into one buffer the same way.
pub fn entropy_stamp(data: &[Bytes]) -> u16 {
    let mut sample = [0u8; ENTROPY_SAMPLE_BYTES];
    let mut n = 0;
    for block in data {
        if n == ENTROPY_SAMPLE_BYTES {
            break;
        }
        let take = block.len().min(ENTROPY_SAMPLE_BYTES - n);
        sample[n..n + take].copy_from_slice(&block[..take]);
        n += take;
    }
    payload_entropy_milli(&sample[..n])
}

/// A detector on its own, fed the captured request headers.
#[derive(Debug)]
pub struct DetectorReplay {
    detector: Detector,
    pub reqs: u64,
    pub slices: u64,
    pub positive_votes: u64,
    pub table_peak_entries: u64,
}

impl DetectorReplay {
    pub fn new(tree: &Tree) -> Self {
        let config = *InsiderConfig::new(geometry()).detector();
        DetectorReplay {
            detector: Detector::new(config, tree.0.clone()),
            reqs: 0,
            slices: 0,
            positive_votes: 0,
            table_peak_entries: 0,
        }
    }

    /// `stamp` is the entropy stamp of a write's payload.
    pub fn feed(&mut self, at_us: u64, req: &Request, stamp: Option<u16>) {
        let at = SimTime::from_micros(at_us);
        let verdicts = match req {
            Request::Read { lba, len } => {
                self.detector
                    .ingest(IoReq::new(at, Lba::new(*lba), IoMode::Read, *len))
            }
            Request::Write { lba, data } => self.detector.ingest(
                IoReq::new(at, Lba::new(*lba), IoMode::Write, data.len() as u32)
                    .with_entropy_milli(stamp.expect("a write carries an entropy stamp")),
            ),
            Request::Trim { lba, len } => {
                self.detector
                    .ingest(IoReq::new(at, Lba::new(*lba), IoMode::Trim, *len))
            }
            Request::Poll => self.detector.flush_until(at),
        };
        self.reqs += 1;
        self.slices += verdicts.len() as u64;
        self.positive_votes += verdicts.iter().filter(|v| v.vote).count() as u64;
        if self.reqs.is_multiple_of(64) {
            let entries = self.detector.status().table_entries as u64;
            self.table_peak_entries = self.table_peak_entries.max(entries);
        }
    }
}

/// NAND commands captured from the standalone FTL, in submission order.
#[derive(Debug, Default)]
pub struct Commands(Vec<CmdRecord>);

impl Commands {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// An FTL on its own, driven through the `Ftl` extent methods.
#[derive(Debug)]
pub struct FtlReplay(InsiderFtl);

impl FtlReplay {
    /// The default FTL configuration. `capture` switches command capture on
    /// — the benchmark's only use of an `FtlConfig` builder knob — for the
    /// instance that hands the NAND replay its command stream; the instance
    /// that is timed runs without it, as the device's own FTL does.
    pub fn new(capture: bool) -> Self {
        let config = InsiderConfig::new(geometry()).ftl().clone();
        FtlReplay(InsiderFtl::new(if capture {
            config.capture_commands(true)
        } else {
            config
        }))
    }

    pub fn apply(&mut self, at_us: u64, req: &Request) -> Res<()> {
        let at = SimTime::from_micros(at_us);
        match req {
            Request::Read { lba, len } => self
                .0
                .read_extent(Lba::new(*lba), *len, at)
                .map(drop)
                .map_err(err),
            Request::Write { lba, data } => {
                self.0.write_extent(Lba::new(*lba), data, at).map_err(err)
            }
            Request::Trim { lba, len } => self.0.trim_extent(Lba::new(*lba), *len, at).map_err(err),
            Request::Poll => Ok(()),
        }
    }

    /// Takes the NAND commands issued since the last call.
    pub fn drain(&mut self) -> Commands {
        let mut cmds = self.0.take_captured_commands();
        cmds.sort_unstable_by_key(|c| c.submit);
        Commands(cmds)
    }
}

/// A NAND device on its own, fed the captured command stream. Commands
/// submitted together (same kind, same arrival) go down as one grouped
/// call, as the FTL issues an extent.
#[derive(Debug)]
pub struct NandReplay {
    device: NandDevice,
    filler: Bytes,
}

impl NandReplay {
    /// `filler` stands in for every programmed payload; the NAND model's
    /// cost does not depend on page contents.
    pub fn new(filler: Bytes) -> Self {
        let config = InsiderConfig::new(geometry()).ftl().nand().clone();
        NandReplay {
            device: NandDevice::new(config),
            filler,
        }
    }

    pub fn apply(&mut self, cmds: &Commands) -> Res<()> {
        let mut at = 0;
        while at < cmds.0.len() {
            let head = cmds.0[at];
            let mut end = at + 1;
            while end < cmds.0.len()
                && cmds.0[end].kind == head.kind
                && cmds.0[end].arrival_ns == head.arrival_ns
            {
                end += 1;
            }
            let group = &cmds.0[at..end];
            at = end;
            let stamp = SimTime::from_micros(head.arrival_ns / 1000);
            self.device.set_now(stamp);
            match head.kind {
                FaultKind::Read => {
                    let ppas: Vec<Ppa> = group.iter().map(|c| Ppa::new(c.page)).collect();
                    self.device.read_pages(&ppas).map(drop).map_err(err)?;
                }
                FaultKind::Program => {
                    let pages = group
                        .iter()
                        .map(|c| {
                            let tag = OobTag::live(Lba::new(c.page), stamp);
                            (Ppa::new(c.page), self.filler.clone(), tag)
                        })
                        .collect();
                    self.device.program_pages_tagged(pages).1.map_err(err)?;
                }
                FaultKind::Erase => {
                    for c in group {
                        self.device.erase(Pba::new(c.block as u32)).map_err(err)?;
                    }
                }
            }
        }
        Ok(())
    }
}
