//! Adapter mounting a MiniExt filesystem on an SSD-Insider device.

use crate::device::SsdInsider;
use crate::DeviceError;
use bytes::Bytes;
use insider_fs::{BlockCache, BlockDev, FsError};
use insider_nand::{Lba, SimTime};

/// An [`FsBridge`] behind the write-back block buffer cache — what a host
/// with a page cache looks like to the device. Reads served from DRAM never
/// reach the SSD; writes reach it on eviction or [`BlockCache::flush`]
/// (the `sync` boundary).
pub type CachedFsBridge = BlockCache<FsBridge>;

/// Bridges [`SsdInsider`] to the [`BlockDev`] trait so MiniExt can mount on
/// it (the Table II consistency experiment).
///
/// The filesystem layer is timeless, so the bridge carries a clock: every
/// block operation happens at the current clock value, and the driver
/// advances the clock with [`FsBridge::advance`] (or a fixed
/// [`per_op`](FsBridge::new) increment) to model real time passing.
#[derive(Debug)]
pub struct FsBridge {
    device: SsdInsider,
    now: SimTime,
    per_op: SimTime,
}

impl FsBridge {
    /// Wraps `device`, starting the clock at `start` and advancing it by
    /// `per_op` after every block operation.
    pub fn new(device: SsdInsider, start: SimTime, per_op: SimTime) -> Self {
        FsBridge {
            device,
            now: start,
            per_op,
        }
    }

    /// The current clock value.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jumps the clock forward to `now` (panics in debug if moving backwards).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "clock must not move backwards");
        self.now = now;
        self.device.poll(now);
    }

    /// The wrapped device.
    pub fn device(&self) -> &SsdInsider {
        &self.device
    }

    /// Mutable access to the wrapped device (alarm handling, recovery).
    pub fn device_mut(&mut self) -> &mut SsdInsider {
        &mut self.device
    }

    /// Unwraps the device.
    pub fn into_device(self) -> SsdInsider {
        self.device
    }

    /// Wraps the bridge in a write-back buffer cache of `capacity` blocks.
    /// Remember to [`flush`](BlockCache::flush) before durability points —
    /// unflushed writes are DRAM-only and will not survive a power cut.
    pub fn cached(self, capacity: usize) -> CachedFsBridge {
        BlockCache::new(self, capacity)
    }

    /// Advances the clock by `n` block operations: an extent of `n` blocks
    /// costs the same simulated time as `n` one-block requests.
    fn tick_n(&mut self, n: u64) {
        self.now += SimTime::from_micros(self.per_op.as_micros() * n);
    }
}

fn to_fs_error(e: DeviceError) -> FsError {
    FsError::Device(e.to_string())
}

impl BlockDev for FsBridge {
    fn read_block(&mut self, index: u64) -> insider_fs::Result<Option<Bytes>> {
        self.read_blocks(index, 1)
            .map(|mut blocks| blocks.pop().flatten())
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> insider_fs::Result<()> {
        self.write_blocks(index, &[data])
    }

    fn trim_block(&mut self, index: u64) -> insider_fs::Result<()> {
        let out = self
            .device
            .trim_extent(Lba::new(index), 1, self.now)
            .map_err(to_fs_error);
        self.tick_n(1);
        out
    }

    fn read_blocks(&mut self, index: u64, count: u64) -> insider_fs::Result<Vec<Option<Bytes>>> {
        // The device addresses extents with a 32-bit length; a longer read
        // cannot be in range on any geometry, so refuse it rather than
        // truncate it.
        let len = u32::try_from(count)
            .map_err(|_| FsError::BlockOutOfRange(index.saturating_add(count)))?;
        let out = self
            .device
            .read_extent(Lba::new(index), len, self.now)
            .map_err(to_fs_error);
        self.tick_n(count);
        out
    }

    fn write_blocks(&mut self, index: u64, data: &[Bytes]) -> insider_fs::Result<()> {
        let out = self
            .device
            .write_extent(Lba::new(index), data, self.now)
            .map_err(to_fs_error);
        self.tick_n(data.len() as u64);
        out
    }

    fn block_size(&self) -> u32 {
        self.device.ftl().config().geometry().page_size()
    }

    fn block_count(&self) -> u64 {
        self.device.logical_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InsiderConfig;
    use crate::state::DeviceState;
    use insider_detect::DecisionTree;
    use insider_fs::{FsConfig, MiniExt};
    use insider_nand::Geometry;

    fn bridge(tree: DecisionTree) -> FsBridge {
        let geometry = Geometry::builder()
            .blocks_per_chip(64)
            .pages_per_block(16)
            .page_size(4096)
            .build();
        let device = SsdInsider::new(InsiderConfig::new(geometry), tree);
        FsBridge::new(device, SimTime::ZERO, SimTime::from_micros(50))
    }

    #[test]
    fn filesystem_mounts_and_works_on_the_device() {
        let b = bridge(DecisionTree::constant(false));
        let mut fs = MiniExt::format(b, &FsConfig { inode_count: 64 }).unwrap();
        fs.write_file("hello.txt", b"from miniext on ssd-insider")
            .unwrap();
        assert_eq!(
            fs.read_file("hello.txt").unwrap(),
            b"from miniext on ssd-insider"
        );
        let bridge = fs.into_dev();
        assert!(bridge.now() > SimTime::ZERO);
    }

    #[test]
    fn fs_level_ransomware_raises_device_alarm() {
        let b = bridge(DecisionTree::stump(0, 0.5));
        let mut fs = MiniExt::format(b, &FsConfig { inode_count: 64 }).unwrap();
        for i in 0..12 {
            fs.write_file(&format!("doc{i}"), &[0x5a; 12_000]).unwrap();
        }
        // Encrypt like ransomware: read, then overwrite in place, spread
        // over simulated seconds.
        let mut i = 0;
        while fs.dev_mut().device().state() == DeviceState::Normal {
            let name = format!("doc{}", i % 12);
            let data = fs.read_file(&name).unwrap();
            let cipher: Vec<u8> = data.iter().map(|b| b ^ 0xaa).collect();
            fs.write_file(&name, &cipher).unwrap();
            let t = fs.dev_mut().now() + SimTime::from_millis(300);
            fs.dev_mut().advance(t);
            i += 1;
            assert!(i < 500, "alarm never fired");
        }
        assert_eq!(fs.dev_mut().device().state(), DeviceState::Suspicious);
    }

    #[test]
    fn cached_bridge_absorbs_rereads_and_flushes_to_flash() {
        let cached = bridge(DecisionTree::constant(false)).cached(128);
        let mut fs = MiniExt::format(cached, &FsConfig { inode_count: 64 }).unwrap();
        fs.write_file("doc", b"buffer me").unwrap();
        // Re-reads of a resident file are cache hits — the device sees no
        // new read traffic.
        let reads_before = fs.dev_mut().inner().device().ftl().stats().host_reads;
        for _ in 0..5 {
            assert_eq!(fs.read_file("doc").unwrap(), b"buffer me");
        }
        let reads_after = fs.dev_mut().inner().device().ftl().stats().host_reads;
        assert_eq!(
            reads_after, reads_before,
            "re-reads must not reach the device"
        );
        assert!(fs.dev_mut().stats().hits > 0);
        // Flush is the durability boundary: after it, the file survives a
        // power cut on the raw device.
        fs.dev_mut().flush().unwrap();
        let mut raw = fs.into_dev().into_inner().unwrap();
        let t = raw.now();
        raw.device_mut().power_cut(t).unwrap();
        let mut fs = MiniExt::mount(raw).unwrap();
        assert_eq!(fs.read_file("doc").unwrap(), b"buffer me");
    }

    #[test]
    fn clock_advances_per_operation() {
        let mut b = bridge(DecisionTree::constant(false));
        let t0 = b.now();
        b.write_block(0, Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.now(), t0 + SimTime::from_micros(50));
    }

    #[test]
    fn read_count_beyond_u32_is_refused_not_truncated() {
        let mut b = bridge(DecisionTree::constant(false));
        b.write_block(0, Bytes::from_static(b"x")).unwrap();
        let t0 = b.now();
        let footprint = |d: &SsdInsider| {
            (
                *d.ftl_stats(),
                d.nand_stats().clone(),
                d.detector().status(),
            )
        };
        let before = footprint(b.device());
        // Truncated to 32 bits this would be a successful one-block read.
        let count = u64::from(u32::MAX) + 2;
        assert!(matches!(
            b.read_blocks(0, count),
            Err(FsError::BlockOutOfRange(end)) if end == count
        ));
        assert_eq!(b.now(), t0, "a refused request takes no device time");
        assert_eq!(
            footprint(b.device()),
            before,
            "a refused request reaches no layer"
        );
    }

    #[test]
    fn multi_block_ops_use_the_extent_path_and_keep_clock_parity() {
        let mut b = bridge(DecisionTree::constant(false));
        let t0 = b.now();
        let data = vec![Bytes::from_static(b"e"); 4];
        b.write_blocks(2, &data).unwrap();
        assert_eq!(
            b.now(),
            t0 + SimTime::from_micros(200),
            "4 blocks = 4 one-block ticks"
        );
        let got = b.read_blocks(2, 4).unwrap();
        assert!(got.iter().all(|g| g.is_some()));
        // One request per extent, per-block host counts.
        let s = b.device().ftl_stats();
        assert_eq!((s.host_reads, s.host_writes), (4, 4));
    }
}
