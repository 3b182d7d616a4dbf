//! Pins the device traffic MiniExt emits: which calls a warm mount makes for
//! read-only operations, and — as one FNV-1a hash — every write and trim of a
//! fixed script, block for block and byte for byte. The simulated numbers of
//! everything above the block device (detector stream, cache write-back, FTL
//! layout) are a function of that traffic, so a filesystem change that is
//! meant to be invisible to the device must leave the hash alone.

use bytes::Bytes;
use insider_fs::{BlockCache, BlockDev, FsConfig, MemDev, MiniExt, Result};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Read(u64),
    Write(u64, Bytes),
    Trim(u64),
}

/// A [`MemDev`] that logs every call. Multi-block requests reach it through
/// the trait's default decomposition, one entry per block.
struct Recorder {
    inner: MemDev,
    calls: Vec<Call>,
}

impl Recorder {
    fn new(blocks: u64) -> Self {
        Recorder {
            inner: MemDev::new(blocks, 4096),
            calls: Vec::new(),
        }
    }
}

impl BlockDev for Recorder {
    fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
        self.calls.push(Call::Read(index));
        self.inner.read_block(index)
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
        self.calls.push(Call::Write(index, data.clone()));
        self.inner.write_block(index, data)
    }

    fn trim_block(&mut self, index: u64) -> Result<()> {
        self.calls.push(Call::Trim(index));
        self.inner.trim_block(index)
    }

    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
}

/// FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every `(write|trim, block, len, payload)`.
fn mutation_hash(calls: &[Call]) -> u64 {
    let mut h = Fnv::new();
    for call in calls {
        let (tag, block, payload): (u8, u64, &[u8]) = match call {
            Call::Read(_) => continue,
            Call::Write(block, data) => (1, *block, data),
            Call::Trim(block) => (2, *block, &[]),
        };
        h.feed(&[tag]);
        h.feed(&block.to_le_bytes());
        h.feed(&(payload.len() as u64).to_le_bytes());
        h.feed(payload);
    }
    h.0
}

fn content(tag: u64, len: usize) -> Vec<u8> {
    let mut x = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 56) as u8
        })
        .collect()
}

/// Format, 40 writes of mixed sizes (empty, sub-block, multi-block,
/// indirect), 8 deletes, 4 renames, then one file grown and shrunk across
/// the indirect boundary, with creates after the deletes so freed inodes and
/// blocks are reused. `after_op` runs after each of the 60 operations.
fn script_on<D: BlockDev>(dev: D, mut after_op: impl FnMut(&mut MiniExt<D>)) -> MiniExt<D> {
    const SIZES: [usize; 8] = [0, 100, 4096, 9000, 20_000, 40_960, 45_000, 70_000];
    let mut fs = MiniExt::format(dev, &FsConfig { inode_count: 64 }).unwrap();
    for i in 0..40u64 {
        let data = content(i, SIZES[i as usize % SIZES.len()]);
        fs.write_file(&format!("file-{i:02}.dat"), &data).unwrap();
        after_op(&mut fs);
    }
    for i in (0..40).step_by(5) {
        fs.delete(&format!("file-{i:02}.dat")).unwrap();
        after_op(&mut fs);
    }
    for i in [1, 12, 23, 34] {
        fs.rename(&format!("file-{i:02}.dat"), &format!("moved-{i:02}.dat"))
            .unwrap();
        after_op(&mut fs);
    }
    fs.create("empty").unwrap();
    after_op(&mut fs);
    for (step, blocks) in [5usize, 14, 2, 11, 10].into_iter().enumerate() {
        let data = content(100 + step as u64, blocks * 4096);
        fs.write_file("grow.bin", &data).unwrap();
        after_op(&mut fs);
    }
    // Overwrites in place, one of them of a renamed file.
    fs.write_file("moved-12.dat", &content(200, 20_000))
        .unwrap();
    after_op(&mut fs);
    fs.write_file("file-02.dat", &content(201, 300)).unwrap();
    after_op(&mut fs);
    fs
}

fn script() -> MiniExt<Recorder> {
    script_on(Recorder::new(2048), |_| {})
}

/// The hash below was recorded at the commit *before* the directory became
/// memory-resident (when every lookup re-read it from the device): the
/// resident directory removed reads only.
#[test]
fn write_and_trim_stream_of_a_fixed_script_is_pinned() {
    let fs = script();
    let dev = fs.into_dev();
    let writes = dev
        .calls
        .iter()
        .filter(|c| matches!(c, Call::Write(..)))
        .count();
    let trims = dev
        .calls
        .iter()
        .filter(|c| matches!(c, Call::Trim(_)))
        .count();
    assert_eq!(
        (writes, trims, mutation_hash(&dev.calls)),
        (PINNED_WRITES, PINNED_TRIMS, PINNED_HASH),
        "MiniExt's write/trim stream changed: got {writes} writes, {trims} trims, hash {:#018x}",
        mutation_hash(&dev.calls)
    );
}

const PINNED_WRITES: usize = 1207;
const PINNED_TRIMS: usize = 66;
const PINNED_HASH: u64 = 0x595a_3310_df0a_7b97;

#[test]
fn warm_mount_reads_nothing_but_file_data() {
    let mut fs = MiniExt::mount(script().into_dev()).unwrap();
    // The first call that needs the directory loads it.
    assert!(fs.exists("grow.bin").unwrap());
    fs.dev_mut().calls.clear();

    assert!(fs.exists("moved-23.dat").unwrap());
    assert!(!fs.exists("file-23.dat").unwrap());
    assert!(fs.stat("missing").is_err());
    let small = fs.stat("file-03.dat").unwrap();
    let large = fs.stat("file-07.dat").unwrap();
    assert_eq!(fs.list().unwrap().len(), 34);
    assert_eq!(
        fs.dev_mut().calls,
        vec![],
        "exists/stat/list on a warm mount must not touch the device"
    );

    // A direct-only file: exactly its data blocks.
    assert_eq!(small.indirect, 0);
    assert_eq!(fs.read_file("file-03.dat").unwrap(), content(3, 9000));
    let expect: Vec<Call> = small.direct[..small.block_count as usize]
        .iter()
        .map(|&b| Call::Read(b as u64))
        .collect();
    assert_eq!(fs.dev_mut().calls, expect);

    // An indirect file: the indirect block, then direct and indirect data.
    fs.dev_mut().calls.clear();
    assert_ne!(large.indirect, 0);
    assert_eq!(fs.read_file("file-07.dat").unwrap(), content(7, 70_000));
    let table = fs
        .dev_mut()
        .inner
        .read_block(large.indirect as u64)
        .unwrap()
        .unwrap();
    let mut expect = vec![Call::Read(large.indirect as u64)];
    expect.extend(large.direct.iter().map(|&b| Call::Read(b as u64)));
    expect.extend(
        table
            .chunks_exact(4)
            .map(|p| u32::from_le_bytes(p.try_into().unwrap()) as u64)
            .take_while(|&p| p != 0)
            .map(Call::Read),
    );
    assert_eq!(expect.len(), 1 + large.block_count as usize);
    assert_eq!(fs.dev_mut().calls, expect);
}

/// A [`MemDev`] that hashes every request as the *extent* it arrived as:
/// `read_blocks`/`write_blocks` are overridden, so a flush's contiguous run
/// is one entry and an eviction's single block another.
struct ExtentRecorder {
    inner: MemDev,
    hash: Fnv,
    extents: usize,
}

impl ExtentRecorder {
    fn log(&mut self, tag: u8, index: u64, blocks: u64) {
        self.extents += 1;
        self.hash.feed(&[tag]);
        self.hash.feed(&index.to_le_bytes());
        self.hash.feed(&blocks.to_le_bytes());
    }
}

impl BlockDev for ExtentRecorder {
    fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
        self.log(0, index, 1);
        self.inner.read_block(index)
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
        self.write_blocks(index, &[data])
    }

    fn trim_block(&mut self, index: u64) -> Result<()> {
        self.log(2, index, 1);
        self.inner.trim_block(index)
    }

    fn read_blocks(&mut self, index: u64, count: u64) -> Result<Vec<Option<Bytes>>> {
        self.log(0, index, count);
        self.inner.read_blocks(index, count)
    }

    fn write_blocks(&mut self, index: u64, data: &[Bytes]) -> Result<()> {
        self.log(1, index, data.len() as u64);
        for block in data {
            self.hash.feed(&(block.len() as u64).to_le_bytes());
            self.hash.feed(block);
        }
        self.inner.write_blocks(index, data)
    }

    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
}

/// The same script through a 48-block write-back cache, flushed every 25
/// operations and once at the end: every extent the device below the cache
/// sees — miss reads, eviction write-backs, flush runs, trims — in order,
/// with its payload. Recorded at ea12cf4, the commit before the cache's
/// tick-indexed LRU became a linked list with a dirty set: that change is
/// about how fast the cache decides, never about what it sends.
#[test]
fn extent_stream_below_a_small_cache_is_pinned() {
    let dev = ExtentRecorder {
        inner: MemDev::new(2048, 4096),
        hash: Fnv::new(),
        extents: 0,
    };
    let mut ops = 0;
    let mut fs = script_on(BlockCache::new(dev, 48), |fs| {
        ops += 1;
        if ops % 25 == 0 {
            fs.dev_mut().flush().unwrap();
        }
    });
    fs.dev_mut().flush().unwrap();
    let cache = fs.into_dev();
    let stats = cache.stats();
    let dev = cache.into_inner_discarding();
    assert_eq!(
        (dev.extents, dev.hash.0, stats.evictions, stats.writebacks),
        (
            CACHED_EXTENTS,
            CACHED_HASH,
            CACHED_EVICTIONS,
            CACHED_WRITEBACKS
        ),
        "the traffic below the cache changed: {} extents, hash {:#018x}, {stats:?}",
        dev.extents,
        dev.hash.0
    );
}

const CACHED_EXTENTS: usize = 244;
const CACHED_HASH: u64 = 0x10ee_9e31_5c49_7bdd;
const CACHED_EVICTIONS: u64 = 227;
const CACHED_WRITEBACKS: u64 = 283;
