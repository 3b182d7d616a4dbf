//! Differential oracle for [`BlockCache`]: the `HashMap` + tick-`BTreeMap`
//! cache it replaced, kept here verbatim as [`model::ModelCache`], runs the
//! same pseudo-random scripts on the same kind of device, and after every
//! step the two must have returned the same value, hold the same
//! [`CacheStats`], `len()` and `dirty_blocks()`, and have made the same calls
//! on the device below them — which extents, in which order, with which
//! bytes. Everything the drive's detector and FTL compute is a function of
//! that call stream, so "the cache got faster" must never mean "the cache
//! sends something else".
//!
//! One divergence is deliberate and stated by its own test: when the
//! write-back of an evicted dirty block fails, the model drops the block (the
//! bug it shipped with); [`BlockCache`] keeps it.
//!
//! Scripts come from SplitMix64. `CACHE_ORACLE_SEED=<u64>` adds one seed to
//! the fixed list (CI passes the clock); every failure message names the
//! seed to replay.

use bytes::Bytes;
use insider_fs::{BlockCache, BlockDev, CacheStats, FsError, MemDev, Result};

/// The cache as it was before the O(1) rebuild, unchanged but for its name
/// and import paths.
mod model {
    use bytes::Bytes;
    use insider_fs::{BlockDev, CacheStats, FsError, Result};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug)]
    struct Entry {
        data: Bytes,
        dirty: bool,
        tick: u64,
    }

    /// A write-back LRU block cache over any [`BlockDev`].
    ///
    /// The wrapper is itself a [`BlockDev`], so `MiniExt` mounts on it
    /// unchanged. Capacity is counted in blocks; recency is a logical tick
    /// bumped on every touch, with the `tick → block` index giving O(log n)
    /// victim selection.
    #[derive(Debug)]
    pub struct ModelCache<D: BlockDev> {
        inner: D,
        capacity: usize,
        entries: HashMap<u64, Entry>,
        by_tick: BTreeMap<u64, u64>,
        tick: u64,
        stats: CacheStats,
    }

    impl<D: BlockDev> ModelCache<D> {
        /// Wraps `inner` with a cache holding at most `capacity` blocks.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` is zero — a cache that can hold nothing cannot
        /// honor write-back acknowledgement.
        pub fn new(inner: D, capacity: usize) -> Self {
            assert!(capacity > 0, "cache capacity must be at least one block");
            ModelCache {
                inner,
                capacity,
                entries: HashMap::new(),
                by_tick: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        /// Cache effectiveness counters.
        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        /// Number of blocks currently resident.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the cache is empty.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Number of resident blocks with unwritten modifications.
        pub fn dirty_blocks(&self) -> usize {
            self.entries.values().filter(|e| e.dirty).count()
        }

        /// The wrapped device.
        pub fn inner(&self) -> &D {
            &self.inner
        }

        /// The wrapped device, mutably. Bypassing the cache for *writes*
        /// invalidates its contents; intended for inspection and maintenance
        /// calls (e.g. the bridge's power-cycle hooks) after a [`flush`].
        ///
        /// [`flush`]: ModelCache::flush
        pub fn inner_mut(&mut self) -> &mut D {
            &mut self.inner
        }

        /// Flushes all dirty blocks and returns the wrapped device.
        ///
        /// # Errors
        ///
        /// Fails if the final flush fails; the cache is consumed either way.
        pub fn into_inner(mut self) -> Result<D> {
            self.flush()?;
            Ok(self.inner)
        }

        /// Returns the wrapped device *without* flushing — every dirty block
        /// still resident is lost, exactly as a power cut vaporises DRAM. This
        /// is the crash-model counterpart of [`into_inner`](Self::into_inner);
        /// tests use it to assert that only data flushed (or evicted) before
        /// the cut survives on the device.
        pub fn into_inner_discarding(self) -> D {
            self.inner
        }

        /// Writes every dirty block back to the device, oldest index first,
        /// batching contiguous runs into single [`write_blocks`] requests. The
        /// cache stays populated (entries become clean) — flushing is a
        /// durability point, not an invalidation.
        ///
        /// [`write_blocks`]: BlockDev::write_blocks
        ///
        /// # Errors
        ///
        /// Fails when the device rejects a write-back; already-flushed runs
        /// stay clean, the failing run's blocks stay dirty.
        pub fn flush(&mut self) -> Result<()> {
            let mut dirty: Vec<u64> = self
                .entries
                .iter()
                .filter(|(_, e)| e.dirty)
                .map(|(&b, _)| b)
                .collect();
            dirty.sort_unstable();
            let mut i = 0;
            while i < dirty.len() {
                // Extend the run while indices stay contiguous.
                let mut j = i + 1;
                while j < dirty.len() && dirty[j] == dirty[j - 1] + 1 {
                    j += 1;
                }
                let run: Vec<Bytes> = dirty[i..j]
                    .iter()
                    .map(|b| self.entries[b].data.clone())
                    .collect();
                self.inner.write_blocks(dirty[i], &run)?;
                for b in &dirty[i..j] {
                    self.entries.get_mut(b).expect("dirty entry resident").dirty = false;
                    self.stats.writebacks += 1;
                }
                i = j;
            }
            Ok(())
        }

        /// Bumps `block` to most-recently-used.
        fn touch(&mut self, block: u64) {
            let entry = self
                .entries
                .get_mut(&block)
                .expect("touch of non-resident block");
            self.by_tick.remove(&entry.tick);
            self.tick += 1;
            entry.tick = self.tick;
            self.by_tick.insert(self.tick, block);
        }

        /// Inserts (or replaces) an entry, evicting the LRU block first when at
        /// capacity. Dirty victims are written back before the insert.
        fn insert(&mut self, block: u64, data: Bytes, dirty: bool) -> Result<()> {
            if let Some(old) = self.entries.remove(&block) {
                self.by_tick.remove(&old.tick);
                // A clean overwrite of a dirty entry still owes the device
                // nothing extra — the new data supersedes the old.
            } else if self.entries.len() == self.capacity {
                let (&tick, &victim) = self.by_tick.iter().next().expect("cache full implies lru");
                let evicted = self.entries.remove(&victim).expect("lru entry resident");
                self.by_tick.remove(&tick);
                self.stats.evictions += 1;
                if evicted.dirty {
                    self.inner.write_block(victim, evicted.data)?;
                    self.stats.writebacks += 1;
                }
            }
            self.tick += 1;
            self.by_tick.insert(self.tick, block);
            self.entries.insert(
                block,
                Entry {
                    data,
                    dirty,
                    tick: self.tick,
                },
            );
            Ok(())
        }
    }

    impl<D: BlockDev> BlockDev for ModelCache<D> {
        fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
            if self.entries.contains_key(&index) {
                self.stats.hits += 1;
                self.touch(index);
                return Ok(Some(self.entries[&index].data.clone()));
            }
            self.stats.misses += 1;
            let fetched = self.inner.read_block(index)?;
            // Absent blocks are not cached: a `None` carries no payload worth a
            // slot, and trim-volatile devices may legitimately flip absence.
            if let Some(data) = &fetched {
                self.insert(index, data.clone(), false)?;
            }
            Ok(fetched)
        }

        fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
            // Write-back defers the device write, so its validation must run
            // now — a flush-time error could not name the guilty caller.
            if index >= self.inner.block_count() {
                return Err(FsError::BlockOutOfRange(index));
            }
            if data.len() > self.inner.block_size() as usize {
                return Err(FsError::PayloadTooLarge {
                    len: data.len(),
                    block_size: self.inner.block_size(),
                });
            }
            self.insert(index, data, true)
        }

        fn trim_block(&mut self, index: u64) -> Result<()> {
            if let Some(entry) = self.entries.remove(&index) {
                self.by_tick.remove(&entry.tick);
            }
            self.inner.trim_block(index)
        }

        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }

        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
    }
}

use model::ModelCache;

const BLOCKS: u64 = 96;
const BLOCK_SIZE: u32 = 32;
const STEPS: usize = 3000;
const FIXED_SEEDS: [u64; 5] = [1, 2, 0xdead_beef, 0x5eed_cace, u64::MAX];

/// One request as the device below the cache received it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Read { index: u64, count: u64 },
    Write { index: u64, data: Vec<Bytes> },
    Trim(u64),
}

/// A [`MemDev`] that logs every call as the extent it arrived as, and can be
/// told to refuse writes.
struct Recorder {
    inner: MemDev,
    calls: Vec<Call>,
    refuse_writes: bool,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: MemDev::new(BLOCKS, BLOCK_SIZE),
            calls: Vec::new(),
            refuse_writes: false,
        }
    }
}

impl BlockDev for Recorder {
    fn read_block(&mut self, index: u64) -> Result<Option<Bytes>> {
        Ok(self.read_blocks(index, 1)?.pop().expect("one block asked"))
    }

    fn write_block(&mut self, index: u64, data: Bytes) -> Result<()> {
        self.write_blocks(index, &[data])
    }

    fn trim_block(&mut self, index: u64) -> Result<()> {
        self.calls.push(Call::Trim(index));
        self.inner.trim_block(index)
    }

    fn read_blocks(&mut self, index: u64, count: u64) -> Result<Vec<Option<Bytes>>> {
        self.calls.push(Call::Read { index, count });
        self.inner.read_blocks(index, count)
    }

    fn write_blocks(&mut self, index: u64, data: &[Bytes]) -> Result<()> {
        self.calls.push(Call::Write {
            index,
            data: data.to_vec(),
        });
        if self.refuse_writes {
            return Err(FsError::Device("write refused".into()));
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

/// What the harness needs from either cache beyond [`BlockDev`].
trait Subject: BlockDev {
    fn flush(&mut self) -> Result<()>;
    /// `(stats, len, is_empty, dirty_blocks)`.
    fn observe(&self) -> (CacheStats, usize, bool, usize);
    fn device(&mut self) -> &mut Recorder;
}

macro_rules! subject {
    ($cache:ident) => {
        impl Subject for $cache<Recorder> {
            fn flush(&mut self) -> Result<()> {
                $cache::flush(self)
            }

            fn observe(&self) -> (CacheStats, usize, bool, usize) {
                (
                    self.stats(),
                    self.len(),
                    self.is_empty(),
                    self.dirty_blocks(),
                )
            }

            fn device(&mut self) -> &mut Recorder {
                self.inner_mut()
            }
        }
    };
}

subject!(BlockCache);
subject!(ModelCache);

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    ReadRun(u64, u64),
    Write(u64, Bytes),
    WriteRun(u64, Vec<Bytes>),
    Trim(u64),
    Flush,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Block(Result<Option<Bytes>>),
    Run(Result<Vec<Option<Bytes>>>),
    Done(Result<()>),
}

fn apply(cache: &mut impl Subject, op: &Op) -> Outcome {
    match op {
        Op::Read(b) => Outcome::Block(cache.read_block(*b)),
        Op::ReadRun(b, n) => Outcome::Run(cache.read_blocks(*b, *n)),
        Op::Write(b, data) => Outcome::Done(cache.write_block(*b, data.clone())),
        Op::WriteRun(b, data) => Outcome::Done(cache.write_blocks(*b, data)),
        Op::Trim(b) => Outcome::Done(cache.trim_block(*b)),
        Op::Flush => Outcome::Done(cache.flush()),
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Mostly a hot window a little over twice the cache (so blocks are
    /// overwritten while resident *and* evicted dirty), sometimes anywhere,
    /// now and then past the end of the device.
    fn block(&mut self, capacity: usize) -> u64 {
        match self.below(32) {
            0 => BLOCKS + self.below(4),
            1..=8 => self.below(BLOCKS),
            _ => self.below((2 * capacity as u64 + 1).min(BLOCKS)),
        }
    }

    /// Up to a block of bytes; one in 32 is oversized.
    fn payload(&mut self) -> Bytes {
        let len = match self.below(32) {
            0 => BLOCK_SIZE as u64 + 1 + self.below(8),
            _ => self.below(BLOCK_SIZE as u64 + 1),
        };
        Bytes::from((0..len).map(|_| self.next() as u8).collect::<Vec<u8>>())
    }

    fn op(&mut self, capacity: usize) -> Op {
        let block = self.block(capacity);
        match self.below(32) {
            0..=11 => Op::Read(block),
            12..=23 => Op::Write(block, self.payload()),
            24 | 25 => Op::ReadRun(block, self.below(6)),
            26 | 27 => {
                let n = self.below(6);
                Op::WriteRun(block, (0..n).map(|_| self.payload()).collect())
            }
            28 | 29 => Op::Trim(block),
            _ => Op::Flush,
        }
    }
}

fn run_script(seed: u64, capacity: usize) {
    let mut rng = SplitMix64(seed ^ capacity as u64);
    let mut new = BlockCache::new(Recorder::new(), capacity);
    let mut old = ModelCache::new(Recorder::new(), capacity);
    for step in 0..=STEPS {
        // The last step is the flush `into_inner` would do.
        let op = if step == STEPS {
            Op::Flush
        } else {
            rng.op(capacity)
        };
        let at = || format!("CACHE_ORACLE_SEED={seed} capacity {capacity} step {step}: {op:?}");
        assert_eq!(apply(&mut new, &op), apply(&mut old, &op), "{}", at());
        assert_eq!(new.observe(), old.observe(), "{}", at());
        assert_eq!(
            std::mem::take(&mut new.device().calls),
            std::mem::take(&mut old.device().calls),
            "{}",
            at()
        );
    }
    assert_eq!(new.dirty_blocks(), 0);
    let mut new = new.into_inner_discarding();
    let mut old = old.into_inner().expect("nothing left to flush");
    assert!(old.calls.is_empty(), "into_inner flushed a clean cache");
    assert_eq!(
        new.inner.read_blocks(0, BLOCKS).unwrap(),
        old.inner.read_blocks(0, BLOCKS).unwrap(),
        "CACHE_ORACLE_SEED={seed} capacity {capacity}: final device contents"
    );
}

#[test]
fn new_cache_and_old_cache_are_indistinguishable() {
    let extra = std::env::var("CACHE_ORACLE_SEED").ok().map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|_| panic!("CACHE_ORACLE_SEED must be a u64, got {s:?}"))
    });
    for seed in FIXED_SEEDS.into_iter().chain(extra) {
        for capacity in [1, 2, 7, 64] {
            run_script(seed, capacity);
        }
    }
}

/// The scripts above really do reach the paths that matter: dirty
/// evictions, clean evictions, multi-block flush runs, hits and misses.
#[test]
fn scripts_cover_eviction_and_batched_flush() {
    let mut rng = SplitMix64(FIXED_SEEDS[0] ^ 7);
    let mut cache = ModelCache::new(Recorder::new(), 7);
    for _ in 0..STEPS {
        apply(&mut cache, &rng.op(7));
    }
    let stats = cache.stats();
    assert!(stats.hits > 100 && stats.misses > 100, "{stats:?}");
    assert!(stats.evictions > stats.writebacks / 2, "{stats:?}");
    let calls = &cache.inner().calls;
    let single = |c: &&Call| matches!(c, Call::Write { data, .. } if data.len() == 1);
    let batched = |c: &&Call| matches!(c, Call::Write { data, .. } if data.len() > 1);
    assert!(calls.iter().filter(single).count() > 100);
    assert!(calls.iter().filter(batched).count() > 10);
}

/// The one place the two differ on purpose. Two dirty blocks fill a
/// two-block cache; the device starts refusing writes; a third write has to
/// evict block 0 and cannot write it back.
#[test]
fn failed_eviction_writeback_loses_the_block_only_in_the_model() {
    fn stage<C: Subject>(mut cache: C) -> C {
        cache.write_block(0, Bytes::from_static(b"victim")).unwrap();
        cache.write_block(1, Bytes::from_static(b"other")).unwrap();
        cache.device().refuse_writes = true;
        assert_eq!(
            cache.write_block(2, Bytes::from_static(b"newcomer")),
            Err(FsError::Device("write refused".into()))
        );
        cache.device().refuse_writes = false;
        cache
    }

    let mut new = stage(BlockCache::new(Recorder::new(), 2));
    assert_eq!((new.len(), new.dirty_blocks()), (2, 2));
    assert_eq!(new.stats(), CacheStats::default());
    new.flush().unwrap();
    let mut dev = new.into_inner_discarding();
    assert_eq!(
        dev.inner.read_block(0).unwrap().unwrap().as_ref(),
        b"victim"
    );
    assert_eq!(dev.inner.read_block(2).unwrap(), None);

    let mut old = stage(ModelCache::new(Recorder::new(), 2));
    assert_eq!((old.len(), old.dirty_blocks()), (1, 1));
    assert_eq!(old.stats().evictions, 1, "counted before it was attempted");
    old.flush().unwrap();
    let mut dev = old.into_inner_discarding();
    assert_eq!(
        dev.inner.read_block(0).unwrap(),
        None,
        "the acknowledged write is gone"
    );
}
