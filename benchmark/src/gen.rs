//! Seeded input generation: the benchmark's own SplitMix64, the payload
//! pools and the stream hash.
//!
//! Nothing here depends on `insider-workloads` or `rand`, so a change to the
//! repository's generators cannot move the benchmark's inputs.

use bytes::Bytes;

/// Bytes per block/page everywhere in the benchmark.
pub const PAGE: usize = 4096;

/// Pages in a payload pool that content can start at.
pub const POOL_PAGES: usize = 64;

/// Longest file in pages (120 KB); the pool carries this many extra pages,
/// repeating its head, so any (start page, length) slice is contiguous.
pub const MAX_FILE_PAGES: usize = 30;

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the ranges
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// FNV-1a over the generated operation stream. Two runs fed the same inputs
/// report the same hash; the self-tests pin that, and that another seed
/// changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

impl Default for StreamHash {
    fn default() -> Self {
        Self::new()
    }
}

/// Payload pools. Every byte the benchmark writes is a refcounted slice of
/// one of two buffers, so resident memory stays flat however much is
/// written while the device's entropy stamping still samples real bytes.
///
/// `plain` is what benign traffic writes: one page in eight is
/// high-entropy (compressed or already-encrypted user data), the others
/// are text-like at about four bits per byte. `cipher` is what the attack
/// writes: every page high-entropy.
#[derive(Debug, Clone)]
pub struct Pool {
    plain: Bytes,
    cipher: Bytes,
}

impl Pool {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x706f_6f6c);
        let mut plain = Vec::with_capacity((POOL_PAGES + MAX_FILE_PAGES) * PAGE);
        for page in 0..POOL_PAGES {
            let high = page % 8 == 7;
            for _ in 0..PAGE / 8 {
                let word = rng.next_u64();
                for b in word.to_le_bytes() {
                    plain.push(if high { b } else { b'a' + (b & 0x0f) });
                }
            }
        }
        plain.extend_from_within(..MAX_FILE_PAGES * PAGE);
        let mut cipher = Vec::with_capacity(plain.len());
        while cipher.len() < plain.len() {
            cipher.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Pool {
            plain: Bytes::from(plain),
            cipher: Bytes::from(cipher),
        }
    }

    /// Page `index` (taken modulo the pool) of the benign pool.
    pub fn page(&self, index: u8) -> Bytes {
        let at = index as usize % POOL_PAGES * PAGE;
        self.plain.slice(at..at + PAGE)
    }

    /// `len` benign bytes starting at pool page `start`.
    pub fn file(&self, start: u8, len: usize) -> Bytes {
        Self::cut(&self.plain, start, len)
    }

    /// `len` ciphertext bytes starting at pool page `start`.
    pub fn ciphertext(&self, start: u8, len: usize) -> Bytes {
        Self::cut(&self.cipher, start, len)
    }

    fn cut(buf: &Bytes, start: u8, len: usize) -> Bytes {
        assert!(
            len <= MAX_FILE_PAGES * PAGE,
            "file longer than the pool tail"
        );
        let at = start as usize % POOL_PAGES * PAGE;
        buf.slice(at..at + len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(3) < 3);
            let v = r.range(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn pool_pages_have_the_intended_entropy_classes() {
        let pool = Pool::new(1);
        for i in 0..POOL_PAGES as u8 {
            let page = pool.page(i);
            let distinct = page.iter().collect::<std::collections::HashSet<_>>().len();
            if i % 8 == 7 {
                assert!(distinct > 200, "page {i} should be high-entropy");
            } else {
                assert!(distinct <= 16, "page {i} should be text-like");
            }
        }
        // The tail repeats the head, so a file may start on the last page.
        assert_eq!(pool.file(63, 2 * PAGE)[PAGE..], pool.page(0)[..]);
    }
}
