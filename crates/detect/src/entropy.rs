//! Write-payload entropy: the fixed-point stamp carried on request headers
//! and the sampled Shannon estimator the device uses to produce it.
//!
//! The six header-only features of the paper are blind to *what* is being
//! written; SHIELD-style content features close that gap. Since PR 6 the
//! write path carries real payload `Bytes` end to end, so the device can
//! estimate the byte-level Shannon entropy of each write and stamp it on
//! the header the detector sees. Ciphertext and compressed archives sit
//! near 8 bits/byte; text, metadata and database pages sit far lower.
//!
//! The stamp is a `u16` in **milli-bits per byte** (0..=8000) so [`IoReq`]
//! stays `Copy + Eq + Hash` and serializes compactly; `None` means "payload
//! not inspected" (reads, trims, header-only traces) and such blocks are
//! excluded from the entropy features rather than counted as zero.
//!
//! [`IoReq`]: crate::IoReq

use std::sync::LazyLock;

/// Upper bound of the stamp: 8.000 bits/byte in milli-bits.
pub const ENTROPY_MAX_MILLI: u16 = 8000;

/// Payload prefix the estimator inspects. Sampling bounds the per-request
/// cost to O(1): 1 KiB is enough that uniformly random data measures
/// ≥ 7.5 bits/byte (the multinomial sampling bias at 1024 draws over 256
/// symbols is ≈ 0.18 bits), far above [`HIGH_ENTROPY_MILLI`].
pub const ENTROPY_SAMPLE_BYTES: usize = 1024;

/// Threshold above which a write block counts as "high entropy" for the
/// `RHEW` feature: 6.5 bits/byte. Ciphertext and random wipe passes measure
/// ≥ 7.2 even under 1 KiB sampling; text, office documents, database pages
/// and filesystem metadata stay well below.
pub const HIGH_ENTROPY_MILLI: u16 = 6500;

/// Estimates the byte-level Shannon entropy of `data` in milli-bits per
/// byte, inspecting at most [`ENTROPY_SAMPLE_BYTES`]. Empty input returns 0.
pub fn payload_entropy_milli(data: &[u8]) -> u16 {
    sampled_entropy_milli([data])
}

/// [`payload_entropy_milli`] of the concatenation of `chunks` — an
/// extent's blocks, say — counted in place without gathering the sample
/// into one buffer.
pub fn sampled_entropy_milli<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u16 {
    // Four histograms, one per byte lane, so a run of equal bytes does not
    // serialise on one counter; their sum is the one histogram.
    let mut lanes = [[0u32; 256]; 4];
    let mut n = 0;
    for chunk in chunks {
        let take = chunk.len().min(ENTROPY_SAMPLE_BYTES - n);
        let mut quads = chunk[..take].chunks_exact(4);
        for quad in &mut quads {
            for (lane, &b) in lanes.iter_mut().zip(quad) {
                lane[b as usize] += 1;
            }
        }
        for &b in quads.remainder() {
            lanes[0][b as usize] += 1;
        }
        n += take;
        if n == ENTROPY_SAMPLE_BYTES {
            break;
        }
    }
    // A full sample's terms come from the table; either way the bins are
    // summed in the same order, so the two sums are bit-identical.
    let terms = (n == ENTROPY_SAMPLE_BYTES).then(|| &*FULL_SAMPLE_TERMS);
    let counts: [u32; 256] = std::array::from_fn(|b| lanes.iter().map(|lane| lane[b]).sum());
    let mut bits = 0.0f64;
    for c in counts {
        if c > 0 {
            bits -= terms.map_or_else(|| term(c as usize, n), |terms| terms[c as usize]);
        }
    }
    // Clamp guards rounding just past 8.0 on degenerate inputs.
    (bits * 1000.0).round().clamp(0.0, ENTROPY_MAX_MILLI as f64) as u16
}

/// `p·log2 p` of a bin holding `c` of `n` sampled bytes.
fn term(c: usize, n: usize) -> f64 {
    let p = c as f64 / n as f64;
    p * p.log2()
}

/// [`term`] of every bin count of a full sample (index 0 is never read):
/// 8 KiB, computed once.
static FULL_SAMPLE_TERMS: LazyLock<[f64; ENTROPY_SAMPLE_BYTES + 1]> =
    LazyLock::new(|| std::array::from_fn(|c| term(c, ENTROPY_SAMPLE_BYTES)));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_payload_has_zero_entropy() {
        assert_eq!(payload_entropy_milli(&[0xA5; 4096]), 0);
        assert_eq!(payload_entropy_milli(&[]), 0);
    }

    #[test]
    fn two_symbol_payload_is_one_bit() {
        let data: Vec<u8> = (0..1024).map(|i| (i % 2) as u8).collect();
        let e = payload_entropy_milli(&data);
        assert_eq!(e, 1000, "alternating bytes are exactly 1 bit/byte");
    }

    #[test]
    fn pseudorandom_payload_is_high_entropy() {
        // xorshift-ish deterministic junk, no rand dependency needed.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let e = payload_entropy_milli(&data);
        assert!(
            e > HIGH_ENTROPY_MILLI,
            "random data measured {e} milli-bits, below the high-entropy gate"
        );
        assert!(e <= ENTROPY_MAX_MILLI);
    }

    #[test]
    fn full_sample_terms_are_the_formula_bit_for_bit() {
        let n = ENTROPY_SAMPLE_BYTES as f64;
        for c in 1..=ENTROPY_SAMPLE_BYTES {
            let p = c as f64 / n;
            assert_eq!(
                FULL_SAMPLE_TERMS[c].to_bits(),
                (p * p.log2()).to_bits(),
                "c = {c}"
            );
        }
    }

    #[test]
    fn sampling_caps_the_inspected_prefix() {
        // High-entropy prefix, constant tail: the tail must not dilute the
        // estimate because only the prefix is inspected.
        let mut data: Vec<u8> = (0..=255u8).cycle().take(ENTROPY_SAMPLE_BYTES).collect();
        data.extend(std::iter::repeat_n(0u8, 1 << 20));
        assert_eq!(payload_entropy_milli(&data), ENTROPY_MAX_MILLI);
    }
}
