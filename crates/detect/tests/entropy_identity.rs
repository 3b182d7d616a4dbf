//! Bit-identity of the entropy stamp: [`sampled_entropy_milli`] and
//! [`payload_entropy_milli`] must give exactly the stamp of the plain
//! Shannon formula over the gathered sample — the estimator as it was
//! before full samples read their `p·log2 p` terms from a table and
//! extents were counted in place.
//!
//! Cases cover every payload length from 0 to 2 048 bytes (so both sides
//! of the 1 024-byte sample budget), extents split across one to three
//! blocks at random cut points, and alphabets of 1 to 256 symbols, drawn
//! uniformly and skewed.

use insider_detect::{payload_entropy_milli, sampled_entropy_milli, ENTROPY_SAMPLE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The estimator's formula over the leading sample, gathered into one
/// buffer first.
fn reference(blocks: &[Vec<u8>]) -> u16 {
    let sample: Vec<u8> = blocks
        .iter()
        .flatten()
        .copied()
        .take(ENTROPY_SAMPLE_BYTES)
        .collect();
    if sample.is_empty() {
        return 0;
    }
    let mut counts = [0u32; 256];
    for &b in &sample {
        counts[b as usize] += 1;
    }
    let n = sample.len() as f64;
    let mut bits = 0.0f64;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / n;
            bits -= p * p.log2();
        }
    }
    (bits * 1000.0).round().clamp(0.0, 8000.0) as u16
}

/// `len` bytes over `alphabet` symbols; `skewed` favours low symbols.
fn payload(rng: &mut StdRng, len: usize, alphabet: u32, skewed: bool) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let a = rng.random_range(0..alphabet);
            let s = if skewed {
                a.min(rng.random_range(0..alphabet))
            } else {
                a
            };
            s as u8
        })
        .collect()
}

/// `data` cut into `parts` blocks at random points (blocks may be empty).
fn split(rng: &mut StdRng, data: &[u8], parts: usize) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = (1..parts)
        .map(|_| rng.random_range(0..=data.len()))
        .collect();
    cuts.sort_unstable();
    let mut blocks = Vec::with_capacity(parts);
    let mut at = 0;
    for cut in cuts.into_iter().chain([data.len()]) {
        blocks.push(data[at..cut].to_vec());
        at = cut;
    }
    blocks
}

fn check(blocks: &[Vec<u8>], what: &str) {
    let want = reference(blocks);
    let got = sampled_entropy_milli(blocks.iter().map(|b| &b[..]));
    assert_eq!(got, want, "{what}: extent of {} blocks", blocks.len());
    let whole: Vec<u8> = blocks.concat();
    assert_eq!(payload_entropy_milli(&whole), want, "{what}: one buffer");
}

#[test]
fn every_length_and_split_matches_the_formula() {
    let mut rng = StdRng::seed_from_u64(0x5eed_e7a0);
    for len in 0..=2 * ENTROPY_SAMPLE_BYTES {
        let alphabet = 1 + (len as u32 * 37) % 256;
        let skewed = len % 2 == 1;
        let data = payload(&mut rng, len, alphabet, skewed);
        let parts = 1 + len % 3;
        let blocks = split(&mut rng, &data, parts);
        check(&blocks, &format!("len {len}, alphabet {alphabet}"));
    }
}

#[test]
fn every_alphabet_matches_the_formula_on_a_full_sample() {
    let mut rng = StdRng::seed_from_u64(0xa1fa_be75);
    for alphabet in 1..=256 {
        for (len, skewed) in [(ENTROPY_SAMPLE_BYTES, false), (4096, true), (1000, false)] {
            let data = payload(&mut rng, len, alphabet, skewed);
            for parts in 1..=3 {
                let blocks = split(&mut rng, &data, parts);
                check(&blocks, &format!("alphabet {alphabet}, len {len}"));
            }
        }
    }
}
