//! Model test: [`LbaRangeSet`] against a plain `BTreeSet<u64>` of blocks.
//!
//! Random runs are inserted into both — overlapping, adjacent, contained,
//! already covered and bridging — and after every insert the set's
//! `block_count`, `run_count`, `contains` and `overlap_blocks` must agree
//! with the model, and its runs must be disjoint, non-adjacent and cover
//! exactly the model's blocks. The vendored proptest runs a fixed seed;
//! `PROPTEST_RNG_SEED=<u64>` explores others and a failure names it.

use insider_detect::LbaRangeSet;
use insider_nand::Lba;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Blocks the runs are drawn from: small, so runs collide often.
const SPACE: u64 = 96;

/// Maximal runs of the model, as `(start, exclusive end)`.
fn model_runs(model: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &b in model {
        match runs.last_mut() {
            Some((_, end)) if *end == b => *end += 1,
            _ => runs.push((b, b + 1)),
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_set_matches_block_set(
        inserts in prop::collection::vec((0u64..SPACE, 1u32..12), 1..60),
        probes in prop::collection::vec((0u64..SPACE + 16, 1u32..20), 1..16),
    ) {
        let mut set = LbaRangeSet::new();
        let mut model = BTreeSet::new();
        for (step, &(start, len)) in inserts.iter().enumerate() {
            set.insert_run(Lba::new(start), len);
            model.extend(start..start + len as u64);

            prop_assert_eq!(set.block_count(), model.len() as u64, "step {}", step);
            let runs = model_runs(&model);
            prop_assert_eq!(set.run_count(), runs.len(), "step {}", step);
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), runs, "step {}", step);
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for b in 0..SPACE + 16 {
                prop_assert_eq!(set.contains(Lba::new(b)), model.contains(&b), "step {}, block {}", step, b);
            }
            for &(at, n) in &probes {
                let want = model.range(at..at + n as u64).count() as u64;
                prop_assert_eq!(
                    set.overlap_blocks(Lba::new(at), n), want,
                    "step {}: overlap of [{}, +{})", step, at, n
                );
            }
        }
    }
}
