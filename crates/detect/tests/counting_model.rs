//! Equivalence test: on workloads with non-adjacent LBAs (so runs never
//! merge or extend), the counting table must behave exactly like a simple
//! per-LBA model of the paper's overwrite definition — "a write to an LBA
//! whose tracking entry was touched within the last N slices counts as an
//! overwrite". This pins down eviction and touch semantics precisely.

use insider_detect::CountingTable;
use insider_nand::Lba;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Read {
        slot: u8,
    },
    Write {
        slot: u8,
    },
    /// Close the current slice (advancing the window).
    NextSlice,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..24).prop_map(|slot| Op::Read { slot }),
        3 => (0u8..24).prop_map(|slot| Op::Write { slot }),
        2 => Just(Op::NextSlice),
    ]
}

/// Reference model: one tracked run per LBA (valid because slots map to
/// LBAs spaced 2 apart — adjacency never occurs).
#[derive(Default)]
struct Model {
    /// lba slot -> slice of last touch (creation, re-read, or overwrite).
    touched: HashMap<u8, u64>,
}

const WINDOW: u64 = 10;

impl Model {
    fn read(&mut self, slot: u8, slice: u64) {
        self.touched.insert(slot, slice);
    }

    /// Returns whether the write counts as an overwrite.
    fn write(&mut self, slot: u8, slice: u64) -> bool {
        match self.touched.get_mut(&slot) {
            Some(t) => {
                *t = slice;
                true
            }
            None => false,
        }
    }

    fn evict(&mut self, new_slice: u64) {
        let cutoff = new_slice.saturating_sub(WINDOW - 1);
        self.touched.retain(|_, t| *t >= cutoff);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counting_table_matches_per_lba_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut table = CountingTable::new();
        let mut model = Model::default();
        let mut slice = 0u64;

        for op in &ops {
            match *op {
                Op::Read { slot } => {
                    // Slots map to even LBAs so runs can never merge.
                    table.record_read(Lba::new(slot as u64 * 2), slice);
                    model.read(slot, slice);
                }
                Op::Write { slot } => {
                    let table_says = table.record_write(Lba::new(slot as u64 * 2), slice);
                    let model_says = model.write(slot, slice);
                    prop_assert_eq!(
                        table_says, model_says,
                        "slice {}: write to slot {} disagreed", slice, slot
                    );
                }
                Op::NextSlice => {
                    slice += 1;
                    // Mirror the FeatureEngine's eviction at slice close.
                    let cutoff = slice.saturating_sub(WINDOW - 1);
                    table.evict_older_than(cutoff);
                    model.evict(slice);
                    prop_assert_eq!(
                        table.len(),
                        model.touched.len(),
                        "slice {}: live entry counts diverged", slice
                    );
                }
            }
        }
    }

    /// Merged runs report a total WL equal to the sum of their parts: the
    /// average-WL statistic must be conserved under merging.
    #[test]
    fn merging_conserves_total_wl(
        lbas in prop::collection::vec(0u64..64, 1..40),
        writes in prop::collection::vec(0u64..64, 0..40),
    ) {
        let mut table = CountingTable::new();
        for lba in &lbas {
            table.record_read(Lba::new(*lba), 0);
        }
        let mut expected_wl = 0u64;
        for lba in &writes {
            if table.record_write(Lba::new(*lba), 0) {
                expected_wl += 1;
            }
        }
        let total_wl: f64 = table.avg_wl() * table.len() as f64;
        prop_assert!((total_wl - expected_wl as f64).abs() < 1e-6,
            "total WL {} != overwrites {}", total_wl, expected_wl);
    }

    /// The hash index never leaks: after evicting everything, the table is
    /// empty and all memory accounting returns to zero.
    #[test]
    fn full_eviction_leaves_no_residue(
        lbas in prop::collection::vec(0u64..128, 1..60),
    ) {
        let mut table = CountingTable::new();
        for (i, lba) in lbas.iter().enumerate() {
            table.record_read(Lba::new(*lba), i as u64 % 5);
            table.record_write(Lba::new(*lba), i as u64 % 5);
        }
        table.evict_older_than(u64::MAX);
        prop_assert!(table.is_empty());
        prop_assert_eq!(table.indexed_blocks(), 0);
        prop_assert_eq!(table.avg_wl(), 0.0);
    }
}
