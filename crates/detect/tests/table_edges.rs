//! Edge cases of the interval-indexed counting table: merge-then-evict
//! inside one slice, u32 run-length saturation on bridging reads, exact
//! run-boundary coverage, and the ignored-by-default perf smoke test
//! asserting O(runs) memory on a large sequential trace.

use insider_detect::{CountingTable, FeatureEngine, IoMode, IoReq};
use insider_nand::{Lba, SimTime};

fn l(i: u64) -> Lba {
    Lba::new(i)
}

/// Two runs created and merged within the same slice must evict as one
/// unit, leaving no residue in the table or its counters.
#[test]
fn merge_then_evict_in_same_slice() {
    let mut t = CountingTable::new();
    t.record_read_range(l(100), 4, 7); // [100,104)
    t.record_read_range(l(110), 4, 7); // [110,114)
    t.record_read_range(l(104), 6, 7); // bridges → [100,114)
    assert_eq!(t.len(), 1);
    assert_eq!(t.evict_older_than(8), 1);
    assert!(t.is_empty());
    assert_eq!(t.indexed_blocks(), 0);
    // The merged-then-evicted range takes no further overwrites.
    assert_eq!(t.record_write_range(l(100), 14, 8), 0);
}

/// A bridging read joining runs whose combined span exceeds `u32::MAX`
/// saturates `rl` instead of overflowing; accounting stays consistent.
#[test]
fn bridging_read_saturates_u32_run_length() {
    let mut t = CountingTable::new();
    t.record_read_range(l(0), u32::MAX, 0); // [0, 2^32-1)
    let right_start = u32::MAX as u64 + 1; // gap of one block
    t.record_read_range(l(right_start), 10, 0);
    assert_eq!(t.len(), 2);
    t.record_read_range(l(u32::MAX as u64), 1, 1); // bridges the gap
    assert_eq!(t.len(), 1);
    let e = t.entry_covering(l(0)).expect("merged run exists");
    assert_eq!(e.rl, u32::MAX, "span 2^32+10 must saturate, not wrap");
    assert_eq!(t.indexed_blocks(), u32::MAX as usize);
    // Eviction of the saturated run returns every counter to zero.
    t.evict_older_than(u64::MAX);
    assert_eq!(t.indexed_blocks(), 0);
    assert!(t.is_empty());
}

/// `entry_covering` at exact run boundaries: first LBA in, last LBA in,
/// one-before and one-past-end out.
#[test]
fn entry_covering_at_exact_boundaries() {
    let mut t = CountingTable::new();
    t.record_read_range(l(10), 10, 0); // run [10, 20)
    assert!(t.entry_covering(l(9)).is_none());
    assert_eq!(t.entry_covering(l(10)).unwrap().start, l(10));
    assert_eq!(t.entry_covering(l(19)).unwrap().start, l(10));
    assert!(t.entry_covering(l(20)).is_none());
    // Writes at the same boundaries agree with coverage.
    assert_eq!(t.record_write_range(l(9), 1, 0), 0);
    assert_eq!(t.record_write_range(l(10), 1, 0), 1);
    assert_eq!(t.record_write_range(l(19), 1, 0), 1);
    assert_eq!(t.record_write_range(l(20), 1, 0), 0);
}

/// Perf smoke (ignored by default — run with `cargo test -- --ignored`):
/// a 64 MiB sequential-read trace (16 384 4-KiB blocks in 256-block
/// requests) must collapse to O(1) table state. The legacy per-LBA layout
/// held ~16k hash slots for the same trace.
#[test]
#[ignore = "perf smoke; run with --ignored"]
fn sequential_64mib_read_stays_compact() {
    let mut engine = FeatureEngine::new(SimTime::from_secs(1), 10);
    let blocks: u64 = 64 * 1024 * 1024 / 4096;
    let per_req: u32 = 256;
    for (i, start) in (0..blocks).step_by(per_req as usize).enumerate() {
        let at = SimTime::from_micros(i as u64 * 100);
        engine.ingest(IoReq::new(at, l(start), IoMode::Read, per_req));
    }
    let table = engine.counting_table();
    assert_eq!(table.indexed_blocks() as u64, blocks);
    assert!(
        table.len() <= 2,
        "sequential read must stay one run (plus boundary churn): {}",
        table.len()
    );
}
