//! Delayed deletion's garbage-collection cost, side by side (the Fig. 9
//! mechanism at example scale).
//!
//! The FTL replays the same workload twice, with and without retention, on
//! a nearly full drive: cold data interleaved across every block (as on a
//! long-lived disk) plus randomized hot overwrites whose pre-images have
//! mixed ages. With the 10 s protection window the FTL must migrate the
//! invalid pages still inside it; without retention (the conventional
//! baseline) it discards them.
//!
//! Run with: `cargo run --release --example gc_pressure`

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn geometry() -> Geometry {
    Geometry::builder()
        .channels(1)
        .chips_per_channel(2)
        .blocks_per_chip(128)
        .pages_per_block(32)
        .page_size(4096)
        .build()
}

fn payload(tag: u64) -> Bytes {
    Bytes::copy_from_slice(format!("v{tag}").as_bytes())
}

/// Pre-fills 80 % of the drive with cold data in shuffled order, then issues
/// randomized hot overwrites (50 writes/s over an 800-page hot set, so a
/// pre-image's age when garbage collection reaches it is a broad mix of
/// "retired" and "still protected").
fn run(ftl: &mut dyn Ftl) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let logical = ftl.logical_pages();
    let cold = (logical as f64 * 0.80) as u64;
    let mut order: Vec<u64> = (0..cold).collect();
    order.shuffle(&mut rng);
    for lba in order {
        ftl.write(Lba::new(lba), payload(0), SimTime::ZERO).unwrap();
    }
    for i in 0..40_000u64 {
        let lba = Lba::new(rng.random_range(0..800));
        ftl.write(lba, payload(i), SimTime::from_millis(i * 20))
            .unwrap();
    }
}

fn main() {
    let mut conventional = InsiderFtl::new(FtlConfig::new(geometry()).protection_window(None));
    run(&mut conventional);
    let conv = *conventional.stats();

    let mut insider = InsiderFtl::new(FtlConfig::new(geometry()));
    run(&mut insider);
    let ins = *insider.stats();

    println!("same workload, two retention values (80% full, randomized in-window overwrites):\n");
    println!("conventional: {conv}");
    println!("ssd-insider : {ins}");
    let extra = if conv.gc_page_copies > 0 {
        (ins.gc_page_copies as f64 - conv.gc_page_copies as f64) / conv.gc_page_copies as f64
            * 100.0
    } else {
        0.0
    };
    println!(
        "\ndelayed deletion cost: {:+.1}% GC page copies ({} protected migrations)",
        extra, ins.gc_protected_copies
    );
    println!("…the price of being able to roll the whole drive back 10 seconds.");
}
