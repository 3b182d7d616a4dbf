//! Device-level throughput scaling — the §IV prototype-spec check.
//!
//! The paper's open-channel card (8 channels × 8 ways) delivers 700 MB/s
//! writes and 1.2 GB/s reads. This experiment drives sequential workloads
//! through the FTL and derives the *simulated device* throughput from the
//! per-chip busy makespan, sweeping the chip count — the shape to
//! reproduce is near-linear scaling with dies until the host interface (not
//! modeled) would saturate, landing at the paper's magnitude for 8×8.
//!
//! Usage: `cargo run --release -p insider-bench --bin throughput [pages]`

use bytes::Bytes;
use insider_bench::render_table;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};

fn run(channels: u32, ways: u32, pages: u64) -> (f64, f64) {
    let geometry = Geometry::builder()
        .channels(channels)
        .chips_per_channel(ways)
        .blocks_per_chip(64)
        .pages_per_block(64)
        .page_size(4096)
        .build();
    let mut ftl = InsiderFtl::new(FtlConfig::new(geometry).protection_window(None));
    let pages = pages.min(ftl.logical_pages());
    let payload = Bytes::from_static(&[0x5a; 64]);

    // Per-phase makespan: delta each chip's and each bus's busy time over
    // the phase, then take the slowest — mixing phases would hide a
    // bottleneck change (writes are die-bound, reads bus-bound).
    let phase = |ftl: &mut InsiderFtl, op: &mut dyn FnMut(&mut InsiderFtl)| -> u64 {
        let (chips_before, buses_before) = ftl.nand_busy_detail();
        op(ftl);
        let (chips_after, buses_after) = ftl.nand_busy_detail();
        let chip = chips_after
            .iter()
            .zip(&chips_before)
            .map(|(a, b)| a - b)
            .max()
            .unwrap_or(0);
        let bus = buses_after
            .iter()
            .zip(&buses_before)
            .map(|(a, b)| a - b)
            .max()
            .unwrap_or(0);
        chip.max(bus)
    };

    let write_ns = phase(&mut ftl, &mut |ftl| {
        for i in 0..pages {
            ftl.write(Lba::new(i), payload.clone(), SimTime::ZERO)
                .unwrap();
        }
    });
    let write_mb_s = (pages * 4096) as f64 / (write_ns as f64 / 1e9) / 1e6;

    let read_ns = phase(&mut ftl, &mut |ftl| {
        for i in 0..pages {
            ftl.read(Lba::new(i), SimTime::ZERO).unwrap();
        }
    });
    let read_mb_s = (pages * 4096) as f64 / (read_ns as f64 / 1e9) / 1e6;
    (write_mb_s, read_mb_s)
}

fn main() {
    let pages: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .filter(|&p| p > 0)
        .unwrap_or(100_000);

    println!("== Simulated device throughput vs. die count ==");
    println!("(sequential workload; 4 KiB pages; 50 µs read / 500 µs program)\n");
    let mut rows = Vec::new();
    for (channels, ways) in [(1u32, 1u32), (2, 2), (4, 4), (8, 4), (8, 8)] {
        let (w, r) = run(channels, ways, pages);
        rows.push(vec![
            format!("{channels} x {ways}"),
            (channels * ways).to_string(),
            format!("{w:.0}"),
            format!("{r:.0}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["channels x ways", "dies", "write MB/s", "read MB/s"],
            &rows
        )
    );
    println!();
    println!("Expected shape: near-linear scaling with dies; at the paper's 8x8");
    println!("configuration the simulated card lands in the same class as the");
    println!("prototype's 700 MB/s writes and 1.2 GB/s reads (§IV).");
}
