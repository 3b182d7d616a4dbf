//! Extent I/O tour: a multi-block file write travelling the extent-native
//! path from the filesystem down to the NAND dies.
//!
//! MiniExt groups a file's blocks into contiguous runs and hands each run
//! to the device as ONE multi-block request: the detector sees a single
//! request header (exactly what a real block-I/O header carries), the FTL
//! batches the mapping updates, and the NAND model programs the pages
//! striped across channels and chips — so the parallel makespan is a
//! fraction of the serial page time. The same write issued block by block
//! pays one detector ingest and one dispatch per page.
//!
//! Run with: `cargo run --release --example extent_io`

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_fs::{FsConfig, MiniExt};
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::{FsBridge, InsiderConfig, SsdInsider};

fn device() -> SsdInsider {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(64)
        .pages_per_block(16)
        .page_size(4096)
        .build();
    SsdInsider::new(InsiderConfig::new(geometry), DecisionTree::constant(false))
}

fn main() {
    // --- A 12-block file write through MiniExt -------------------------
    let bridge = FsBridge::new(device(), SimTime::ZERO, SimTime::from_micros(50));
    let mut fs = MiniExt::format(bridge, &FsConfig { inode_count: 64 }).unwrap();
    let payload = vec![0x5au8; 12 * 4096];
    fs.write_file("dataset.bin", &payload).unwrap();
    let back = fs.read_file("dataset.bin").unwrap();
    assert_eq!(back, payload);

    let bridge = fs.into_dev();
    let ssd = bridge.device();
    let s = ssd.ftl_stats();
    println!("MiniExt 48 KiB file write + read-back through the extent path:");
    println!(
        "  device pages: {} read, {} written",
        s.host_reads, s.host_writes
    );
    let (serial, parallel) = ssd.nand_busy_ns();
    println!(
        "  NAND busy: serial {} us vs parallel makespan {} us ({:.1}x die overlap)",
        serial / 1_000,
        parallel / 1_000,
        serial as f64 / parallel as f64,
    );

    // --- The same extent directly against the device -------------------
    let mut ssd = device();
    let blocks: Vec<Bytes> = (0..12u8).map(|i| Bytes::from(vec![i; 4096])).collect();
    ssd.write_extent(Lba::new(100), &blocks, SimTime::from_secs(1))
        .unwrap();
    let back = ssd
        .read_extent(Lba::new(100), 12, SimTime::from_secs(1))
        .unwrap();
    assert!(back.iter().enumerate().all(|(i, b)| {
        b.as_ref()
            .is_some_and(|b| b.as_ref() == vec![i as u8; 4096].as_slice())
    }));

    let s = ssd.ftl_stats();
    println!("\nDirect 12-block write_extent + read_extent:");
    println!(
        "  one request header each; device pages: {} read, {} written",
        s.host_reads, s.host_writes
    );
    let (serial, parallel) = ssd.nand_busy_ns();
    println!(
        "  NAND busy: serial {} us vs parallel makespan {} us across {} dies",
        serial / 1_000,
        parallel / 1_000,
        4,
    );
}
