//! Pins what garbage collection does to a fixed GC-heavy script: as one
//! FNV-1a hash per configuration over the `Debug` rendering of the victim
//! sequence, `FtlStats` with the wall-clock timer zeroed, `NandStats` (counters and busy integrals), the host-only latency
//! percentiles (which carry the firmware stall a drain raises) and the final
//! contents of the span. A change to the collector that is meant to keep
//! the drain order and the host stall must leave every hash alone.
//!
//! The constants were first recorded at commit 203dff0 (the last commit
//! with a separate blocking collector) and re-recorded twice: when
//! score-first victim selection replaced chip-first (a different victim
//! sequence by intent) and `GcVictim::reclaimable` joined the hashed log,
//! and when static wear leveling was deleted together with `GcVictim::kind`
//! and the swap counter in `FtlStats` — the rendered strings were checked
//! to equal the previous commit's with the leveler off, minus those two
//! fields. When the FIFO and cost-benefit victim policies were deleted,
//! their two rows went with them; the greedy rows kept their hashes. When
//! the mapping-table checkpoint was deleted together with its two
//! `FtlStats` counters, all four hashes were re-recorded a third time after
//! checking that each rendered string equalled the previous commit's minus
//! `checkpoints: 0, checkpoint_pages: 0`. When the incremental GC policy and
//! erase-suspend were deleted, their row went with them, and the blocking
//! row's two hashes were re-recorded after checking that each rendered
//! string equalled the previous commit's minus the GC step counter, the
//! stop-the-world fallback counter and the NAND resume-penalty total, all
//! three zero. Re-record them only for a change
//! that is *meant* to move simulated GC behaviour, or that adds or removes
//! a field of one of the hashed structs.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};

/// Logical pages the script touches: a cold body written once and rewritten
/// rarely, and a hot tail absorbing most overwrites.
const SPAN: u64 = 160;
const HOT: u64 = 12;
const OPS: u64 = 5_000;

/// Four dies (2 channels × 2 ways) of 12 eight-page blocks: small enough
/// that the script collects constantly, multi-chip so per-chip free pools and
/// the free-depth tie-break between equally scored victims are on the path.
fn config() -> FtlConfig {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(12)
        .pages_per_block(8)
        .page_size(64)
        .build();
    FtlConfig::new(geometry).record_gc_victims(true)
}

/// FNV-1a (64-bit).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the script and hashes everything observable about it. 100 ms per
/// operation keeps a 10 s protection window of pre-images (~100 pages,
/// mostly of hot overwrites) inside the drive's slack while leaving
/// protected pages for the collector to copy.
fn run(ftl: &mut InsiderFtl) -> u64 {
    let mut now = SimTime::from_secs(1);
    for lba in 0..SPAN - HOT {
        ftl.write(Lba::new(lba), Bytes::from_static(b"cold"), now)
            .unwrap();
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        let tag = Bytes::copy_from_slice(&(i as u32).to_le_bytes());
        match r % 16 {
            0 => ftl.trim(Lba::new((r >> 4) % SPAN), now).unwrap(),
            1 => ftl
                .write(Lba::new((r >> 4) % (SPAN - HOT)), tag, now)
                .unwrap(),
            2 => {
                // A three-page extent: the trigger rises by a whole block.
                let lba = SPAN - HOT + (r >> 4) % (HOT - 2);
                let pages = [tag.clone(), tag.clone(), tag];
                ftl.write_extent(Lba::new(lba), &pages, now).unwrap();
            }
            _ => ftl
                .write(Lba::new(SPAN - HOT + (r >> 4) % HOT), tag, now)
                .unwrap(),
        }
        now += SimTime::from_millis(100);
    }
    ftl.sync();

    let mut s = *ftl.stats();
    s.gc_ns = 0;
    let n = ftl.nand_stats().clone();
    let host = ftl.host_latency_snapshot();
    let contents = ftl.read_extent(Lba::new(0), SPAN as u32, now).unwrap();
    let observed = format!("{:?}{s:?}{n:?}{host:?}{contents:?}", ftl.gc_victims());

    // The pin is only worth its name if the script reaches every branch it
    // claims to cover.
    assert!(s.gc_invocations > 100, "reclaim GC must dominate the run");
    assert!(s.gc_page_copies > 0, "victims must carry live pages");
    assert!(n.gc_stalled_cmds > 0, "a drain must stall the host");
    fnv(observed.as_bytes())
}

/// `[conventional, insider]` hashes.
const RECORDED: [u64; 2] = [0x3fc7aac57a8a2d30, 0x0ccee26c6a17cde8];

#[test]
fn gc_behaviour_is_pinned() {
    let hex = |hashes: [u64; 2]| hashes.map(|h| format!("{h:#018x}"));
    let mut conventional = InsiderFtl::new(config().protection_window(None));
    let mut insider = InsiderFtl::new(config());
    let got = [run(&mut conventional), run(&mut insider)];
    assert!(insider.stats().gc_protected_copies > 0);
    assert_eq!(hex(got), hex(RECORDED), "GC behaviour moved");
}
