//! Garbage collection must collect where the garbage is, on every die.
//!
//! With the default two-block reserve spread over eight dies, nearly every
//! die has zero free blocks whenever GC runs. A selector that orders dies
//! before it scores victims then always lands on the lowest-numbered die and
//! grinds through that die's almost-valid blocks while the others' garbage is
//! never collected: on the 1 GiB benchmark drive that read as 2.2 pages freed
//! per erase and a write amplification of 11.2. This file holds the small
//! version of that workload — 70 % sequential fill, then churn with 80 % of
//! writes to the hot quarter — and checks, from the victim log, that reclaim
//! victims come from all dies and carry real garbage. It runs in the debug
//! profile like the rest of tier 1, so every pick is also checked against
//! the full-scan oracle.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl, GC_RESERVE_BLOCKS};
use insider_nand::{Geometry, Lba, SimTime};

const DIES: usize = 8;
const BLOCKS_PER_DIE: u32 = 32;
const PAGES_PER_BLOCK: u32 = 16;
const CHURN_WRITES: u32 = 30_000;

const _: () = assert!(
    GC_RESERVE_BLOCKS < DIES as u32,
    "the case needs fewer reserve blocks than dies, so that dies tie at zero free"
);

fn config() -> FtlConfig {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(BLOCKS_PER_DIE)
        .pages_per_block(PAGES_PER_BLOCK)
        .page_size(64)
        .build();
    FtlConfig::new(geometry).record_gc_victims(true)
}

/// What the victim log and the counters say about one run.
struct Outcome {
    /// Victims per die.
    per_die: [u64; DIES],
    /// Mean `reclaimable` over victims, in pages.
    mean_reclaimable: f64,
    /// NAND programs per host page written.
    write_amp: f64,
}

/// Fills 70 % of the logical space in order, then overwrites single pages,
/// four in five inside the first quarter of the filled span, and checks
/// every page against a shadow copy at the end. 50 ms per write keeps about
/// 200 pre-images inside the insider FTL's 10 s window: protected pages are
/// on the path, well inside the drive's slack.
fn churn(ftl: &mut dyn Ftl) -> Outcome {
    let filled = ftl.logical_pages() * 7 / 10;
    let hot = filled / 4;
    let mut shadow = vec![0u32; filled as usize];
    let mut now = SimTime::from_secs(1);
    for lba in 0..filled {
        ftl.write(Lba::new(lba), Bytes::from_static(&[0; 4]), now)
            .unwrap();
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 1..=CHURN_WRITES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        let lba = if r % 5 < 4 {
            (r / 5) % hot
        } else {
            hot + (r / 5) % (filled - hot)
        };
        now += SimTime::from_millis(50);
        ftl.write(Lba::new(lba), Bytes::copy_from_slice(&i.to_le_bytes()), now)
            .unwrap();
        shadow[lba as usize] = i;
    }
    ftl.sync();
    let contents = ftl.read_extent(Lba::new(0), filled as u32, now).unwrap();
    for (lba, (page, tag)) in contents.iter().zip(&shadow).enumerate() {
        let page = page.as_ref().expect("a written page reads back");
        assert_eq!(page[..], tag.to_le_bytes(), "lba {lba} lost its data");
    }

    let mut per_die = [0u64; DIES];
    let mut reclaimable = 0u64;
    for v in ftl.gc_victims() {
        per_die[(v.block / BLOCKS_PER_DIE) as usize] += 1;
        reclaimable += v.reclaimable as u64;
    }
    let victims: u64 = per_die.iter().sum();
    assert!(victims > 1_000, "the churn must collect constantly");
    Outcome {
        per_die,
        mean_reclaimable: reclaimable as f64 / victims as f64,
        write_amp: ftl.nand_stats().programs as f64 / ftl.stats().host_writes as f64,
    }
}

/// Every die supplies between half and twice its even share of victims.
fn assert_no_die_starves(o: &Outcome, what: &str) {
    let victims: u64 = o.per_die.iter().sum();
    for (die, &n) in o.per_die.iter().enumerate() {
        let share = n as f64 / victims as f64;
        assert!(
            (0.5 / DIES as f64..=2.0 / DIES as f64).contains(&share),
            "{what}: die {die} supplied {n} of {victims} victims: {:?}",
            o.per_die
        );
    }
}

fn both_ftls() -> [(&'static str, Outcome); 2] {
    let mut conventional = InsiderFtl::new(config().protection_window(None));
    let mut insider = InsiderFtl::new(config());
    let outcomes = [
        ("conventional", churn(&mut conventional)),
        ("insider", churn(&mut insider)),
    ];
    assert!(insider.stats().gc_protected_copies > 0);
    outcomes
}

#[test]
fn greedy_collects_real_garbage_from_every_die() {
    for (what, o) in both_ftls() {
        assert_no_die_starves(&o, what);
        // Measured when written: 9.0 (conventional) and 8.5 (insider) pages
        // per victim, 1.4 under the chip-first order this file guards
        // against. The margin over half a block is thin: a failure just
        // under 8 with the die shares and `write_amp` still in bounds is a
        // moved write frontier or script, not starvation come back.
        assert!(
            o.mean_reclaimable >= PAGES_PER_BLOCK as f64 / 2.0,
            "{what}: a victim frees {:.1} of {PAGES_PER_BLOCK} pages",
            o.mean_reclaimable
        );
        assert!(o.write_amp < 2.0, "{what}: write_amp {:.2}", o.write_amp);
    }
}
