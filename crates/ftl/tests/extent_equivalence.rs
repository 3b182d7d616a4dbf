//! Property test: an extent operation is observably identical to the same
//! pages issued one per call, for both retention values — same logical
//! contents, same host/GC statistics, same NAND accounting, same
//! recovery-queue shape. The geometry and op budget are sized so garbage
//! collection never fires: GC collects ahead of a write by the number of
//! blocks the *request* needs, so an N-page request and N one-page requests
//! may legitimately pick victims at different moments, and the equivalence
//! claimed here is about the host-visible interface, not physical
//! placement.
//!
//! The last test covers the other half: `Ftl::{write, read, trim}` *are*
//! one-page extent calls, so under heavy GC the two spellings must agree on
//! every counter and on the victim sequence.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use proptest::prelude::*;

/// Logical span the ops land in — small, so overwrites and trims of mapped
/// pages are common.
const SPAN: u64 = 64;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { lba: u64, len: u32 },
    Write { lba: u64, len: u32 },
    Trim { lba: u64, len: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Extents stay inside the span so every op succeeds on both paths.
    (0u32..3, 0u64..SPAN, 1u32..=8).prop_map(|(kind, start, len)| {
        let len = len.min((SPAN - start) as u32).max(1);
        match kind {
            0 => Op::Read { lba: start, len },
            1 => Op::Write { lba: start, len },
            _ => Op::Trim { lba: start, len },
        }
    })
}

/// 1024 physical pages against ≤ 40 ops × ≤ 8 pages — far below any GC
/// threshold.
fn geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(16)
        .pages_per_block(16)
        .page_size(64)
        .build()
}

fn payload(op: usize, page: u32) -> Bytes {
    Bytes::copy_from_slice(format!("op{op}p{page}").as_bytes())
}

/// Applies `ops` twice, to two drives built from `config` — natively and
/// decomposed into one-page calls — and asserts every host-visible
/// observable matches, the recovery-queue shape included.
fn assert_equivalent(config: FtlConfig, ops: &[(Op, u64)]) -> Result<(), TestCaseError> {
    let mut native = InsiderFtl::new(config.clone());
    let mut scalar = InsiderFtl::new(config);
    let mut now = SimTime::ZERO;
    for (idx, &(op, dt)) in ops.iter().enumerate() {
        now = now.saturating_add(SimTime::from_millis(dt));
        match op {
            Op::Read { lba, len } => {
                let a = native.read_extent(Lba::new(lba), len, now).unwrap();
                let b: Vec<Option<Bytes>> = (0..len as u64)
                    .map(|i| scalar.read(Lba::new(lba + i), now).unwrap())
                    .collect();
                prop_assert_eq!(a, b, "read mismatch at op {}", idx);
            }
            Op::Write { lba, len } => {
                let data: Vec<Bytes> = (0..len).map(|i| payload(idx, i)).collect();
                native.write_extent(Lba::new(lba), &data, now).unwrap();
                for (i, page) in data.iter().enumerate() {
                    scalar
                        .write(Lba::new(lba + i as u64), page.clone(), now)
                        .unwrap();
                }
            }
            Op::Trim { lba, len } => {
                native.trim_extent(Lba::new(lba), len, now).unwrap();
                for i in 0..len as u64 {
                    scalar.trim(Lba::new(lba + i), now).unwrap();
                }
            }
        }
    }
    prop_assert_eq!(native.stats(), scalar.stats());
    prop_assert_eq!(native.nand_stats(), scalar.nand_stats());
    let queue = |f: &InsiderFtl| {
        (
            f.recovery_queue().len(),
            f.recovery_queue().protected_count(),
        )
    };
    prop_assert_eq!(queue(&native), queue(&scalar));
    for lba in 0..SPAN {
        let a = native.read(Lba::new(lba), now).unwrap();
        let b = scalar.read(Lba::new(lba), now).unwrap();
        prop_assert_eq!(a, b, "content mismatch at lba {}", lba);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conventional_extents_equal_scalar_decomposition(
        ops in prop::collection::vec((op_strategy(), 0u64..1000), 1..40)
    ) {
        assert_equivalent(FtlConfig::new(geometry()).protection_window(None), &ops)?;
    }

    #[test]
    fn insider_extents_equal_scalar_decomposition(
        ops in prop::collection::vec((op_strategy(), 0u64..1000), 1..40)
    ) {
        assert_equivalent(FtlConfig::new(geometry()), &ops)?;
    }
}

/// Sustained churn over a half-full tiny drive — one GC per block of
/// writes, a 10 s protection window's worth of pre-images (40 pages) kept
/// alive on the insider FTL — with reads and trims mixed in. `sugar` issues
/// every page through `Ftl::{write, read, trim}`, the twin through the
/// one-page extent call.
fn gc_heavy_script(ftl: &mut InsiderFtl, sugar: bool) -> Vec<Option<Bytes>> {
    let logical = ftl.logical_pages();
    let mut now = SimTime::ZERO;
    let mut reads = Vec::new();
    for i in 0..4_000u64 {
        now += SimTime::from_millis(250);
        // Fill half the drive once, then churn a hot set.
        let lba = Lba::new(if i < logical / 2 { i } else { i % 24 });
        let data = payload(i as usize, 0);
        let probe = Lba::new(i * 7 % logical);
        if sugar {
            ftl.write(lba, data, now).unwrap();
            if i % 3 == 0 {
                reads.push(ftl.read(probe, now).unwrap());
            }
            if i % 11 == 0 {
                ftl.trim(probe, now).unwrap();
            }
        } else {
            ftl.write_extent(lba, &[data], now).unwrap();
            if i % 3 == 0 {
                reads.extend(ftl.read_extent(probe, 1, now).unwrap());
            }
            if i % 11 == 0 {
                ftl.trim_extent(probe, 1, now).unwrap();
            }
        }
    }
    reads
}

#[test]
fn one_page_calls_and_one_page_extents_are_the_same_path() {
    let cfg = FtlConfig::new(Geometry::tiny()).record_gc_victims(true);
    for cfg in [cfg.clone().protection_window(None), cfg] {
        let (mut sugar, mut extent) = (InsiderFtl::new(cfg.clone()), InsiderFtl::new(cfg));
        assert_eq!(
            gc_heavy_script(&mut sugar, true),
            gc_heavy_script(&mut extent, false)
        );
        assert!(sugar.stats().gc_invocations > 100, "{}", sugar.stats());
        let scrub = |f: &InsiderFtl| {
            let mut s = *f.stats();
            s.gc_ns = 0; // wall clock
            s
        };
        assert_eq!(scrub(&sugar), scrub(&extent));
        assert_eq!(sugar.nand_stats(), extent.nand_stats());
        assert_eq!(sugar.gc_victims(), extent.gc_victims());
    }
}
