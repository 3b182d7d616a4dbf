//! A NAND read fault in the middle of a host read extent, with and without
//! a protection window: the extent fails with the injected fault, each
//! mapped page before the fault was read from NAND exactly once, unmapped
//! holes cost no NAND read, and the failed host read is not counted in
//! `host_reads`.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultKind, FaultPlan, Geometry, Lba, NandError, SimTime};

const EXTENT: u32 = 16;
/// Never written inside the extent, so they read back as `None`.
const HOLES: [u64; 4] = [2, 5, 6, 11];

fn run(window: Option<SimTime>) {
    let mut ftl = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(window));
    let now = SimTime::from_secs(1);
    for lba in (0..u64::from(EXTENT)).filter(|l| !HOLES.contains(l)) {
        let data = Bytes::copy_from_slice(&lba.to_le_bytes());
        ftl.write(Lba::new(lba), data, now).unwrap();
    }
    let mapped = EXTENT as u64 - HOLES.len() as u64;
    for k in 1..=mapped {
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Read, k);
        ftl.set_fault_plan(plan);
        let reads = ftl.nand_stats().reads;
        let host_reads = ftl.stats().host_reads;
        let err = ftl.read_extent(Lba::new(0), EXTENT, now).unwrap_err();
        assert!(
            matches!(err, FtlError::Nand(NandError::InjectedFault(_))),
            "fault {k}: {err:?}"
        );
        assert_eq!(
            ftl.nand_stats().reads - reads,
            k - 1,
            "fault {k}: mapped pages read before it"
        );
        assert_eq!(ftl.stats().host_reads, host_reads, "fault {k}");
    }
    // The plan is spent: the same extent reads whole, holes as `None`.
    let reads = ftl.nand_stats().reads;
    let out = ftl.read_extent(Lba::new(0), EXTENT, now).unwrap();
    assert_eq!(ftl.nand_stats().reads - reads, mapped);
    for (lba, page) in (0u64..).zip(&out) {
        let expect = (!HOLES.contains(&lba)).then(|| Bytes::copy_from_slice(&lba.to_le_bytes()));
        assert_eq!(page.as_ref(), expect.as_ref(), "lba {lba}");
    }
}

#[test]
fn conventional_read_fault_mid_extent() {
    run(None);
}

#[test]
fn insider_read_fault_mid_extent() {
    run(Some(SimTime::from_secs(10)));
}
