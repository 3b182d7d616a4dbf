//! Zero-copy data-path guarantees: payload buffers move by reference
//! through the FTL — host writes, GC relocation (including protected-page
//! migration) and read-back all alias one backing allocation — and the
//! device's provenance counters prove it.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Interleaves hot overwrites (4-page working set) with cold single-write
/// pages, one simulated second apart, until GC has migrated at least one
/// page. The cold half keeps every block holding live pages, so no victim
/// is ever fully invalid and migration is forced; the advancing clock
/// retires old backup entries so the SSD-Insider FTL's collection never
/// starves on protection. Returns a pinned payload written up front whose
/// relocation chain can be checked for aliasing.
fn churn_until_gc_copies(f: &mut InsiderFtl) -> Bytes {
    let precious = Bytes::from_static(b"pinned across relocation");
    f.write(Lba::new(40), precious.clone(), secs(0)).unwrap();
    let mut i = 0u64;
    while f.stats().gc_page_copies == 0 {
        let lba = if i.is_multiple_of(2) {
            Lba::new((i / 2) % 4)
        } else {
            Lba::new(50 + (i / 2) % 100)
        };
        let data = Bytes::copy_from_slice(format!("churn{i}").as_bytes());
        f.write(lba, data, secs(i)).unwrap();
        i += 1;
        assert!(i < 20_000, "gc never migrated a page");
    }
    precious
}

#[test]
fn gc_relocation_never_copies_buffers() {
    let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).protection_window(None));
    let precious = churn_until_gc_copies(&mut f);
    let stats = f.nand_stats();
    assert_eq!(
        stats.buffers_copied, 0,
        "zero-copy path must never materialize a private payload copy"
    );
    assert_eq!(stats.buffers_shared, stats.programs);
    // The pinned page still aliases the original static allocation even if
    // GC relocated it: reading it back returns a handle onto the same bytes.
    let back = f.read(Lba::new(40), secs(0)).unwrap().unwrap();
    assert_eq!(
        back.as_ref().as_ptr(),
        precious.as_ref().as_ptr(),
        "read-back must alias the originally written buffer"
    );
}

#[test]
fn insider_relocation_never_copies_buffers() {
    let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
    let precious = churn_until_gc_copies(&mut f);
    let stats = f.nand_stats();
    assert_eq!(stats.buffers_copied, 0);
    assert_eq!(stats.buffers_shared, stats.programs);
    let back = f.read(Lba::new(40), secs(0)).unwrap().unwrap();
    assert_eq!(back.as_ref().as_ptr(), precious.as_ref().as_ptr());
}

#[test]
fn protected_migration_and_rollback_preserve_aliasing() {
    // The SSD-Insider FTL's delayed deletion forces GC to migrate protected
    // *invalid* pages; those relocations must also move handles, not bytes,
    // and rollback (pointer updates alone) must restore the original
    // backing buffer. Block layout mirrors the in-crate
    // `gc_preserves_protected_old_versions` test: a pinned valid page, a
    // run of retired pre-images and a run of still-protected pre-images.
    let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()));
    let precious = Bytes::from_static(b"precious plaintext");
    f.write(Lba::new(0), precious.clone(), secs(0)).unwrap();
    for i in 0..7 {
        let data = Bytes::copy_from_slice(format!("early{i}").as_bytes());
        f.write(Lba::new(1), data, secs(0)).unwrap();
    }
    for i in 0..8 {
        let data = Bytes::copy_from_slice(format!("late{i}").as_bytes());
        f.write(Lba::new(1), data, secs(50)).unwrap();
    }
    // Churn a third page at t=50 until GC fires; churn pre-images are all
    // protected, so the only viable victim holds the mix above.
    let mut churn = 0;
    while f.stats().gc_invocations == 0 {
        let data = Bytes::copy_from_slice(format!("churn{churn}").as_bytes());
        f.write(Lba::new(2), data, secs(50)).unwrap();
        churn += 1;
        assert!(churn < 400, "gc never triggered");
    }
    assert!(
        f.stats().gc_protected_copies > 0,
        "protected pre-images must have been migrated, stats: {}",
        f.stats()
    );
    let stats = f.nand_stats();
    assert_eq!(stats.buffers_copied, 0, "protected migration must not copy");
    assert_eq!(stats.buffers_shared, stats.programs);
    // Rollback rewinds by pointer updates; the restored page must still
    // alias the buffer the host originally wrote.
    f.rollback(secs(51)).unwrap();
    let back = f.read(Lba::new(0), secs(51)).unwrap().unwrap();
    assert_eq!(back.as_ref(), precious.as_ref());
    assert_eq!(
        back.as_ref().as_ptr(),
        precious.as_ref().as_ptr(),
        "rollback must restore the original backing buffer, not a copy"
    );
    assert_eq!(f.nand_stats().buffers_copied, 0);
}
