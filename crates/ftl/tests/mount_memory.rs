//! Mount-memory guard: the power-on mount's transient heap is bounded by
//! the capacity it exports and the records still inside the protection
//! window, not by the number of records on flash.
//!
//! A counting global allocator tracks live and peak heap bytes. The test
//! fills a drive, overwrites a quarter of it, idles past the protection
//! window and power-cuts; then writes a burst and cuts again inside the
//! window. Each mount's transient heap — its peak above the larger of the
//! heap before and after it, which both hold the drive's DRAM structures —
//! must stay within
//!
//! * [`PER_PAGE`] bytes per exported logical page (the scan's per-page
//!   fold),
//! * plus [`PER_RECENT`] bytes per in-window OOB record (kept for the
//!   queue rebuild, then sorted into entries),
//! * plus [`PER_BLOCK`] bytes per erase block and [`SLACK`] bytes.
//!
//! A mount that collects every decoded record — 40 B each, more with
//! vector growth — exceeds it on any drive holding at least one record
//! per logical page.
//!
//! This file holds one test, so no other test's allocations are counted.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, Pba, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const PER_PAGE: usize = 32;
const PER_RECENT: usize = 80;
const PER_BLOCK: usize = 64;
const SLACK: usize = 64 * 1024;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Power-cuts `f` at `now` and returns the mount's transient heap bytes.
fn mount_transient(f: &mut InsiderFtl, now: SimTime) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f.power_cut(now).unwrap();
    let after = LIVE.load(Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) - before.max(after)
}

/// OOB records on flash stamped at or after `cutoff`, read for free.
fn records_since(f: &InsiderFtl, cutoff: SimTime) -> usize {
    let g = f.config().geometry();
    let dev = f.device();
    (0..g.total_blocks())
        .flat_map(|b| {
            let block = dev.block(Pba::new(b)).unwrap();
            (0..block.len()).filter_map(move |o| block.oob(o).unwrap())
        })
        .filter(|rec| rec.stamp >= cutoff)
        .count()
}

fn budget(f: &InsiderFtl, recent: usize) -> usize {
    let blocks = f.config().geometry().total_blocks() as usize;
    PER_PAGE * f.logical_pages() as usize + PER_RECENT * recent + PER_BLOCK * blocks + SLACK
}

#[test]
fn mount_transient_heap_is_per_page_plus_per_recent_record() {
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(64)
        .pages_per_block(64)
        .page_size(64)
        .build();
    let mut f = InsiderFtl::new(FtlConfig::new(geometry));
    let window = f.config().window().unwrap();
    let logical = f.logical_pages();
    let extent = vec![Bytes::from_static(b"page"); 64];
    let mut now = SimTime::from_secs(1);
    // Extents `step` apart; overwrites one second apart protect ten
    // extents' pre-images at a time, which over-provisioning absorbs.
    let write = |f: &mut InsiderFtl, from: u64, to: u64, step: SimTime, now: &mut SimTime| {
        let mut lba = from;
        while lba < to {
            let len = (to - lba).min(extent.len() as u64) as usize;
            f.write_extent(Lba::new(lba), &extent[..len], *now).unwrap();
            *now += step;
            lba += len as u64;
        }
    };

    // Fill, overwrite a quarter, idle past the window: nothing in it.
    write(&mut f, 0, logical, SimTime::from_millis(10), &mut now);
    write(&mut f, 0, logical / 4, SimTime::from_secs(1), &mut now);
    now += window + SimTime::from_secs(1);
    f.tick(now);
    let scanned = records_since(&f, SimTime::ZERO);
    assert!(
        scanned as u64 >= logical,
        "the drive holds a record per page"
    );
    assert_eq!(records_since(&f, now.saturating_sub(window)), 0);
    let idle = mount_transient(&mut f, now);
    assert_eq!(f.mount_scan_entries(), scanned as u64);
    assert!(
        idle <= budget(&f, 0),
        "idle mount held {idle} B transient for {logical} logical pages \
         and {scanned} records; budget {} B",
        budget(&f, 0)
    );

    // A burst inside the window: its records are kept for the queue.
    let burst = logical / 2..logical / 2 + 512;
    write(
        &mut f,
        burst.start,
        burst.end,
        SimTime::from_millis(10),
        &mut now,
    );
    let recent = records_since(&f, now.saturating_sub(window));
    assert!(recent >= 512);
    let busy = mount_transient(&mut f, now);
    assert!(!f.recovery_queue().is_empty());
    assert!(
        busy <= budget(&f, recent),
        "mount held {busy} B transient with {recent} in-window records; \
         budget {} B",
        budget(&f, recent)
    );
}
