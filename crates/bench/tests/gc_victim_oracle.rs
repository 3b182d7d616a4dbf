//! Tier-1 differential oracle for GC victim selection on the three benchmark
//! traces. The full-device scan the victim index replaced is compiled under
//! `cfg(debug_assertions)` and asserted equal to the index inside *every*
//! `select_victim` call (see `crates/ftl/tests/victim_index_oracle.rs`).
//! Tier 1 runs the debug profile, so replaying a trace here checks every
//! selection it causes, and a divergence panics where it happens; `cargo
//! test --release` checks only that the replays succeed and collect.
//!
//! To keep this fast enough for tier 1, the traces are replayed on a small
//! conventional drive with every LBA folded into the drive's span
//! (`lba % span`) — the folding massively concentrates overwrites, which
//! *raises* GC pressure and victim-selection diversity compared to a
//! full-size replay.

use bytes::Bytes;
use insider_bench::{random_trace, ransomware_mix_trace, sequential_trace};
use insider_detect::IoMode;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba};
use insider_workloads::Trace;

fn mini_geometry() -> Geometry {
    Geometry::builder()
        .blocks_per_chip(96)
        .pages_per_block(16)
        .page_size(64)
        .build()
}

/// Replays a trace scalar-wise with every LBA folded into `span`.
fn replay_folded(trace: &Trace, ftl: &mut InsiderFtl, span: u64) {
    for req in trace {
        for lba in req.blocks() {
            let lba = Lba::new(lba.index() % span);
            match req.mode {
                IoMode::Read => {
                    ftl.read(lba, req.time).expect("folded read failed");
                }
                IoMode::Write => {
                    ftl.write(lba, Bytes::from_static(b"folded"), req.time)
                        .expect("folded write failed");
                }
                IoMode::Trim => {
                    ftl.trim(lba, req.time).expect("folded trim failed");
                }
            }
        }
    }
}

fn assert_selectors_agree(name: &str, trace: &Trace, expect_gc: bool) {
    let cfg = FtlConfig::new(mini_geometry()).record_gc_victims(true);
    let mut ftl = InsiderFtl::new(cfg.protection_window(None));
    let span = ftl.logical_pages() / 2;
    replay_folded(trace, &mut ftl, span);
    let stats = ftl.stats();
    assert_eq!(
        ftl.gc_victims().len() as u64,
        stats.gc_invocations,
        "{name}: every logged victim must have been collected"
    );
    assert_eq!(
        stats.gc_invocations > 0,
        expect_gc,
        "{name}: the folded replay must exercise GC exactly when it writes"
    );
}

#[test]
fn sequential_trace_selectors_agree() {
    // Read-only trace: no selector may invent victims on a read workload.
    assert_selectors_agree("sequential-read", &sequential_trace(), false);
}

#[test]
fn random_trace_selectors_agree() {
    assert_selectors_agree("random-mixed", &random_trace(), true);
}

#[test]
fn ransomware_trace_selectors_agree() {
    assert_selectors_agree("ransomware-mix", &ransomware_mix_trace(), true);
}
