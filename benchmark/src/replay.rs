//! Layer-by-layer replay of a captured request stream.
//!
//! The traced pass records every request that crossed the device boundary.
//! Here the same stream is fed, one layer at a time, to an entropy
//! estimator, a detector, an FTL and a NAND device that each stand alone,
//! so each layer's host time can be read with nothing else running inside
//! the clock. Requests issued outside the run's timed sections (set-up,
//! verification) are replayed too, untimed: they are the warm-up that
//! brings each standalone layer to the state the real one was in.
//!
//! Measured from outside, the parts do not sum exactly to the device's
//! inclusive time (each runs with caches to itself, and the device's own
//! glue is in none of them); `core.residual_ns_per_block` reports the gap.

use crate::gen::PAGE;
use crate::stack::{self, DetectorReplay, FtlReplay, NandReplay, Res, Tree};
use crate::trace::{Captured, Request};
use bytes::Bytes;
use std::time::Instant;

/// Requests applied to the capturing FTL between drains of its command
/// log, which bounds the log's memory.
const DRAIN_EVERY: usize = 4096;

/// Host time and counts over the timed part of the stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    pub requests: u64,
    pub write_requests: u64,
    pub entropy_ns: u64,
    pub detect_ns: u64,
    pub detect_slices: u64,
    pub detect_positive_votes: u64,
    pub detect_table_peak_entries: u64,
    /// FTL inclusive of the NAND model beneath it.
    pub ftl_ns: u64,
    pub nand_ns: u64,
    pub nand_cmds: u64,
}

fn ns_since(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

pub fn replay(stream: &[Captured]) -> Res<Replayed> {
    let mut out = Replayed::default();

    let mut detector = DetectorReplay::new(&Tree::load());
    for run in stream.chunk_by(|a, b| a.timed == b.timed) {
        let started = Instant::now();
        let stamps: Vec<Option<u16>> = run
            .iter()
            .map(|c| match &c.req {
                Request::Write { data, .. } => Some(stack::entropy_stamp(data)),
                _ => None,
            })
            .collect();
        let entropy_ns = ns_since(started);
        let before = (detector.slices, detector.positive_votes);
        let started = Instant::now();
        for (c, stamp) in run.iter().zip(&stamps) {
            detector.feed(c.at_us, &c.req, *stamp);
        }
        let detect_ns = ns_since(started);
        if run[0].timed {
            out.requests += run.len() as u64;
            out.write_requests += stamps.iter().flatten().count() as u64;
            out.entropy_ns += entropy_ns;
            out.detect_ns += detect_ns;
            out.detect_slices += detector.slices - before.0;
            out.detect_positive_votes += detector.positive_votes - before.1;
        }
    }
    out.detect_table_peak_entries = detector.table_peak_entries;

    let mut ftl = FtlReplay::new(false);
    for run in stream.chunk_by(|a, b| a.timed == b.timed) {
        let started = Instant::now();
        for c in run {
            ftl.apply(c.at_us, &c.req)?;
        }
        if run[0].timed {
            out.ftl_ns += ns_since(started);
        }
    }
    drop(ftl);

    // A second FTL, with command capture on, only supplies the NAND
    // replay's input: capture costs the FTL about a seventh of its time, so
    // the instance above is the one that is timed.
    let mut source = FtlReplay::new(true);
    let mut nand = NandReplay::new(Bytes::from(vec![0u8; PAGE]));
    for run in stream.chunk_by(|a, b| a.timed == b.timed) {
        for piece in run.chunks(DRAIN_EVERY) {
            for c in piece {
                source.apply(c.at_us, &c.req)?;
            }
            let cmds = source.drain();
            let started = Instant::now();
            nand.apply(&cmds)?;
            if run[0].timed {
                out.nand_ns += ns_since(started);
                out.nand_cmds += cmds.len() as u64;
            }
        }
    }
    Ok(out)
}
