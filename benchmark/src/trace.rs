//! In-memory span and request recorder for the traced pass.
//!
//! Spans are taken from the benchmark's own files only: around each host
//! operation, and in the `Timed` shims (`stack.rs`) above the block cache
//! and above the device boundary. A span records its layer, start, end, the
//! span that caused it and the host operation it belongs to; a layer's self
//! time is its spans' duration minus the part their child spans cover.
//!
//! The boundary shim also records every request that crosses into the
//! device (operation, address, length, simulated time, payload handles —
//! refcounted, never copied) so `replay.rs` can feed the same stream to the
//! detector, the FTL and the NAND model one at a time.

use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Where a span was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A file operation on MiniExt.
    Fs,
    /// One `fsck` pass.
    Fsck,
    /// `MiniExt::mount`.
    Mount,
    /// A block call into the cache.
    Cache,
    /// `BlockCache::flush`.
    Flush,
    /// A call crossing the device boundary (`FsBridge` and below).
    Core,
}

impl Layer {
    pub const COUNT: usize = 6;
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Host operation this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `u32::MAX` for a top-level span.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A request as it crossed the device boundary.
#[derive(Debug, Clone)]
pub enum Request {
    Read {
        lba: u64,
        len: u32,
    },
    Write {
        lba: u64,
        data: Vec<Bytes>,
    },
    Trim {
        lba: u64,
        len: u32,
    },
    /// Idle-time poll (`FsBridge::advance`).
    Poll,
}

#[derive(Debug, Clone)]
pub struct Captured {
    /// Simulated time the device saw, microseconds.
    pub at_us: u64,
    /// Issued inside a timed span of the run (replay times only these; the
    /// rest is warm-up).
    pub timed: bool,
    pub req: Request,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    timed: bool,
    stream: Vec<Captured>,
}

/// Shared handle to one run's recorder (single-threaded by construction:
/// one client, one stack).
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            timed: false,
            stream: Vec::new(),
        })))
    }

    /// Marks the start or end of a timed section of the run. Spans are only
    /// recorded inside one; requests are always captured, flagged.
    pub fn set_timed(&self, timed: bool) {
        self.0.borrow_mut().timed = timed;
    }

    /// Starts the next host operation; later spans carry its id.
    pub fn next_op(&self) {
        self.0.borrow_mut().op += 1;
    }

    /// Opens a span; `None` outside timed sections.
    pub fn enter(&self, layer: Layer) -> Option<u32> {
        let mut t = self.0.borrow_mut();
        if !t.timed {
            return None;
        }
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let op = t.op;
        t.open.push(id);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            layer,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn exit(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let mut t = self.0.borrow_mut();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans[id as usize].end_ns = end_ns;
        let top = t.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Runs `call` under a span of `layer`.
    pub fn span<T>(&self, layer: Layer, call: impl FnOnce() -> T) -> T {
        let id = self.enter(layer);
        let out = call();
        self.exit(id);
        out
    }

    pub fn capture(&self, at_us: u64, req: Request) {
        let mut t = self.0.borrow_mut();
        let timed = t.timed;
        t.stream.push(Captured { at_us, timed, req });
    }

    /// Ends recording and hands over what was recorded.
    pub fn take(&self) -> (Vec<Span>, Vec<Captured>) {
        let mut t = self.0.borrow_mut();
        assert!(t.open.is_empty(), "a span is still open");
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.stream))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-layer totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    /// Sum of span durations.
    pub incl_ns: u64,
    /// `incl_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// Totals per layer over `spans`, indexed by `Layer as usize`.
pub fn layer_times(spans: &[Span]) -> [LayerTime; Layer::COUNT] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [LayerTime::default(); Layer::COUNT];
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let total = &mut out[s.layer as usize];
        total.spans += 1;
        total.incl_ns += dur;
        total.self_ns += dur.saturating_sub(*child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untimed_spans_are_dropped() {
        let t = Tracer::new();
        assert_eq!(t.enter(Layer::Fs), None, "untimed: no span");
        t.set_timed(true);
        t.next_op();
        let outer = t.enter(Layer::Fs);
        let inner = t.enter(Layer::Cache);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        t.set_timed(false);
        t.capture(7, Request::Poll);
        let (spans, stream) = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].op, 1);
        let times = layer_times(&spans);
        let (fs, cache) = (times[Layer::Fs as usize], times[Layer::Cache as usize]);
        assert!(cache.incl_ns >= 2_000_000);
        assert_eq!(fs.self_ns, fs.incl_ns - cache.incl_ns);
        assert_eq!(
            fs.self_ns + cache.self_ns,
            fs.incl_ns,
            "self times telescope"
        );
        assert!(!stream[0].timed);
    }
}
