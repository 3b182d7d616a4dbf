//! Per-channel/per-die NAND command scheduler.
//!
//! `NandStats` charges every successful operation to a per-die and a
//! per-channel *busy integral* and reports the makespan `max(die, bus)` —
//! an aggregate with no notion of a queue, so it cannot say what latency
//! any single command observed. This module is the queueing simulator over
//! the same integrals:
//!
//! - every command *arrives* at the device clock (`set_now`, driven by the
//!   simulated trace time), waits for its die and its channel bus, and
//!   *completes* at `max(die done, bus done)`;
//! - dies execute their queue in order, back to back; the channel bus is a
//!   second, independently seized resource (transfer and array time are not
//!   serialized against each other, matching the decoupled busy-integral
//!   accounting — the scheduler's busy makespan therefore equals
//!   `NandStats::parallel_busy_ns` exactly, which debug builds assert);
//! - a read may be promoted ahead of *queued* (not yet started) programs
//!   and erases on its die. Reads never pass reads, mutations never pass
//!   anything, and a read never passes a program to the same page or an
//!   erase to the same block — the dependencies that would change
//!   observable data;
//! - completed commands feed per-kind latency histograms
//!   ([`crate::LatencySnapshot`]), the per-request figure a production
//!   drive lives by. Each command is recorded once per view it belongs to
//!   (its kind, plus its host kind when host-issued); the `total` rows are
//!   merged from the kind histograms when a snapshot is taken.
//!
//! A closed-loop queue-depth throttle models a host that keeps at most
//! `queue_depth` commands in flight: a fixed ring holds the completion
//! estimates of the last `queue_depth` admissions, and the next command's
//! arrival is pushed to the completion of the command issued `queue_depth`
//! ago. Without it, a trace replayed faster than the device drains would
//! grow queues (and reported latency) without bound.
//!
//! Two extensions serve tail-latency work:
//!
//! - **Host/GC attribution** ([`CmdScheduler::set_gc_context`]): commands
//!   admitted while the GC context flag is set land in the combined
//!   histograms only; [`CmdScheduler::host_snapshot`] reports the
//!   foreground-only distribution a host actually observes.
//! - **Firmware stall** ([`CmdScheduler::stall_host_until`]): a blocking
//!   GC drain occupies the (single-threaded) FTL firmware, not just the
//!   victim's die — no host command is serviced until the drain lands.
//!   The FTL raises the stall horizon to the drain's completion
//!   ([`CmdScheduler::gc_horizon_ns`]); host commands submitted earlier
//!   dispatch at the horizon while their latency anchor stays at
//!   submission, so the stall is fully host-visible.
//!
//! The scheduler is *timing only*: page contents, OOB records and error
//! results are applied synchronously at submit, in submission order, so
//! data-path behavior (and the crash sweep's acked-prefix durability
//! contract) does not depend on how commands are ordered. At queue depth 1
//! every command arrives after all earlier ones completed, so nothing is
//! promoted or stalled: that run is the reorder-free reference
//! the scheduler oracle compares the default depth against.

use crate::fault::FaultKind;
use crate::latency::{KindLatency, LatencyHistogram, LatencySnapshot};
use std::collections::VecDeque;

/// Safety valve: windows force-finalized beyond this per-die queue length.
/// Bounds scheduler memory under open-loop overload; finalizing early only
/// freezes a latency sample that could otherwise still grow.
const MAX_WINDOWS_PER_DIE: usize = 256;

/// One finalized command, emitted when capture is enabled
/// (`NandConfig::capture_commands`). The ordering proptests use these to
/// prove out-of-order issue never reorders a same-page read after its
/// program or a same-block read after its erase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdRecord {
    /// Command kind.
    pub kind: FaultKind,
    /// Flat physical page index (`u64::MAX` for erases).
    pub page: u64,
    /// Flat physical block index.
    pub block: u64,
    /// Die the command executed on.
    pub die: usize,
    /// Global submission sequence number (issue order).
    pub submit: u64,
    /// Host submission instant, ns of simulated time (dispatch may slip
    /// later under a firmware stall; latency is measured from here).
    pub arrival_ns: u64,
    /// Die service start, ns.
    pub start_ns: u64,
    /// Completion (`max(die done, bus done)`), ns.
    pub complete_ns: u64,
}

/// A queued-but-unfinalized command on one die.
#[derive(Debug, Clone, Copy)]
struct Window {
    kind: FaultKind,
    page: u64,
    block: u64,
    submit: u64,
    /// Host-visible submission instant — the latency anchor. Equal to
    /// `arrival_ns` unless a firmware stall delayed dispatch.
    submitted_ns: u64,
    arrival_ns: u64,
    start_ns: u64,
    service_ns: u64,
    /// Channel-bus completion, fixed at admission (the bus is seized in
    /// admission order); zero when the command moves no data on the bus.
    bus_done_ns: u64,
    /// Admitted outside the GC context — counts toward the host-only
    /// latency histograms.
    host: bool,
}

impl Window {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.service_ns
    }

    fn complete_ns(&self) -> u64 {
        self.end_ns().max(self.bus_done_ns)
    }
}

/// The per-channel/per-die command scheduler. The module docs at the top
/// of `sched.rs` describe the model.
#[derive(Debug, Clone)]
pub struct CmdScheduler {
    /// Device clock: latest host arrival time, ns (monotone).
    now_ns: u64,
    submit_seq: u64,
    /// Queued windows per die, in execution order.
    dies: Vec<VecDeque<Window>>,
    /// End of the last *finalized* window per die.
    die_horizon_ns: Vec<u64>,
    /// Channel-bus free time (the bus is seized in admission order).
    bus_free_ns: Vec<u64>,
    /// Busy integrals, maintained independently of `NandStats` as the
    /// differential check against its reference accounting.
    die_busy_ns: Vec<u64>,
    bus_busy_ns: Vec<u64>,
    /// Completion estimates of the last `queue_depth` admissions, a ring
    /// written at `recent_next`. Slots not yet written hold zero, which
    /// never delays an arrival.
    recent: Vec<u64>,
    recent_next: usize,
    reads_promoted: u64,
    /// Commands admitted while set are attributed to GC, not the host.
    ctx_gc: bool,
    /// Latest completion among GC-context admissions, recorded at
    /// admission.
    gc_horizon_ns: u64,
    /// Firmware stall: host commands are not dispatched before this
    /// instant (their latency anchor stays at submission, so the stall is
    /// host-visible). A blocking GC drain sets it to the drain's horizon.
    host_stall_until_ns: u64,
    gc_stalls: u64,
    gc_stall_ns: u64,
    read_hist: LatencyHistogram,
    program_hist: LatencyHistogram,
    erase_hist: LatencyHistogram,
    host_read_hist: LatencyHistogram,
    host_program_hist: LatencyHistogram,
    host_erase_hist: LatencyHistogram,
    capture: Option<Vec<CmdRecord>>,
}

impl CmdScheduler {
    /// A scheduler over `dies` dies and `channels` channel buses.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the queue depth is zero.
    pub fn new(dies: usize, channels: usize, queue_depth: usize, capture: bool) -> Self {
        // Construction-time configuration, never host input: the device
        // passes a checked geometry's chip and channel counts and a
        // `NandConfig` depth that is itself checked.
        assert!(
            dies >= 1 && channels >= 1,
            "scheduler needs at least one die and channel"
        );
        assert!(queue_depth >= 1, "queue depth is at least one");
        CmdScheduler {
            now_ns: 0,
            submit_seq: 0,
            dies: vec![VecDeque::new(); dies],
            die_horizon_ns: vec![0; dies],
            bus_free_ns: vec![0; channels],
            die_busy_ns: vec![0; dies],
            bus_busy_ns: vec![0; channels],
            recent: vec![0; queue_depth],
            recent_next: 0,
            reads_promoted: 0,
            ctx_gc: false,
            gc_horizon_ns: 0,
            host_stall_until_ns: 0,
            gc_stalls: 0,
            gc_stall_ns: 0,
            read_hist: LatencyHistogram::new(),
            program_hist: LatencyHistogram::new(),
            erase_hist: LatencyHistogram::new(),
            host_read_hist: LatencyHistogram::new(),
            host_program_hist: LatencyHistogram::new(),
            host_erase_hist: LatencyHistogram::new(),
            capture: capture.then(Vec::new),
        }
    }

    /// Flags subsequent admissions as GC-internal (true) or host-issued
    /// (false). GC commands are excluded from the host-only histograms.
    pub fn set_gc_context(&mut self, gc: bool) {
        self.ctx_gc = gc;
    }

    /// Advances the device clock (monotone; earlier instants are clamped)
    /// and finalizes every window whose service *completed* by the new
    /// instant. Started-but-unfinished windows stay queued, where a
    /// promoted read cannot displace them (the insertion scan treats a
    /// started window as blocking): a command still in flight at the
    /// device clock has no latency sample yet, so a snapshot taken at
    /// this instant does not count it.
    pub fn set_now(&mut self, now_ns: u64) {
        if now_ns > self.now_ns {
            self.now_ns = now_ns;
        }
        for die in 0..self.dies.len() {
            self.purge_started(die);
        }
    }

    fn purge_started(&mut self, die: usize) {
        let now_ns = self.now_ns;
        while let Some(w) = self.dies[die].pop_front_if(|w| w.end_ns() <= now_ns) {
            self.finalize(die, w);
        }
    }

    fn finalize(&mut self, die: usize, w: Window) {
        let complete = w.complete_ns();
        // Latency is anchored at host submission, so a firmware stall
        // between submission and dispatch stays host-visible.
        let latency = complete - w.submitted_ns;
        match w.kind {
            FaultKind::Read => self.read_hist.record(latency),
            FaultKind::Program => self.program_hist.record(latency),
            FaultKind::Erase => self.erase_hist.record(latency),
        }
        if w.host {
            match w.kind {
                FaultKind::Read => self.host_read_hist.record(latency),
                FaultKind::Program => self.host_program_hist.record(latency),
                FaultKind::Erase => self.host_erase_hist.record(latency),
            }
        }
        self.die_horizon_ns[die] = self.die_horizon_ns[die].max(w.end_ns());
        if let Some(log) = self.capture.as_mut() {
            log.push(CmdRecord {
                kind: w.kind,
                page: w.page,
                block: w.block,
                die,
                submit: w.submit,
                arrival_ns: w.submitted_ns,
                start_ns: w.start_ns,
                complete_ns: complete,
            });
        }
    }

    /// Admits one successful command: schedules it on `die`/`channel`,
    /// charges the busy integrals, and returns its estimated completion
    /// time (queued mutations may still slip if a later read is promoted
    /// past them; the finalized latency sample accounts for that).
    ///
    /// `page` is the flat physical page index (`u64::MAX` for erases),
    /// `block` the flat block index — the identities the dependency guard
    /// keys on. `service_ns` is array time, `bus_ns` channel-transfer time.
    /// (The argument list mirrors the command descriptor one-to-one; a
    /// builder would only obscure the single call site in `NandDevice`.)
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        kind: FaultKind,
        die: usize,
        channel: usize,
        page: u64,
        block: u64,
        service_ns: u64,
        bus_ns: u64,
    ) -> u64 {
        self.die_busy_ns[die] += service_ns;
        self.bus_busy_ns[channel] += bus_ns;
        let submit = self.submit_seq;
        self.submit_seq += 1;

        // Closed-loop host: with `queue_depth` commands outstanding, the
        // next one cannot arrive before the oldest of them completed. The
        // ring slot this admission overwrites holds that oldest estimate.
        let mut arrival_ns = self.now_ns.max(self.recent[self.recent_next]);
        // Firmware stall: a host command submitted during a blocking GC
        // drain waits for the firmware, not a die — its dispatch slips to
        // the stall horizon while its latency anchor stays at submission.
        let submitted_ns = arrival_ns;
        if !self.ctx_gc && self.host_stall_until_ns > arrival_ns {
            self.gc_stalls += 1;
            self.gc_stall_ns += self.host_stall_until_ns - arrival_ns;
            arrival_ns = self.host_stall_until_ns;
        }
        self.purge_started(die);

        // The channel bus is seized in admission order.
        let bus_done_ns = if bus_ns == 0 {
            0
        } else {
            let done = self.bus_free_ns[channel].max(arrival_ns) + bus_ns;
            self.bus_free_ns[channel] = done;
            done
        };

        let mut w = Window {
            kind,
            page,
            block,
            submit,
            submitted_ns,
            arrival_ns,
            start_ns: 0,
            service_ns,
            bus_done_ns,
            host: !self.ctx_gc,
        };

        let queue = &mut self.dies[die];
        let ins = if kind == FaultKind::Read {
            // A read may jump queued windows, but never one that already
            // started by its arrival, never another read, and never a
            // program to the same page or an erase to its block.
            let blocking = |q: &Window| {
                q.start_ns < arrival_ns
                    || match q.kind {
                        FaultKind::Read => true,
                        FaultKind::Program => q.page == page,
                        FaultKind::Erase => q.block == block,
                    }
            };
            // The slot is behind the *last* blocking window, so the walk
            // starts at the back and stops at the first one it meets: a read
            // behind reads (a mount scan's quarter of a million, all at one
            // frozen `now`, against a queue at its cap) looks at one window,
            // not all of them.
            let ins = queue.iter().rposition(blocking).map_or(0, |i| i + 1);
            // The front-to-back walk over the whole queue that this
            // replaced, as the oracle at every admission of a debug build.
            #[cfg(debug_assertions)]
            {
                let mut forward = 0;
                for (i, q) in queue.iter().enumerate() {
                    if blocking(q) {
                        forward = i + 1;
                    }
                }
                assert_eq!(ins, forward, "read admission slot");
            }
            ins
        } else {
            queue.len()
        };
        if ins < queue.len() && kind == FaultKind::Read {
            self.reads_promoted += 1;
        }

        let mut prev_end = if ins == 0 {
            self.die_horizon_ns[die]
        } else {
            queue[ins - 1].end_ns()
        };
        w.start_ns = w.arrival_ns.max(prev_end);
        let complete = w.complete_ns();
        if ins == queue.len() {
            queue.push_back(w);
        } else {
            queue.insert(ins, w);
            // Re-chain everything the insertion displaced.
            prev_end = queue[ins].end_ns();
            for q in queue.iter_mut().skip(ins + 1) {
                q.start_ns = q.arrival_ns.max(prev_end);
                prev_end = q.end_ns();
            }
        }

        if self.ctx_gc {
            self.gc_horizon_ns = self.gc_horizon_ns.max(complete);
        }
        self.recent[self.recent_next] = complete;
        self.recent_next += 1;
        if self.recent_next == self.recent.len() {
            self.recent_next = 0;
        }
        while self.dies[die].len() > MAX_WINDOWS_PER_DIE {
            let Some(w) = self.dies[die].pop_front() else {
                break;
            };
            self.finalize(die, w);
        }
        complete
    }

    /// Finalizes every queued window (end of run / explicit sync). The
    /// device clock and busy integrals are untouched.
    pub fn flush(&mut self) {
        for die in 0..self.dies.len() {
            while let Some(w) = self.dies[die].pop_front() {
                self.finalize(die, w);
            }
        }
    }

    /// Per-kind latency percentiles over every *finalized* command. Call
    /// [`flush`](Self::flush) first to include still-queued windows.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            read: KindLatency::from_histogram(&self.read_hist),
            program: KindLatency::from_histogram(&self.program_hist),
            erase: KindLatency::from_histogram(&self.erase_hist),
            total: KindLatency::from_histogram(&LatencyHistogram::merged(&[
                &self.read_hist,
                &self.program_hist,
                &self.erase_hist,
            ])),
        }
    }

    /// Latency percentiles over finalized *host-issued* commands only —
    /// admissions made inside the GC context
    /// ([`set_gc_context`](Self::set_gc_context)) are excluded: the
    /// foreground distribution a host observes.
    pub fn host_snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            read: KindLatency::from_histogram(&self.host_read_hist),
            program: KindLatency::from_histogram(&self.host_program_hist),
            erase: KindLatency::from_histogram(&self.host_erase_hist),
            total: KindLatency::from_histogram(&LatencyHistogram::merged(&[
                &self.host_read_hist,
                &self.host_program_hist,
                &self.host_erase_hist,
            ])),
        }
    }

    /// Per-die busy integrals (pure service time), ns.
    pub fn die_busy_ns(&self) -> &[u64] {
        &self.die_busy_ns
    }

    /// Per-channel bus busy integrals, ns.
    pub fn bus_busy_ns(&self) -> &[u64] {
        &self.bus_busy_ns
    }

    /// Busy-integral makespan: the most loaded die or channel bus. Equal by
    /// construction to `NandStats::parallel_busy_ns` (both sum
    /// pure service time), which the differential oracle asserts.
    pub fn makespan_ns(&self) -> u64 {
        let die = self.die_busy_ns.iter().copied().max().unwrap_or(0);
        let bus = self.bus_busy_ns.iter().copied().max().unwrap_or(0);
        die.max(bus)
    }

    /// Queue-aware completion horizon: when the last currently known
    /// command finishes. Unlike [`makespan_ns`](Self::makespan_ns) this
    /// includes idle gaps between arrivals.
    pub fn completion_horizon_ns(&self) -> u64 {
        let mut horizon = self.bus_free_ns.iter().copied().max().unwrap_or(0);
        for (die, queue) in self.dies.iter().enumerate() {
            let end = queue
                .back()
                .map_or(self.die_horizon_ns[die], |w| w.end_ns());
            horizon = horizon.max(end);
        }
        horizon
    }

    /// How many reads were promoted past at least one queued mutation.
    pub fn reads_promoted(&self) -> u64 {
        self.reads_promoted
    }

    /// Latest completion among GC-context admissions — the instant a
    /// just-issued blocking drain fully lands on the arrays.
    pub fn gc_horizon_ns(&self) -> u64 {
        self.gc_horizon_ns
    }

    /// Models the firmware being busy (a blocking GC drain): host
    /// commands submitted before `ns` are not dispatched until then,
    /// and the wait counts toward their host-visible latency. Monotone;
    /// earlier instants are ignored. GC-context admissions are exempt
    /// (they *are* the drain).
    pub fn stall_host_until(&mut self, ns: u64) {
        self.host_stall_until_ns = self.host_stall_until_ns.max(ns);
    }

    /// How many host commands a firmware stall delayed, and the total
    /// submission-to-dispatch time they waited, ns.
    pub fn gc_stall_totals(&self) -> (u64, u64) {
        (self.gc_stalls, self.gc_stall_ns)
    }

    /// Commands currently queued (admitted but not finalized).
    pub fn queued(&self) -> usize {
        self.dies.iter().map(VecDeque::len).sum()
    }

    /// Drains the capture log (empty unless capture was enabled at
    /// construction). Records appear in finalization order; sort by
    /// `submit` to recover issue order.
    pub fn take_captured(&mut self) -> Vec<CmdRecord> {
        self.capture
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ_NS: u64 = 50_000;
    const PROG_NS: u64 = 500_000;
    const ERASE_NS: u64 = 3_000_000;
    const BUS_NS: u64 = 30_000;

    fn sched() -> CmdScheduler {
        CmdScheduler::new(4, 2, 1024, true)
    }

    #[test]
    fn out_of_order_read_overtakes_unrelated_program() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 1, 0, PROG_NS, BUS_NS);
        let done = s.admit(FaultKind::Read, 0, 0, 2, 0, READ_NS, BUS_NS);
        // Die service finishes at READ_NS; the bus (seized in admission
        // order) finishes at 2×BUS_NS, well before the program would end.
        assert_eq!(done, READ_NS.max(2 * BUS_NS));
        assert!(done < PROG_NS);
        assert_eq!(s.reads_promoted(), 1);
        s.flush();
        let snap = s.snapshot();
        // The displaced program now ends at READ_NS + PROG_NS.
        assert_eq!(snap.program.max_ns, READ_NS + PROG_NS);
    }

    #[test]
    fn read_never_overtakes_program_to_same_page() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 7, 0, PROG_NS, BUS_NS);
        let done = s.admit(FaultKind::Read, 0, 0, 7, 0, READ_NS, BUS_NS);
        assert_eq!(done, PROG_NS + READ_NS, "same-page read must wait");
        assert_eq!(s.reads_promoted(), 0);
    }

    #[test]
    fn read_never_overtakes_erase_of_its_block() {
        let mut s = sched();
        s.admit(FaultKind::Erase, 0, 0, u64::MAX, 3, ERASE_NS, 0);
        let same = s.admit(FaultKind::Read, 0, 0, 48, 3, READ_NS, BUS_NS);
        assert_eq!(same, ERASE_NS + READ_NS, "read of the erased block waits");
        let mut s = sched();
        s.admit(FaultKind::Erase, 0, 0, u64::MAX, 3, ERASE_NS, 0);
        let other = s.admit(FaultKind::Read, 0, 0, 64, 4, READ_NS, BUS_NS);
        assert!(
            other < ERASE_NS,
            "read of another block overtakes the erase"
        );
    }

    #[test]
    fn reads_never_pass_reads() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 1, 0, PROG_NS, BUS_NS);
        s.admit(FaultKind::Read, 0, 0, 2, 0, READ_NS, BUS_NS);
        s.admit(FaultKind::Read, 0, 0, 3, 0, READ_NS, BUS_NS);
        s.flush();
        let rec = s.take_captured();
        let r2 = rec.iter().find(|r| r.page == 2).unwrap();
        let r3 = rec.iter().find(|r| r.page == 3).unwrap();
        assert!(
            r3.start_ns >= r2.start_ns,
            "later read starts after earlier read"
        );
    }

    #[test]
    fn busy_integrals_accumulate_service_time_only() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 1, 0, PROG_NS, BUS_NS);
        s.admit(FaultKind::Read, 1, 1, 100, 6, READ_NS, BUS_NS);
        s.admit(FaultKind::Erase, 0, 0, u64::MAX, 0, ERASE_NS, 0);
        assert_eq!(s.die_busy_ns(), &[PROG_NS + ERASE_NS, READ_NS, 0, 0]);
        assert_eq!(s.bus_busy_ns(), &[BUS_NS, BUS_NS]);
        assert_eq!(s.makespan_ns(), PROG_NS + ERASE_NS);
        assert!(s.completion_horizon_ns() >= s.makespan_ns());
    }

    #[test]
    fn set_now_finalizes_completed_windows_only() {
        let mut s = sched();
        s.admit(FaultKind::Read, 0, 0, 1, 0, READ_NS, BUS_NS);
        assert_eq!(s.queued(), 1);
        // Started at 0 but still mid-pulse: it stays queued, with no
        // latency sample yet.
        s.set_now(1);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.snapshot().read.count, 0);
        // Pulse over: the clock sweep finalizes it.
        s.set_now(BUS_NS + READ_NS + 1);
        assert_eq!(s.queued(), 0);
        assert_eq!(s.snapshot().read.count, 1);
    }

    #[test]
    fn clock_is_monotone() {
        let mut s = sched();
        s.set_now(1_000_000);
        s.set_now(400); // clamped
        let done = s.admit(FaultKind::Read, 0, 0, 1, 0, READ_NS, 0);
        assert_eq!(done, 1_000_000 + READ_NS);
    }

    #[test]
    fn queue_depth_throttle_bounds_latency() {
        // Open loop: 64 programs arrive at t=0 on one die; the last one
        // waits for all predecessors.
        let mut open = CmdScheduler::new(1, 1, 1024, false);
        for i in 0..64 {
            open.admit(FaultKind::Program, 0, 0, i, 0, PROG_NS, BUS_NS);
        }
        open.flush();
        let open_p99 = open.snapshot().program.p99_ns;
        // Closed loop at QD 2: arrival is pushed to completion of the
        // command two back, so queueing delay stays ~bounded.
        let mut closed = CmdScheduler::new(1, 1, 2, false);
        for i in 0..64 {
            closed.admit(FaultKind::Program, 0, 0, i, 0, PROG_NS, BUS_NS);
        }
        closed.flush();
        let closed_p99 = closed.snapshot().program.p99_ns;
        assert!(
            closed_p99 < open_p99,
            "closed-loop p99 {closed_p99} should be below open-loop {open_p99}"
        );
        assert!(closed_p99 <= 3 * PROG_NS);
    }

    #[test]
    fn per_die_queue_is_bounded() {
        let mut s = CmdScheduler::new(1, 1, 100_000, false);
        for i in 0..10 * MAX_WINDOWS_PER_DIE as u64 {
            s.admit(FaultKind::Program, 0, 0, i, 0, PROG_NS, 0);
        }
        assert!(s.queued() <= MAX_WINDOWS_PER_DIE);
        s.flush();
        assert_eq!(s.snapshot().program.count, 10 * MAX_WINDOWS_PER_DIE as u64);
    }

    #[test]
    fn capture_preserves_submit_order_metadata() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 1, 0, PROG_NS, BUS_NS);
        s.admit(FaultKind::Read, 0, 0, 2, 0, READ_NS, BUS_NS);
        s.flush();
        let mut rec = s.take_captured();
        assert_eq!(rec.len(), 2);
        rec.sort_by_key(|r| r.submit);
        assert_eq!(rec[0].kind, FaultKind::Program);
        assert_eq!(rec[1].kind, FaultKind::Read);
        // The promoted read starts before the program it overtook.
        assert!(rec[1].start_ns < rec[0].start_ns);
        assert!(s.take_captured().is_empty(), "capture log drains");
    }

    /// A read of another block that arrives while an erase is mid-pulse on
    /// its die waits for the erase: a started window is never passed.
    #[test]
    fn read_waits_for_an_in_flight_erase() {
        // QD 2: the long program on die 1 pins the read's arrival at
        // 1.2 ms, inside the erase's [0, 3 ms) pulse on die 0.
        let mut s = CmdScheduler::new(4, 2, 2, false);
        s.admit(FaultKind::Program, 1, 1, 100, 6, 1_200_000, 0);
        s.admit(FaultKind::Erase, 0, 0, u64::MAX, 3, ERASE_NS, 0);
        let done = s.admit(FaultKind::Read, 0, 0, 64, 4, READ_NS, BUS_NS);
        assert_eq!(done, ERASE_NS + READ_NS);
        assert_eq!(s.reads_promoted(), 0);
    }

    #[test]
    fn gc_context_splits_host_histograms() {
        let mut s = sched();
        s.admit(FaultKind::Program, 0, 0, 1, 0, PROG_NS, BUS_NS);
        s.set_gc_context(true);
        s.admit(FaultKind::Program, 1, 1, 17, 1, PROG_NS, BUS_NS);
        s.admit(FaultKind::Erase, 1, 1, u64::MAX, 2, ERASE_NS, 0);
        s.set_gc_context(false);
        s.admit(FaultKind::Read, 0, 0, 2, 0, READ_NS, BUS_NS);
        s.flush();
        let all = s.snapshot();
        let host = s.host_snapshot();
        assert_eq!(all.program.count, 2);
        assert_eq!(all.erase.count, 1);
        assert_eq!(host.program.count, 1, "GC program excluded");
        assert_eq!(host.erase.count, 0, "GC erase excluded");
        assert_eq!(host.read.count, 1);
        assert_eq!(host.total.count, 2);
    }
}
