//! Model test for the command scheduler's bookkeeping: random streams of
//! admissions, clock jumps (forward and clamped backward), firmware stalls,
//! GC-context toggles and flushes run through a [`CmdScheduler`] with
//! erase-suspend on and off, at queue depths 1–40.
//! After every step the test recomputes, from `admit`'s return values and
//! the capture log alone:
//!
//! - each finalized command's arrival under the closed-loop queue-depth
//!   rule, stated as a plain `VecDeque` of the last `qd` completion
//!   estimates (the scheduler keeps a fixed ring);
//! - all eight snapshot rows, by recording every finalized latency into a
//!   per-kind, a total, and (for host-issued commands) the host
//!   histograms of its own (the scheduler records each command twice and
//!   merges the totals at snapshot time).
//!
//! The vendored proptest runs a fixed seed; `PROPTEST_RNG_SEED=<u64>`
//! explores others and a failure names it.

use insider_nand::{CmdScheduler, FaultKind, KindLatency, LatencyHistogram, LatencySnapshot};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    /// Admit one command; `pick` chooses die, page and block, `jitter`
    /// perturbs the service time.
    Admit {
        kind: FaultKind,
        pick: u64,
        jitter: u64,
    },
    /// `set_now(now + d)`.
    Advance(u64),
    /// `set_now(now - d)`: the scheduler clamps it.
    Rewind(u64),
    /// `stall_host_until(now + d)`.
    Stall(u64),
    Gc(bool),
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        5 => Just(FaultKind::Read),
        3 => Just(FaultKind::Program),
        1 => Just(FaultKind::Erase),
    ];
    prop_oneof![
        12 => (kind, 0u64..1 << 20, 0u64..100_000)
            .prop_map(|(kind, pick, jitter)| Op::Admit { kind, pick, jitter }),
        3 => (0u64..4_000_000).prop_map(Op::Advance),
        1 => (0u64..2_000_000).prop_map(Op::Rewind),
        1 => (0u64..6_000_000).prop_map(Op::Stall),
        1 => any::<bool>().prop_map(Op::Gc),
        1 => Just(Op::Flush),
    ]
}

/// What the scheduler should report, rebuilt from its public outputs.
struct Model {
    qd: usize,
    now_ns: u64,
    /// The last `qd` values `admit` returned, oldest first.
    recent: VecDeque<u64>,
    /// Per submission number: the expected arrival and whether the
    /// command was host-issued.
    admitted: Vec<(u64, bool)>,
    finalized: Vec<bool>,
    /// Indexed read, program, erase, total.
    all: [LatencyHistogram; 4],
    host: [LatencyHistogram; 4],
}

impl Model {
    fn new(qd: usize) -> Self {
        Model {
            qd,
            now_ns: 0,
            recent: VecDeque::new(),
            admitted: Vec::new(),
            finalized: Vec::new(),
            all: Default::default(),
            host: Default::default(),
        }
    }

    /// The arrival the next admission gets: the clock, pushed to the
    /// completion of the command issued `qd` ago once `qd` are out.
    fn next_arrival(&self) -> u64 {
        match self.recent.front() {
            Some(&oldest) if self.recent.len() >= self.qd => self.now_ns.max(oldest),
            _ => self.now_ns,
        }
    }

    fn admitted(&mut self, arrival_ns: u64, host: bool, complete_ns: u64) {
        self.admitted.push((arrival_ns, host));
        self.finalized.push(false);
        self.recent.push_back(complete_ns);
        while self.recent.len() > self.qd {
            self.recent.pop_front();
        }
    }

    fn snapshot(rows: &[LatencyHistogram; 4]) -> LatencySnapshot {
        LatencySnapshot {
            read: KindLatency::from_histogram(&rows[0]),
            program: KindLatency::from_histogram(&rows[1]),
            erase: KindLatency::from_histogram(&rows[2]),
            total: KindLatency::from_histogram(&rows[3]),
        }
    }

    /// Drains the capture log into the model and compares everything.
    fn check(&mut self, s: &mut CmdScheduler, step: usize) -> TestCaseResult {
        for r in s.take_captured() {
            let submit = r.submit as usize;
            prop_assert!(submit < self.admitted.len(), "step {step}: unknown {r:?}");
            prop_assert!(
                !self.finalized[submit],
                "step {step}: finalized twice {r:?}"
            );
            self.finalized[submit] = true;
            let (arrival_ns, host) = self.admitted[submit];
            prop_assert_eq!(r.arrival_ns, arrival_ns, "step {step}: arrival of {r:?}");
            let latency = r.complete_ns - r.arrival_ns;
            let kind = match r.kind {
                FaultKind::Read => 0,
                FaultKind::Program => 1,
                FaultKind::Erase => 2,
            };
            for i in [kind, 3] {
                self.all[i].record(latency);
                if host {
                    self.host[i].record(latency);
                }
            }
        }
        let done = self.finalized.iter().filter(|&&f| f).count();
        prop_assert_eq!(done + s.queued(), self.admitted.len(), "step {step}");
        prop_assert_eq!(s.snapshot(), Self::snapshot(&self.all), "step {step}");
        prop_assert_eq!(
            s.host_snapshot(),
            Self::snapshot(&self.host),
            "step {step}: host rows"
        );
        Ok(())
    }
}

const DIES: usize = 3;
const CHANNELS: usize = 2;
/// Few pages and blocks, so same-page and same-block dependencies occur.
const PAGES: u64 = 24;
const PAGES_PER_BLOCK: u64 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throttle_and_snapshots_match_the_model(
        suspend in (0u8..3, 0u64..200_000, 1u32..4),
        qd in 1usize..41,
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut s = CmdScheduler::new(DIES, CHANNELS, qd, true);
        let (on, resume_ns, max_suspends) = suspend;
        if on > 0 {
            s = s.with_erase_suspend(resume_ns, max_suspends);
        }
        let mut m = Model::new(qd);
        let mut gc = false;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Admit { kind, pick, jitter } => {
                    let die = (pick % DIES as u64) as usize;
                    let page = (pick / DIES as u64) % PAGES;
                    let block = page / PAGES_PER_BLOCK;
                    let (page, service_ns, bus_ns) = match kind {
                        FaultKind::Read => (page, 40_000 + jitter / 5, 30_000),
                        FaultKind::Program => (page, 400_000 + jitter * 2, 30_000),
                        FaultKind::Erase => (u64::MAX, 2_500_000 + jitter * 10, 0),
                    };
                    let arrival_ns = m.next_arrival();
                    let complete_ns =
                        s.admit(kind, die, die % CHANNELS, page, block, service_ns, bus_ns);
                    prop_assert!(complete_ns >= arrival_ns + service_ns.max(bus_ns));
                    m.admitted(arrival_ns, !gc, complete_ns);
                }
                Op::Advance(d) => {
                    m.now_ns += d;
                    s.set_now(m.now_ns);
                }
                Op::Rewind(d) => s.set_now(m.now_ns.saturating_sub(d)),
                Op::Stall(d) => s.stall_host_until(m.now_ns + d),
                Op::Gc(on) => {
                    gc = on;
                    s.set_gc_context(on);
                }
                Op::Flush => s.flush(),
            }
            m.check(&mut s, step)?;
        }
        s.flush();
        m.check(&mut s, usize::MAX)?;
        prop_assert!(m.finalized.iter().all(|&f| f), "every command finalized");
    }
}
