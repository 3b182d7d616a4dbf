//! Model test for [`RecoveryQueue`]: pseudo-random scripts of `push`,
//! `push_extent`, `relocate`, `retire_before`, `take_all` and `clear` run on
//! the queue and on a plain model — a `VecDeque` of entries plus a std
//! `HashMap` from protected page to the entry protecting it — and after every
//! step the two must agree on `is_protected` for every page the script has
//! touched, `protected_count`, `len`, the `iter()` order and the entries
//! each retirement handed over.
//!
//! The queue indexes protected pages with its own multiplicative hasher;
//! the model does not, so a slip in it shows up as a disagreement at the
//! step that caused it. The per-block protected counts are the FTL's, not
//! the queue's: debug builds recount them from the queue's entries at every
//! GC victim selection, and `insider::tests` checks them after every step
//! of a write, trim, GC, retirement and rollback script.
//!
//! Scripts come from SplitMix64. `QUEUE_MODEL_SEED=<u64>` adds one seed to
//! the fixed list (CI passes the clock); every failure message names the
//! seed to replay.

use insider_ftl::{BackupEntry, RecoveryQueue};
use insider_nand::{Lba, Ppa, SimTime};
use std::collections::{BTreeSet, HashMap, VecDeque};

const PAGES: u64 = 96;
const STEPS: usize = 3000;
const FIXED_SEEDS: [u64; 5] = [1, 2, 0xdead_beef, 0x5eed_cace, u64::MAX];

/// The queue stated flat: entries in push order, and which page each
/// protecting entry holds, keyed by page.
#[derive(Debug, Default)]
struct Model {
    entries: VecDeque<BackupEntry>,
    protected: HashMap<Ppa, Lba>,
}

impl Model {
    fn push(&mut self, lba: Lba, old: Option<Ppa>, stamp: SimTime) {
        if let Some(ppa) = old {
            assert!(self.protected.insert(ppa, lba).is_none(), "script bug");
        }
        self.entries.push_back(BackupEntry { lba, old, stamp });
    }

    fn relocate(&mut self, from: Ppa, to: Ppa) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.old == Some(from))
            .expect("script relocates a protected page");
        entry.old = Some(to);
        let lba = self.protected.remove(&from).expect("protected");
        self.protected.insert(to, lba);
    }

    fn retire_before(&mut self, cutoff: SimTime) -> Vec<BackupEntry> {
        let mut retired = Vec::new();
        while self.entries.front().is_some_and(|e| e.stamp < cutoff) {
            retired.push(self.entries.pop_front().expect("checked"));
        }
        self.release(&retired);
        retired
    }

    fn take_all(&mut self) -> Vec<BackupEntry> {
        let all: Vec<BackupEntry> = self.entries.drain(..).collect();
        self.release(&all);
        all
    }

    fn release(&mut self, gone: &[BackupEntry]) {
        for ppa in gone.iter().filter_map(|e| e.old) {
            self.protected.remove(&ppa);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(Lba, Option<Ppa>, SimTime),
    PushExtent(Lba, Vec<Option<Ppa>>, SimTime),
    Relocate(Ppa, Ppa),
    RetireBefore(SimTime),
    TakeAll,
    Clear,
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A page nobody protects yet (or none, when the draw hits a protected
    /// one): a page is the pre-image of at most one overwrite.
    fn free_page(&mut self, model: &Model, taken: &BTreeSet<Ppa>) -> Option<Ppa> {
        let ppa = Ppa::new(self.below(PAGES));
        (!model.protected.contains_key(&ppa) && !taken.contains(&ppa)).then_some(ppa)
    }

    /// The pre-image of one overwrite: a first write (`None`) one time in
    /// five, else a free page.
    fn old(&mut self, model: &Model, taken: &BTreeSet<Ppa>) -> Option<Ppa> {
        match self.below(5) {
            0 => None,
            _ => self.free_page(model, taken),
        }
    }

    /// Stamps mostly advance and sometimes repeat; one in 16 steps back a
    /// little, so retirement must stop at the first young entry rather than
    /// skip past it.
    fn stamp(&mut self, clock: &mut u64) -> SimTime {
        match self.below(16) {
            0 => SimTime::from_millis(clock.saturating_sub(self.below(4))),
            1..=4 => SimTime::from_millis(*clock),
            _ => {
                *clock += 1 + self.below(3);
                SimTime::from_millis(*clock)
            }
        }
    }

    fn op(&mut self, model: &Model, clock: &mut u64) -> Op {
        let lba = Lba::new(self.below(32));
        match self.below(64) {
            0..=27 => {
                let old = self.old(model, &BTreeSet::new());
                Op::Push(lba, old, self.stamp(clock))
            }
            28..=39 => {
                let mut taken = BTreeSet::new();
                let olds = (0..self.below(6))
                    .map(|_| {
                        let old = self.old(model, &taken);
                        taken.extend(old);
                        old
                    })
                    .collect();
                Op::PushExtent(lba, olds, self.stamp(clock))
            }
            40..=51 => {
                // Sorted: the model's map iterates in a different order
                // every run, and a seed must replay the same script.
                let mut protected: Vec<Ppa> = model.protected.keys().copied().collect();
                protected.sort();
                let to = self.free_page(model, &BTreeSet::new());
                match (protected.is_empty(), to) {
                    (false, Some(to)) => {
                        let from = protected[self.below(protected.len() as u64) as usize];
                        Op::Relocate(from, to)
                    }
                    // Nothing to move: a retirement that retires nothing.
                    _ => Op::RetireBefore(SimTime::ZERO),
                }
            }
            52..=61 => {
                let window = self.below(40);
                Op::RetireBefore(SimTime::from_millis(clock.saturating_sub(window)))
            }
            62 => Op::TakeAll,
            _ => Op::Clear,
        }
    }
}

/// How often each operation actually did something, for the coverage test.
#[derive(Debug, Default)]
struct Coverage {
    relocations: usize,
    retired: usize,
    retire_calls_with_survivors: usize,
    drained: usize,
    clears: usize,
    extents: usize,
    first_writes: usize,
    max_protected: usize,
}

fn pages_of(op: &Op) -> Vec<Ppa> {
    match op {
        Op::Push(_, old, _) => old.iter().copied().collect(),
        Op::PushExtent(_, olds, _) => olds.iter().flatten().copied().collect(),
        Op::Relocate(from, to) => vec![*from, *to],
        _ => Vec::new(),
    }
}

fn run_script(seed: u64) -> Coverage {
    let mut rng = SplitMix64(seed);
    let mut queue = RecoveryQueue::new();
    let mut model = Model::default();
    let mut touched: BTreeSet<Ppa> = BTreeSet::new();
    let mut clock = 0u64;
    let mut cov = Coverage::default();
    for step in 0..STEPS {
        let op = rng.op(&model, &mut clock);
        let at = || format!("QUEUE_MODEL_SEED={seed} step {step}: {op:?}");
        touched.extend(pages_of(&op));
        match &op {
            Op::Push(lba, old, stamp) => {
                queue.push(*lba, *old, *stamp);
                model.push(*lba, *old, *stamp);
                cov.first_writes += usize::from(old.is_none());
            }
            Op::PushExtent(lba, olds, stamp) => {
                queue.push_extent(*lba, olds, *stamp);
                for (i, old) in olds.iter().enumerate() {
                    model.push(lba.offset(i as u64), *old, *stamp);
                }
                cov.extents += usize::from(olds.len() > 1);
            }
            Op::Relocate(from, to) => {
                queue.relocate(*from, *to);
                model.relocate(*from, *to);
                cov.relocations += 1;
            }
            Op::RetireBefore(cutoff) => {
                let want = model.retire_before(*cutoff);
                let mut got = Vec::new();
                queue.retire_before(*cutoff, |e| got.push(e));
                assert_eq!(got, want, "{}", at());
                cov.retired += want.len();
                cov.retire_calls_with_survivors +=
                    usize::from(!want.is_empty() && !model.entries.is_empty());
            }
            Op::TakeAll => {
                let want = model.take_all();
                assert_eq!(queue.take_all(), want, "{}", at());
                cov.drained += want.len();
            }
            Op::Clear => {
                queue.clear();
                model.take_all();
                cov.clears += 1;
            }
        }
        cov.max_protected = cov.max_protected.max(model.protected.len());

        assert_eq!(queue.len(), model.entries.len(), "{}", at());
        assert_eq!(queue.is_empty(), model.entries.is_empty(), "{}", at());
        assert_eq!(queue.protected_count(), model.protected.len(), "{}", at());
        assert!(
            queue.iter().eq(model.entries.iter()),
            "{}: iter() order",
            at()
        );
        assert!(
            queue.iter_newest_first().eq(model.entries.iter().rev()),
            "{}: iter_newest_first() order",
            at()
        );
        for &ppa in &touched {
            let want = model.protected.contains_key(&ppa);
            assert_eq!(queue.is_protected(ppa), want, "{}: page {ppa}", at());
        }
    }
    cov
}

fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("QUEUE_MODEL_SEED").ok().map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|_| panic!("QUEUE_MODEL_SEED must be a u64, got {s:?}"))
    });
    FIXED_SEEDS.into_iter().chain(extra)
}

#[test]
fn queue_and_model_agree_after_every_step() {
    for seed in seeds() {
        run_script(seed);
    }
}

/// The scripts really do reach every operation with something to act on:
/// relocations, retirements that leave survivors, multi-page extents with
/// first writes mixed in, drains and clears of a non-trivial queue.
#[test]
fn scripts_cover_every_operation() {
    let cov = run_script(FIXED_SEEDS[0]);
    assert!(cov.relocations > 100, "{cov:?}");
    assert!(cov.retired > 500, "{cov:?}");
    assert!(cov.retire_calls_with_survivors > 50, "{cov:?}");
    assert!(cov.extents > 100, "{cov:?}");
    assert!(cov.first_writes > 100, "{cov:?}");
    assert!(cov.drained > 0 && cov.clears > 0, "{cov:?}");
    assert!(cov.max_protected > 20, "{cov:?}");
}
