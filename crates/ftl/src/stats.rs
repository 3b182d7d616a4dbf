//! FTL-level statistics, including the GC page-copy counts of Fig. 9.

use serde::{Deserialize, Serialize};

/// Cumulative FTL statistics.
///
/// `gc_page_copies` is the headline metric of the paper's Fig. 9: the number
/// of pages garbage collection had to migrate. The SSD-Insider FTL reports
/// `gc_protected_copies` as the subset forced by delayed deletion (copies of
/// *invalid* pages that are still within the protection window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Host-issued page reads served.
    pub host_reads: u64,
    /// Host-issued page writes served.
    pub host_writes: u64,
    /// Host-issued trims served.
    pub host_trims: u64,
    /// Garbage-collection invocations (victim erasures).
    pub gc_invocations: u64,
    /// Pages migrated by garbage collection (valid + protected invalid).
    pub gc_page_copies: u64,
    /// Subset of `gc_page_copies` that were protected *invalid* pages —
    /// the extra cost of delayed deletion (zero for the conventional FTL).
    pub gc_protected_copies: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Blocks retired after reaching their endurance limit.
    pub bad_blocks: u64,
    /// Wall-clock nanoseconds spent inside garbage collection (victim
    /// selection, migration and erasure). Only accumulates when a GC pass
    /// actually collects, so workloads that never trigger GC report zero
    /// regardless of timer resolution.
    pub gc_ns: u64,
    /// Worst-case pages migrated by a single GC entry — the tail latency a
    /// host write can absorb. Bounded by the urgency-scaled step budget
    /// under the incremental policy (unless its fallback fires), unbounded
    /// under the blocking one.
    pub gc_migrations_max: u64,
    /// Power-on mounts performed (full OOB-scan rebuilds after a power
    /// cut). Zero for a drive that never lost power.
    pub mounts: u64,
    /// Steps of the GC job engine: each resumption of a victim's migration
    /// cursor, to the end of the block or of the budget — one per victim
    /// under the blocking policy, several under the incremental one.
    #[serde(default)]
    pub gc_steps: u64,
    /// Times incremental GC fell back to a blocking stop-the-world drain
    /// because the free pool hit the hard floor — the safety valve the
    /// urgency ramp is supposed to keep cold.
    #[serde(default)]
    pub gc_stw_fallbacks: u64,
}

impl FtlStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write amplification factor: `(host writes + GC copies) / host writes`.
    /// Returns 1.0 when no host writes have occurred.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_page_copies) as f64 / self.host_writes as f64
        }
    }
}

/// One recorded victim-selection event (see
/// `FtlConfig::record_gc_victims`). The log is the differential GC tests'
/// evidence: two FTLs that must collect alike are compared by it, and
/// `gc_pin.rs` pins it against a recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcVictim {
    /// Raw index of the chosen block (its chip is `block / blocks_per_chip`).
    pub block: u32,
    /// Pages the erase will free (`invalid − protected`) as counted when
    /// the block was selected; the rest of the block has to be copied or
    /// was never programmed.
    pub reclaimable: u32,
}

impl std::fmt::Display for FtlStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} trims={} gc[runs={} copies={} protected={} erases={} bad={} ns={} max_migr={} steps={} stw={}] mounts={} WA={:.3}",
            self.host_reads,
            self.host_writes,
            self.host_trims,
            self.gc_invocations,
            self.gc_page_copies,
            self.gc_protected_copies,
            self.gc_erases,
            self.bad_blocks,
            self.gc_ns,
            self.gc_migrations_max,
            self.gc_steps,
            self.gc_stw_fallbacks,
            self.mounts,
            self.write_amplification()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_formula() {
        let mut s = FtlStats::new();
        assert_eq!(s.write_amplification(), 1.0);
        s.host_writes = 100;
        s.gc_page_copies = 25;
        assert!((s.write_amplification() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = FtlStats::new();
        let msg = s.to_string();
        for key in [
            "reads=",
            "writes=",
            "gc[",
            "ns=",
            "max_migr=",
            "steps=",
            "stw=",
            "mounts=",
            "WA=",
        ] {
            assert!(msg.contains(key), "missing {key} in {msg}");
        }
    }

    #[test]
    fn gc_timing_fields_serialize() {
        let s = FtlStats {
            gc_ns: 1234,
            gc_migrations_max: 7,
            ..FtlStats::new()
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"gc_ns\":1234"));
        assert!(json.contains("\"gc_migrations_max\":7"));
    }
}
