//! Operation counters and simulated busy-time accounting.

use serde::{Deserialize, Serialize};

/// Cumulative operation statistics for a [`NandDevice`](crate::NandDevice).
///
/// `busy_ns` is *simulated* device time: the sum of the configured latencies
/// of every successful operation, as if they executed serially. The per-die
/// and per-channel vectors split the same integral by resource, so the
/// makespan `max(die, bus)` models perfect pipelining across dies and
/// channel buses. Experiments use these to compare device-level cost
/// between FTL policies without running in real time.
///
/// `buffers_shared` / `buffers_copied` classify every programmed payload by
/// provenance: *shared* means the backing buffer was still aliased by an
/// upstream holder at program time (the zero-copy path — the device stored
/// a reference, not a copy), *copied* means the payload arrived uniquely
/// owned (somewhere upstream materialized a private allocation for it).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandStats {
    /// Successful page reads.
    pub reads: u64,
    /// Successful page programs.
    pub programs: u64,
    /// Successful block erases.
    pub erases: u64,
    /// Failed operations (constraint violations and injected faults).
    pub failures: u64,
    /// Faults actually fired by the installed [`FaultPlan`](crate::FaultPlan):
    /// scheduled/periodic injected faults plus the power-cut trigger itself.
    /// Operations rejected merely because the device was already latched off
    /// count as `failures` but not here, so a sweep can assert exactly how
    /// many planned faults fired.
    pub injected_faults: u64,
    /// Simulated device busy time in nanoseconds.
    pub busy_ns: u64,
    /// Programs whose payload was zero-copy (backing buffer aliased
    /// upstream at program time).
    pub buffers_shared: u64,
    /// Programs whose payload arrived as a private copy.
    pub buffers_copied: u64,
    /// Always 0: the scheduler never suspends an erase. The field stays
    /// only because the end-to-end benchmark (`benchmark/`) still reports
    /// it as `nand.erases_suspended`.
    #[serde(default)]
    pub erases_suspended: u64,
    /// Host commands a blocking-GC firmware stall delayed before
    /// dispatch (zero unless a blocking drain ran).
    #[serde(default)]
    pub gc_stalled_cmds: u64,
    /// Total submission-to-dispatch wait those commands paid, ns.
    #[serde(default)]
    pub gc_stall_ns: u64,
    /// Per-die busy integrals, ns (empty until sized by the device).
    pub die_busy_ns: Vec<u64>,
    /// Per-channel bus busy integrals, ns (empty until sized by the device).
    pub bus_busy_ns: Vec<u64>,
}

impl NandStats {
    /// A zeroed counter set with no per-resource vectors.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed counter set with per-die and per-channel vectors sized for
    /// a device with `dies` dies and `channels` channels.
    pub fn with_shape(dies: usize, channels: usize) -> Self {
        NandStats {
            die_busy_ns: vec![0; dies],
            bus_busy_ns: vec![0; channels],
            ..Self::default()
        }
    }

    /// Total successful operations.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.programs + self.erases
    }

    /// Simulated busy time in seconds.
    pub fn busy_secs(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Parallel makespan: the busy integral of the most loaded die or
    /// channel bus — total device time assuming perfect pipelining.
    pub fn parallel_busy_ns(&self) -> u64 {
        let die = self.die_busy_ns.iter().copied().max().unwrap_or(0);
        let bus = self.bus_busy_ns.iter().copied().max().unwrap_or(0);
        die.max(bus)
    }

    /// Per-die busy fractions of the parallel makespan (empty when the
    /// vectors are unsized or the device never ran).
    pub fn die_busy_fractions(&self) -> Vec<f64> {
        let span = self.parallel_busy_ns();
        if span == 0 {
            return vec![0.0; self.die_busy_ns.len()];
        }
        self.die_busy_ns
            .iter()
            .map(|&ns| ns as f64 / span as f64)
            .collect()
    }

    /// Per-channel bus utilization: each channel's bus busy integral as a
    /// fraction of the parallel makespan.
    pub fn bus_utilization(&self) -> Vec<f64> {
        let span = self.parallel_busy_ns();
        if span == 0 {
            return vec![0.0; self.bus_busy_ns.len()];
        }
        self.bus_busy_ns
            .iter()
            .map(|&ns| ns as f64 / span as f64)
            .collect()
    }

    pub(crate) fn record_read(&mut self, latency_ns: u64) {
        self.reads += 1;
        self.busy_ns += latency_ns;
    }

    pub(crate) fn record_program(&mut self, latency_ns: u64) {
        self.programs += 1;
        self.busy_ns += latency_ns;
    }

    pub(crate) fn record_erase(&mut self, latency_ns: u64) {
        self.erases += 1;
        self.busy_ns += latency_ns;
    }

    pub(crate) fn record_failure(&mut self) {
        self.failures += 1;
    }

    pub(crate) fn record_injected_fault(&mut self) {
        self.injected_faults += 1;
    }

    pub(crate) fn record_buffer(&mut self, shared: bool) {
        if shared {
            self.buffers_shared += 1;
        } else {
            self.buffers_copied += 1;
        }
    }
}

impl std::fmt::Display for NandStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} programs={} erases={} failures={} faulted={} busy={:.3}s shared={} copied={}",
            self.reads,
            self.programs,
            self.erases,
            self.failures,
            self.injected_faults,
            self.busy_secs(),
            self.buffers_shared,
            self.buffers_copied,
        )?;
        if self.gc_stalled_cmds > 0 {
            write!(
                f,
                " gc_stalled={} gc_stall={:.3}ms",
                self.gc_stalled_cmds,
                self.gc_stall_ns as f64 / 1e6,
            )?;
        }
        if !self.die_busy_ns.is_empty() && self.parallel_busy_ns() > 0 {
            write!(f, "\ndie busy:")?;
            for (i, frac) in self.die_busy_fractions().iter().enumerate() {
                write!(f, " d{i}={:.2}", frac)?;
            }
            write!(f, "\nbus util:")?;
            for (i, frac) in self.bus_utilization().iter().enumerate() {
                write!(f, " ch{i}={:.2}", frac)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_ops_and_busy_time() {
        let mut s = NandStats::new();
        s.record_read(50_000);
        s.record_program(500_000);
        s.record_erase(3_000_000);
        s.record_failure();
        s.record_injected_fault();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.failures, 1);
        assert_eq!(s.injected_faults, 1);
        assert_eq!(s.busy_ns, 3_550_000);
        assert!((s.busy_secs() - 0.00355).abs() < 1e-12);
    }

    #[test]
    fn buffer_provenance_counters() {
        let mut s = NandStats::new();
        s.record_buffer(true);
        s.record_buffer(true);
        s.record_buffer(false);
        assert_eq!(s.buffers_shared, 2);
        assert_eq!(s.buffers_copied, 1);
        let line = s.to_string();
        assert!(line.contains("shared=2"), "{line}");
        assert!(line.contains("copied=1"), "{line}");
    }

    #[test]
    fn per_resource_vectors_and_utilization() {
        let mut s = NandStats::with_shape(2, 1);
        s.die_busy_ns[0] = 100;
        s.die_busy_ns[1] = 50;
        s.bus_busy_ns[0] = 80;
        assert_eq!(s.parallel_busy_ns(), 100);
        assert_eq!(s.die_busy_fractions(), vec![1.0, 0.5]);
        assert_eq!(s.bus_utilization(), vec![0.8]);
        let text = s.to_string();
        assert!(text.contains("die busy:"), "{text}");
        assert!(text.contains("d0=1.00"), "{text}");
        assert!(text.contains("ch0=0.80"), "{text}");
    }

    #[test]
    fn idle_device_omits_utilization_lines() {
        let s = NandStats::with_shape(4, 2);
        assert_eq!(s.parallel_busy_ns(), 0);
        assert_eq!(s.die_busy_fractions(), vec![0.0; 4]);
        assert!(!s.to_string().contains("die busy:"));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!NandStats::new().to_string().is_empty());
    }
}
