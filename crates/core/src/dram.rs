//! DRAM accounting for SSD-Insider's data structures (paper Table III).

use crate::device::SsdInsider;
use insider_ftl::RecoveryQueue;
use serde::{Deserialize, Serialize};

/// Bytes per index slot, from Table III. The paper provisions one slot per
/// covered LBA (hash index); our interval-indexed counting table needs one
/// slot per *run*, so live measurements count index nodes, not blocks.
pub const HASH_SLOT_BYTES: usize = 42;

/// Bytes per counting-table entry, from Table III.
pub const COUNTING_ENTRY_BYTES: usize = 12;

/// Bytes per recovery-queue entry, from Table III.
pub const QUEUE_ENTRY_BYTES: usize = RecoveryQueue::ENTRY_BYTES;

/// DRAM footprint of the three SSD-Insider structures, in the units the
/// paper's Table III uses (entry count × fixed entry size — what a firmware
/// implementation would statically provision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramUsage {
    /// Index slots in use: interval-index nodes (one per run) on a live
    /// device; the paper's per-LBA hash slots in `paper_provisioned`.
    pub hash_entries: usize,
    /// Counting-table entries in use.
    pub counting_entries: usize,
    /// Recovery-queue entries in use.
    pub queue_entries: usize,
    /// Programs whose payload moved as a refcounted handle (the zero-copy
    /// data path). Provenance counters, not a byte bill — excluded from
    /// [`total_bytes`](Self::total_bytes).
    pub buffers_shared: u64,
    /// Programs whose payload arrived as a private copy. Zero: no FTL hop
    /// copies.
    pub buffers_copied: u64,
}

impl DramUsage {
    /// Snapshot of a live device's structure sizes.
    pub fn measure(device: &SsdInsider) -> Self {
        let table = device.detector().engine().counting_table();
        let nand = device.nand_stats();
        DramUsage {
            hash_entries: table.index_nodes(),
            counting_entries: table.len(),
            queue_entries: device.ftl().recovery_queue().len(),
            buffers_shared: nand.buffers_shared,
            buffers_copied: nand.buffers_copied,
        }
    }

    /// The paper's provisioned capacities: 250 000 hash slots, 1 000
    /// counting entries, 2 621 440 queue entries (≈ 40 MB total).
    pub fn paper_provisioned() -> Self {
        DramUsage {
            hash_entries: 250_000,
            counting_entries: 1_000,
            queue_entries: 2_621_440,
            buffers_shared: 0,
            buffers_copied: 0,
        }
    }

    /// Hash-table bytes.
    pub fn hash_bytes(&self) -> usize {
        self.hash_entries * HASH_SLOT_BYTES
    }

    /// Counting-table bytes.
    pub fn counting_bytes(&self) -> usize {
        self.counting_entries * COUNTING_ENTRY_BYTES
    }

    /// Recovery-queue bytes.
    pub fn queue_bytes(&self) -> usize {
        self.queue_entries * QUEUE_ENTRY_BYTES
    }

    /// Total steady-state bytes: the three paper-provisioned structures.
    pub fn total_bytes(&self) -> usize {
        self.hash_bytes() + self.counting_bytes() + self.queue_bytes()
    }
}

impl std::fmt::Display for DramUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "structure", "unit (B)", "entries", "bytes"
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "hash table",
            HASH_SLOT_BYTES,
            self.hash_entries,
            self.hash_bytes()
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "counting table",
            COUNTING_ENTRY_BYTES,
            self.counting_entries,
            self.counting_bytes()
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "recovery queue",
            QUEUE_ENTRY_BYTES,
            self.queue_entries,
            self.queue_bytes()
        )?;
        writeln!(f, "total: {} bytes", self.total_bytes())?;
        write!(
            f,
            "payload buffers: {} shared / {} copied",
            self.buffers_shared, self.buffers_copied
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InsiderConfig;
    use bytes::Bytes;
    use insider_detect::DecisionTree;
    use insider_nand::{Geometry, Lba, SimTime};

    #[test]
    fn paper_capacities_total_about_40_mb() {
        let paper = DramUsage::paper_provisioned();
        let mb = paper.total_bytes() as f64 / 1e6;
        assert!(
            (40.0..43.0).contains(&mb),
            "paper Table III totals ≈ 40 MB, got {mb:.2} MB"
        );
    }

    #[test]
    fn live_measurement_tracks_structures() {
        let mut ssd = SsdInsider::new(
            InsiderConfig::new(Geometry::tiny()),
            DecisionTree::constant(false),
        );
        let t = SimTime::from_secs(1);
        for i in 0..8u64 {
            ssd.read(Lba::new(i), t).unwrap();
            ssd.write(Lba::new(i), Bytes::from_static(b"x"), t).unwrap();
        }
        let usage = DramUsage::measure(&ssd);
        // Eight sequential blocks form a single run: one interval-index
        // node, where the per-LBA hash layout needed eight slots.
        assert_eq!(usage.hash_entries, 1);
        assert!(usage.counting_entries >= 1);
        assert_eq!(usage.queue_entries, 8);
        assert!(usage.total_bytes() > 0);
        assert_eq!(
            usage.total_bytes(),
            usage.hash_bytes() + usage.counting_bytes() + usage.queue_bytes()
        );

        // The mount rebuilds the queue (all eight writes are in the window)
        // and holds nothing else the bill counts.
        ssd.power_cut(t).unwrap();
        let remounted = DramUsage::measure(&ssd);
        assert_eq!(remounted.queue_entries, 8);
        assert_eq!(
            ssd.ftl().mount_scan_entries(),
            8,
            "mount scan decoded one OOB record per programmed page"
        );
    }

    #[test]
    fn buffer_provenance_is_reported_but_not_billed() {
        let mut ssd = SsdInsider::new(
            InsiderConfig::new(Geometry::tiny()),
            DecisionTree::constant(false),
        );
        let t = SimTime::from_secs(1);
        ssd.write(Lba::new(0), Bytes::from_static(b"x"), t).unwrap();
        let usage = DramUsage::measure(&ssd);
        assert_eq!(usage.buffers_shared, 1, "host write moves a shared handle");
        assert_eq!(usage.buffers_copied, 0);
        let mut zeroed = usage;
        zeroed.buffers_shared = 0;
        assert_eq!(
            usage.total_bytes(),
            zeroed.total_bytes(),
            "provenance counters are not a DRAM bill"
        );
        assert!(usage
            .to_string()
            .contains("payload buffers: 1 shared / 0 copied"));
    }

    #[test]
    fn display_renders_table() {
        let s = DramUsage::paper_provisioned().to_string();
        for key in ["hash table", "counting table", "recovery queue", "total"] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
