//! DRAM accounting for SSD-Insider's data structures (paper Table III).
//!
//! A multi-tenant device holds one copy of every structure *per shard*;
//! [`MultiTenantDram`] sums them and keeps the per-namespace breakdown, so
//! capacity planning sees both the whole-drive bill and which tenant is
//! spending it.

use crate::device::SsdInsider;
use crate::multitenant::MultiTenantSsd;
use crate::namespace::NamespaceId;
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

/// Bytes per decoded OOB record held during the power-on mount scan: LBA
/// (4), physical page (4), program sequence (8) and write stamp (8), with
/// the live/backup bit folded into the sequence word. This buffer is
/// transient — it exists only while the mount scan rebuilds the mapping
/// table and recovery queue, then is released — so the paper's steady-state
/// Table III budget provisions zero such entries.
pub const OOB_SCAN_ENTRY_BYTES: usize = 24;

/// Bytes per chain-index record mirrored in DRAM for periodic mapping
/// checkpoints, matching the on-flash checkpoint record: LBA (8), physical
/// page (8), program sequence (8), write stamp (8) and the live/backup tag
/// (1). Zero entries unless `checkpoint_interval` is configured.
pub const CHAIN_ENTRY_BYTES: usize = 33;

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
    /// OOB records decoded by the most recent power-on mount scan. This
    /// peak-transient figure is reported separately and excluded from
    /// [`total_bytes`](Self::total_bytes): the scan buffer is freed before
    /// the device services its first host command.
    pub mount_scan_entries: usize,
    /// Records in the checkpoint chain index — the steady-state DRAM the
    /// FTL pays for fast (checkpoint + OOB tail) remounts. Zero when
    /// checkpointing is off, so the default configuration bills nothing.
    pub chain_index_entries: usize,
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
            mount_scan_entries: device.ftl().mount_scan_entries() as usize,
            chain_index_entries: device.ftl().chain_index_entries() as usize,
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
            mount_scan_entries: 0,
            chain_index_entries: 0,
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

    /// Peak transient bytes of the mount-scan buffer (not part of
    /// [`total_bytes`](Self::total_bytes); see
    /// [`mount_scan_entries`](Self::mount_scan_entries)).
    pub fn mount_scan_bytes(&self) -> usize {
        self.mount_scan_entries * OOB_SCAN_ENTRY_BYTES
    }

    /// Checkpoint chain-index bytes (zero unless checkpointing is on).
    pub fn chain_index_bytes(&self) -> usize {
        self.chain_index_entries * CHAIN_ENTRY_BYTES
    }

    /// Total steady-state bytes: the three paper-provisioned structures
    /// plus the checkpoint chain index (which only bills when enabled).
    /// The transient mount-scan buffer is excluded.
    pub fn total_bytes(&self) -> usize {
        self.hash_bytes() + self.counting_bytes() + self.queue_bytes() + self.chain_index_bytes()
    }
}

impl std::ops::Add for DramUsage {
    type Output = DramUsage;

    fn add(self, rhs: DramUsage) -> DramUsage {
        DramUsage {
            hash_entries: self.hash_entries + rhs.hash_entries,
            counting_entries: self.counting_entries + rhs.counting_entries,
            queue_entries: self.queue_entries + rhs.queue_entries,
            mount_scan_entries: self.mount_scan_entries + rhs.mount_scan_entries,
            chain_index_entries: self.chain_index_entries + rhs.chain_index_entries,
            buffers_shared: self.buffers_shared + rhs.buffers_shared,
            buffers_copied: self.buffers_copied + rhs.buffers_copied,
        }
    }
}

impl std::ops::AddAssign for DramUsage {
    fn add_assign(&mut self, rhs: DramUsage) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for DramUsage {
    fn sum<I: Iterator<Item = DramUsage>>(iter: I) -> DramUsage {
        iter.fold(DramUsage::default(), |acc, u| acc + u)
    }
}

/// Per-namespace DRAM accounting for a [`MultiTenantSsd`]: each shard's
/// [`DramUsage`] plus the device-wide sum.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiTenantDram {
    /// `(namespace id, that shard's usage)`, in namespace order.
    pub per_namespace: Vec<(u32, DramUsage)>,
}

impl MultiTenantDram {
    /// Snapshot of every shard's structure sizes.
    pub fn measure(device: &MultiTenantSsd) -> Self {
        let per_namespace = (0..device.namespaces())
            .map(|id| {
                let usage = device
                    .with_namespace(NamespaceId::new(id), |dev| DramUsage::measure(dev))
                    .expect("iterating the device's own namespace ids");
                (id, usage)
            })
            .collect();
        MultiTenantDram { per_namespace }
    }

    /// Device-wide usage: the sum over all shards.
    pub fn total(&self) -> DramUsage {
        self.per_namespace.iter().map(|(_, u)| *u).sum()
    }

    /// Total steady-state bytes across every shard.
    pub fn total_bytes(&self) -> usize {
        self.total().total_bytes()
    }
}

impl std::fmt::Display for MultiTenantDram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<6} {:>10} {:>10} {:>10} {:>12}",
            "ns", "hash", "counting", "queue", "bytes"
        )?;
        for (id, usage) in &self.per_namespace {
            writeln!(
                f,
                "{:<6} {:>10} {:>10} {:>10} {:>12}",
                format!("ns{id}"),
                usage.hash_entries,
                usage.counting_entries,
                usage.queue_entries,
                usage.total_bytes()
            )?;
        }
        let total = self.total();
        write!(
            f,
            "{:<6} {:>10} {:>10} {:>10} {:>12}",
            "total",
            total.hash_entries,
            total.counting_entries,
            total.queue_entries,
            total.total_bytes()
        )
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
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "chain index",
            CHAIN_ENTRY_BYTES,
            self.chain_index_entries,
            self.chain_index_bytes()
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>12}",
            "mount scan*",
            OOB_SCAN_ENTRY_BYTES,
            self.mount_scan_entries,
            self.mount_scan_bytes()
        )?;
        writeln!(f, "total: {} bytes", self.total_bytes())?;
        writeln!(
            f,
            "(* transient: freed before first host command, not in total)"
        )?;
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
        assert_eq!(usage.mount_scan_entries, 0, "no mount has run yet");
        assert!(usage.total_bytes() > 0);

        ssd.power_cut(t).unwrap();
        let remounted = DramUsage::measure(&ssd);
        assert_eq!(
            remounted.mount_scan_entries, 8,
            "mount scan decoded one OOB record per programmed page"
        );
        assert!(remounted.mount_scan_bytes() > 0);
        assert_eq!(
            remounted.total_bytes(),
            remounted.hash_bytes() + remounted.counting_bytes() + remounted.queue_bytes(),
            "scan buffer is transient and excluded from the steady-state total"
        );
    }

    #[test]
    fn multitenant_breakdown_sums_shards() {
        use crate::namespace::NamespaceLayout;

        let ssd = MultiTenantSsd::new(
            &InsiderConfig::new(Geometry::tiny()),
            &DecisionTree::constant(false),
            2,
            NamespaceLayout::Provisioned,
        );
        let t = SimTime::from_secs(1);
        // ns0 writes 3 pages, ns1 writes 5 — each shard's queue bills its
        // own tenant.
        for i in 0..3u64 {
            ssd.write(
                NamespaceId::new(0),
                Lba::new(i),
                Bytes::from_static(b"a"),
                t,
            )
            .unwrap();
        }
        for i in 0..5u64 {
            ssd.write(
                NamespaceId::new(1),
                Lba::new(i),
                Bytes::from_static(b"b"),
                t,
            )
            .unwrap();
        }
        let dram = MultiTenantDram::measure(&ssd);
        assert_eq!(dram.per_namespace.len(), 2);
        assert_eq!(dram.per_namespace[0].1.queue_entries, 3);
        assert_eq!(dram.per_namespace[1].1.queue_entries, 5);
        assert_eq!(dram.total().queue_entries, 8);
        assert_eq!(
            dram.total_bytes(),
            dram.per_namespace[0].1.total_bytes() + dram.per_namespace[1].1.total_bytes()
        );
        let rendered = dram.to_string();
        assert!(rendered.contains("ns0"), "{rendered}");
        assert!(rendered.contains("ns1"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn usage_addition_is_fieldwise() {
        let a = DramUsage {
            hash_entries: 1,
            counting_entries: 2,
            queue_entries: 3,
            mount_scan_entries: 4,
            chain_index_entries: 7,
            buffers_shared: 5,
            buffers_copied: 6,
        };
        let b = DramUsage {
            hash_entries: 10,
            counting_entries: 20,
            queue_entries: 30,
            mount_scan_entries: 40,
            chain_index_entries: 70,
            buffers_shared: 50,
            buffers_copied: 60,
        };
        let sum: DramUsage = [a, b].into_iter().sum();
        assert_eq!(sum.hash_entries, 11);
        assert_eq!(sum.counting_entries, 22);
        assert_eq!(sum.queue_entries, 33);
        assert_eq!(sum.mount_scan_entries, 44);
        assert_eq!(sum.chain_index_entries, 77);
        assert_eq!(sum.buffers_shared, 55);
        assert_eq!(sum.buffers_copied, 66);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, sum);
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
