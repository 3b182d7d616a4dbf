//! The multi-tenant SSD-Insider device: NVMe-style namespaces, each a
//! fully isolated shard of detector + FTL + alarm/recovery domain.
//!
//! One [`SsdInsider`] serializes every host request through one counting
//! table, one victim index and one alarm domain. [`MultiTenantSsd`] shards
//! that state per namespace: each tenant gets its own LBA space, its own
//! 10-slice detection window, its own recovery queue, and its own
//! alarm → read-only → rollback lifecycle. A tenant hit by ransomware goes
//! read-only and rolls back **alone**; its neighbors keep writing at full
//! speed — the isolation boundary KEY-SSD and SHIELD argue belongs inside
//! the drive.
//!
//! Every shard sits behind its own lock, so the device is `Send + Sync`
//! and host threads dispatch to different namespaces in parallel with zero
//! cross-shard contention (`std::thread::scope` pools in the bench
//! harness). Locks are per-namespace: two requests contend only when they
//! address the *same* tenant.
//!
//! # Example
//!
//! ```rust
//! use ssd_insider::{InsiderConfig, MultiTenantSsd, NamespaceId, NamespaceLayout, DeviceState};
//! use insider_detect::DecisionTree;
//! use insider_nand::{Geometry, Lba, SimTime};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), ssd_insider::DeviceError> {
//! let tree = DecisionTree::stump(0, 0.5); // any overwrite votes ransomware
//! let ssd = MultiTenantSsd::new(
//!     &InsiderConfig::new(Geometry::tiny()),
//!     &tree,
//!     2,
//!     NamespaceLayout::Provisioned,
//! );
//! let (a, b) = (NamespaceId::new(0), NamespaceId::new(1));
//!
//! // Tenant A saves a document; tenant B works in its own LBA space.
//! ssd.write(a, Lba::new(3), Bytes::from_static(b"thesis"), SimTime::from_secs(1))?;
//! ssd.write(b, Lba::new(3), Bytes::from_static(b"unrelated"), SimTime::from_secs(1))?;
//!
//! // Ransomware shreds tenant A until its shard alarms.
//! let mut t = SimTime::from_secs(60);
//! while ssd.state(a)? == DeviceState::Normal {
//!     ssd.read(a, Lba::new(3), t)?;
//!     ssd.write(a, Lba::new(3), Bytes::from_static(b"3ncryp7ed"), t)?;
//!     t += SimTime::from_millis(250);
//! }
//!
//! // A rolls back alone; B never noticed.
//! ssd.confirm_and_recover(a, t)?;
//! assert_eq!(ssd.read(a, Lba::new(3), t)?.unwrap().as_ref(), b"thesis");
//! assert_eq!(ssd.state(b)?, DeviceState::Normal);
//! ssd.write(b, Lba::new(4), Bytes::from_static(b"still writable"), t)?;
//! # Ok(())
//! # }
//! ```

use crate::config::InsiderConfig;
use crate::device::SsdInsider;
use crate::events::{DeviceEvent, TaggedEvent};
use crate::namespace::{shard_geometry, NamespaceId, NamespaceLayout};
use crate::state::DeviceState;
use crate::{DeviceError, Result};
use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_ftl::RollbackReport;
use insider_nand::{Lba, SimTime};
use std::sync::{Mutex, MutexGuard};

/// An SSD exporting `n` NVMe-style namespaces, each backed by a fully
/// independent [`SsdInsider`] shard (detector, FTL, recovery queue, alarm
/// domain). The module docs at the top of `multitenant.rs` describe the
/// isolation model.
#[derive(Debug)]
pub struct MultiTenantSsd {
    shards: Vec<Mutex<SsdInsider>>,
    layout: NamespaceLayout,
}

impl MultiTenantSsd {
    /// Builds a device with `namespaces` shards. Under
    /// [`NamespaceLayout::Partitioned`] the configured geometry is one
    /// physical drive split evenly (each shard owns
    /// `blocks_per_chip / namespaces` blocks of every chip); under
    /// [`NamespaceLayout::Provisioned`] every shard gets a full drive of
    /// the configured geometry. All shards share the decision tree — the
    /// firmware ships one trained model — but vote and score over their
    /// own windows.
    ///
    /// # Panics
    ///
    /// Panics if `namespaces` is zero or a partitioned shard would be too
    /// small to host an FTL (see [`shard_geometry`]).
    pub fn new(
        config: &InsiderConfig,
        tree: &DecisionTree,
        namespaces: u32,
        layout: NamespaceLayout,
    ) -> Self {
        assert!(namespaces >= 1, "a device needs at least one namespace");
        let geometry = shard_geometry(config.geometry(), layout, namespaces);
        let shard_config = config.with_geometry(geometry);
        let shards = (0..namespaces)
            .map(|id| {
                let mut dev = SsdInsider::new(shard_config.clone(), tree.clone());
                dev.set_namespace(NamespaceId::new(id));
                Mutex::new(dev)
            })
            .collect();
        MultiTenantSsd { shards, layout }
    }

    /// Number of namespaces exported (valid ids are `0..namespaces`).
    pub fn namespaces(&self) -> u32 {
        self.shards.len() as u32
    }

    /// How the physical capacity is divided among namespaces.
    pub fn layout(&self) -> NamespaceLayout {
        self.layout
    }

    /// Locks the shard serving `ns`. A panic while a shard lock is held
    /// poisons only that shard's lock; the device recovers the guard (the
    /// shard's state machine is panic-consistent — every mutation happens
    /// through `&mut` methods that restore invariants before returning).
    fn shard(&self, ns: NamespaceId) -> Result<MutexGuard<'_, SsdInsider>> {
        let slot = self
            .shards
            .get(ns.raw() as usize)
            .ok_or(DeviceError::UnknownNamespace {
                requested: ns.raw(),
                namespaces: self.namespaces(),
            })?;
        Ok(slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Runs `f` with exclusive access to the shard serving `ns` — the bulk
    /// interface: lock once, dispatch many requests. The parallel replay
    /// drivers hold a shard for a whole trace; per-request methods below
    /// lock per call.
    ///
    /// # Errors
    ///
    /// Fails with [`DeviceError::UnknownNamespace`] for an id the device
    /// does not export.
    pub fn with_namespace<R>(
        &self,
        ns: NamespaceId,
        f: impl FnOnce(&mut SsdInsider) -> R,
    ) -> Result<R> {
        let mut guard = self.shard(ns)?;
        Ok(f(&mut guard))
    }

    /// Reads `len` consecutive logical pages of namespace `ns`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace or any shard-level read failure.
    pub fn read_extent(
        &self,
        ns: NamespaceId,
        lba: Lba,
        len: u32,
        now: SimTime,
    ) -> Result<Vec<Option<Bytes>>> {
        self.shard(ns)?.read_extent(lba, len, now)
    }

    /// Writes `data.len()` consecutive logical pages of namespace `ns`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace, a read-only (recovered) shard, an
    /// out-of-range extent, or exhausted space — all scoped to `ns`.
    pub fn write_extent(
        &self,
        ns: NamespaceId,
        lba: Lba,
        data: &[Bytes],
        now: SimTime,
    ) -> Result<()> {
        self.shard(ns)?.write_extent(lba, data, now)
    }

    /// Unmaps `len` consecutive logical pages of namespace `ns`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace, a read-only shard, or an
    /// out-of-range extent.
    pub fn trim_extent(&self, ns: NamespaceId, lba: Lba, len: u32, now: SimTime) -> Result<()> {
        self.shard(ns)?.trim_extent(lba, len, now)
    }

    /// Reads one logical page of namespace `ns`.
    ///
    /// # Errors
    ///
    /// As [`read_extent`](Self::read_extent).
    pub fn read(&self, ns: NamespaceId, lba: Lba, now: SimTime) -> Result<Option<Bytes>> {
        self.shard(ns)?.read(lba, now)
    }

    /// Writes one logical page of namespace `ns`.
    ///
    /// # Errors
    ///
    /// As [`write_extent`](Self::write_extent).
    pub fn write(&self, ns: NamespaceId, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        self.shard(ns)?.write(lba, data, now)
    }

    /// Unmaps one logical page of namespace `ns`.
    ///
    /// # Errors
    ///
    /// As [`trim_extent`](Self::trim_extent).
    pub fn trim(&self, ns: NamespaceId, lba: Lba, now: SimTime) -> Result<()> {
        self.shard(ns)?.trim(lba, now)
    }

    /// Advances namespace `ns` through idle time (closes detection slices,
    /// retires expired recovery entries).
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn poll(&self, ns: NamespaceId, now: SimTime) -> Result<()> {
        self.shard(ns)?.poll(now);
        Ok(())
    }

    /// [`poll`](Self::poll) for every namespace.
    pub fn poll_all(&self, now: SimTime) {
        for id in 0..self.namespaces() {
            let _ = self.poll(NamespaceId::new(id), now);
        }
    }

    /// Lifecycle state of namespace `ns` — alarm and read-only domains are
    /// per namespace.
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn state(&self, ns: NamespaceId) -> Result<DeviceState> {
        Ok(self.shard(ns)?.state())
    }

    /// Detection score of namespace `ns`.
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn score(&self, ns: NamespaceId) -> Result<u32> {
        Ok(self.shard(ns)?.score())
    }

    /// Logical pages exported by namespace `ns` (per-namespace LBA space).
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn logical_pages(&self, ns: NamespaceId) -> Result<u64> {
        Ok(self.shard(ns)?.logical_pages())
    }

    /// Per-command NAND latency percentiles of namespace `ns`'s shard
    /// (drained first, so queued commands are included). Always `Some`.
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn latency_snapshot(
        &self,
        ns: NamespaceId,
    ) -> Result<Option<insider_nand::LatencySnapshot>> {
        let mut shard = self.shard(ns)?;
        shard.sync();
        Ok(shard.latency_snapshot())
    }

    /// Confirms a pending alarm in namespace `ns`: that shard freezes
    /// writes and rolls back one window. Sibling namespaces keep full
    /// service.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace or when `ns` has no pending alarm.
    pub fn confirm_and_recover(&self, ns: NamespaceId, now: SimTime) -> Result<RollbackReport> {
        self.shard(ns)?.confirm_and_recover(now)
    }

    /// Dismisses a pending alarm in namespace `ns` as a false positive.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace or when `ns` has no pending alarm.
    pub fn dismiss_alarm(&self, ns: NamespaceId) -> Result<()> {
        self.shard(ns)?.dismiss_alarm()
    }

    /// Reboots namespace `ns` out of the recovered (read-only) state.
    ///
    /// # Errors
    ///
    /// Fails on an unknown namespace or when `ns` is not recovered.
    pub fn reboot(&self, ns: NamespaceId) -> Result<()> {
        self.shard(ns)?.reboot()
    }

    /// Power-cycles namespace `ns` (drops shard DRAM state, remounts from
    /// the shard's OOB records). Modeling a whole-drive power loss means
    /// calling this for every namespace.
    ///
    /// # Errors
    ///
    /// Propagates shard mount failures.
    pub fn power_cut(&self, ns: NamespaceId, now: SimTime) -> Result<()> {
        self.shard(ns)?.power_cut(now)
    }

    /// Drains namespace `ns`'s event mailbox (untagged; the caller already
    /// knows the namespace).
    ///
    /// # Errors
    ///
    /// Fails only on an unknown namespace.
    pub fn take_events(&self, ns: NamespaceId) -> Result<Vec<DeviceEvent>> {
        Ok(self.shard(ns)?.take_events())
    }

    /// Drains every namespace's mailbox into one list of namespace-tagged
    /// events, ordered by namespace id then age — the multi-tenant host
    /// notification channel.
    pub fn take_all_events(&self) -> Vec<TaggedEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(guard.take_tagged_events());
        }
        out
    }

    /// One status line per namespace (state, detector status, FTL
    /// counters), each tagged `[nsK]` — per-tenant debugging instead of an
    /// aggregated blur.
    pub fn status_report(&self) -> String {
        let mut out = String::new();
        for shard in &self.shards {
            let guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.push_str(&guard.status_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    fn device(namespaces: u32, layout: NamespaceLayout) -> MultiTenantSsd {
        MultiTenantSsd::new(
            &InsiderConfig::new(Geometry::tiny()),
            &DecisionTree::stump(0, 0.5),
            namespaces,
            layout,
        )
    }

    fn attack(ssd: &MultiTenantSsd, ns: NamespaceId, lba: Lba, from: SimTime) -> SimTime {
        let mut t = from;
        let mut guard = 0;
        while ssd.state(ns).unwrap() == DeviceState::Normal {
            ssd.read(ns, lba, t).unwrap();
            ssd.write(ns, lba, Bytes::from_static(b"3ncryp7ed"), t)
                .unwrap();
            t += SimTime::from_millis(200);
            guard += 1;
            assert!(guard < 1000, "alarm never fired");
        }
        t
    }

    #[test]
    fn namespaces_have_independent_lba_spaces() {
        let ssd = device(2, NamespaceLayout::Provisioned);
        let (a, b) = (NamespaceId::new(0), NamespaceId::new(1));
        let t = SimTime::from_secs(1);
        ssd.write(a, Lba::new(0), Bytes::from_static(b"from-a"), t)
            .unwrap();
        ssd.write(b, Lba::new(0), Bytes::from_static(b"from-b"), t)
            .unwrap();
        assert_eq!(
            ssd.read(a, Lba::new(0), t).unwrap().unwrap().as_ref(),
            b"from-a"
        );
        assert_eq!(
            ssd.read(b, Lba::new(0), t).unwrap().unwrap().as_ref(),
            b"from-b"
        );
        ssd.trim(a, Lba::new(0), t).unwrap();
        assert!(ssd.read(a, Lba::new(0), t).unwrap().is_none());
        assert!(
            ssd.read(b, Lba::new(0), t).unwrap().is_some(),
            "trim stays in its namespace"
        );
    }

    #[test]
    fn partitioned_layout_divides_capacity() {
        let single = device(1, NamespaceLayout::Partitioned);
        let quad = device(4, NamespaceLayout::Partitioned);
        let ns0 = NamespaceId::new(0);
        let whole = single.logical_pages(ns0).unwrap();
        let shard = quad.logical_pages(ns0).unwrap();
        assert!(shard <= whole / 4 + 1, "shard {shard} vs whole {whole}");
        assert!(shard > 0);
        // Shards are usable drives: a round trip works on the last one.
        let last = NamespaceId::new(3);
        let t = SimTime::from_secs(1);
        quad.write(last, Lba::new(0), Bytes::from_static(b"x"), t)
            .unwrap();
        assert_eq!(
            quad.read(last, Lba::new(0), t).unwrap().unwrap().as_ref(),
            b"x"
        );
    }

    #[test]
    fn unknown_namespace_is_rejected_not_panicked() {
        let ssd = device(2, NamespaceLayout::Provisioned);
        let bogus = NamespaceId::new(9);
        let err = ssd.read(bogus, Lba::new(0), SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::UnknownNamespace {
                requested: 9,
                namespaces: 2
            }
        ));
        assert!(err.to_string().contains("ns9"));
    }

    #[test]
    fn alarm_freezes_only_the_attacked_namespace() {
        let ssd = device(3, NamespaceLayout::Provisioned);
        let (a, b, c) = (
            NamespaceId::new(0),
            NamespaceId::new(1),
            NamespaceId::new(2),
        );
        let t0 = SimTime::from_secs(1);
        ssd.write(a, Lba::new(7), Bytes::from_static(b"precious"), t0)
            .unwrap();
        ssd.write(b, Lba::new(7), Bytes::from_static(b"bystander"), t0)
            .unwrap();

        let t = attack(&ssd, a, Lba::new(7), SimTime::from_secs(60));
        assert_eq!(ssd.state(a).unwrap(), DeviceState::Suspicious);
        assert_eq!(ssd.state(b).unwrap(), DeviceState::Normal);
        assert_eq!(ssd.state(c).unwrap(), DeviceState::Normal);
        assert_eq!(ssd.score(b).unwrap(), 0, "no vote bleed across namespaces");

        // A rolls back and goes read-only — alone.
        let report = ssd.confirm_and_recover(a, t).unwrap();
        assert!(report.restored > 0);
        assert_eq!(
            ssd.read(a, Lba::new(7), t).unwrap().unwrap().as_ref(),
            b"precious"
        );
        assert!(matches!(
            ssd.write(a, Lba::new(7), Bytes::from_static(b"w"), t),
            Err(DeviceError::Ftl(insider_ftl::FtlError::ReadOnly))
        ));
        // Siblings keep writing at full speed.
        ssd.write(b, Lba::new(8), Bytes::from_static(b"still-live"), t)
            .unwrap();
        ssd.write(c, Lba::new(8), Bytes::from_static(b"also-live"), t)
            .unwrap();
        assert_eq!(
            ssd.read(b, Lba::new(7), t).unwrap().unwrap().as_ref(),
            b"bystander",
            "sibling data untouched by A's rollback"
        );

        // Only A needs (and accepts) a reboot.
        assert!(ssd.reboot(b).is_err());
        ssd.reboot(a).unwrap();
        ssd.write(a, Lba::new(7), Bytes::from_static(b"post"), t)
            .unwrap();
    }

    #[test]
    fn events_arrive_tagged_per_namespace() {
        let ssd = device(2, NamespaceLayout::Provisioned);
        let (a, b) = (NamespaceId::new(0), NamespaceId::new(1));
        ssd.write(
            b,
            Lba::new(1),
            Bytes::from_static(b"quiet"),
            SimTime::from_secs(1),
        )
        .unwrap();
        let t = attack(&ssd, a, Lba::new(1), SimTime::from_secs(60));
        ssd.confirm_and_recover(a, t).unwrap();
        let events = ssd.take_all_events();
        assert!(events.len() >= 2);
        assert!(
            events.iter().all(|e| e.namespace == a),
            "only A emitted events"
        );
        assert!(matches!(events[0].event, DeviceEvent::AlarmRaised { .. }));
        assert!(events[0].to_string().starts_with("[ns0] alarm-raised"));
        assert!(ssd.take_events(b).unwrap().is_empty());
    }

    #[test]
    fn status_report_lists_every_namespace() {
        let ssd = device(2, NamespaceLayout::Provisioned);
        ssd.write(
            NamespaceId::new(1),
            Lba::new(0),
            Bytes::from_static(b"x"),
            SimTime::ZERO,
        )
        .unwrap();
        let report = ssd.status_report();
        assert!(report.contains("[ns0]"), "report:\n{report}");
        assert!(report.contains("[ns1]"));
        assert!(report.lines().count() == 2);
        assert!(
            report.contains("writes=1"),
            "ns1's write shows in its own line"
        );
    }

    #[test]
    fn with_namespace_gives_bulk_access() {
        let ssd = device(2, NamespaceLayout::Provisioned);
        let ns = NamespaceId::new(1);
        let written = ssd
            .with_namespace(ns, |dev| {
                for i in 0..4u64 {
                    dev.write(Lba::new(i), Bytes::from_static(b"bulk"), SimTime::ZERO)
                        .unwrap();
                }
                dev.ftl_stats().host_writes
            })
            .unwrap();
        assert_eq!(written, 4);
        assert!(ssd.with_namespace(NamespaceId::new(7), |_| ()).is_err());
    }
}
