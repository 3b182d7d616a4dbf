//! The full SSD-Insider device.

use crate::config::InsiderConfig;
use crate::events::{DeviceEvent, EventLog};
use crate::pacing::PacingBucket;
use crate::state::{Command, DeviceState, Lifecycle};
use crate::timing::IoTiming;
use crate::{DeviceError, Result};
use bytes::Bytes;
use insider_detect::{
    payload_entropy_milli, DecisionTree, Detector, IoMode, IoReq, Verdict, ENTROPY_SAMPLE_BYTES,
};
use insider_ftl::{Ftl, FtlError, FtlStats, GcVictim, InsiderFtl, RollbackReport};
use insider_nand::{Lba, NandStats, SimTime};

/// An SSD with SSD-Insider firmware: a delayed-deletion FTL plus the inline
/// ransomware detector.
///
/// Every host operation flows through both halves: the detector sees the
/// request header (never the payload), and the FTL services the data. When
/// the detector's score crosses the threshold the device enters
/// [`DeviceState::Suspicious`] and the host is expected to ask the user;
/// [`confirm_and_recover`](SsdInsider::confirm_and_recover) then freezes
/// writes and rolls the mapping table back one window.
#[derive(Debug)]
pub struct SsdInsider {
    ftl: InsiderFtl,
    detector: Detector,
    lifecycle: Lifecycle,
    timing: IoTiming,
    detect_enabled: bool,
    events: EventLog,
    pacing: PacingBucket,
}

impl SsdInsider {
    /// Builds the device with a trained decision tree.
    pub fn new(config: InsiderConfig, tree: DecisionTree) -> Self {
        let pacing = PacingBucket::new(
            config.ftl().write_pacing_rate(),
            config.ftl().write_pacing_burst_pages(),
        );
        SsdInsider {
            ftl: InsiderFtl::new(config.ftl().clone()),
            detector: Detector::new(*config.detector(), tree),
            lifecycle: Lifecycle::Normal,
            timing: IoTiming::new(),
            detect_enabled: true,
            events: EventLog::new(),
            pacing,
        }
    }

    /// Drains the host-visible event mailbox (alarms, recovery, reboot),
    /// oldest first — the paper's vendor-command notification channel.
    pub fn take_events(&mut self) -> Vec<DeviceEvent> {
        self.events.drain()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DeviceState {
        self.lifecycle.state()
    }

    /// The verdict that raised the open incident's alarm; `None` exactly
    /// when the device is [`DeviceState::Normal`].
    pub fn last_alarm(&self) -> Option<&Verdict> {
        self.lifecycle.alarm()
    }

    /// The current detection score (0..=N).
    pub fn score(&self) -> u32 {
        self.detector.score()
    }

    /// FTL statistics.
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// NAND statistics.
    pub fn nand_stats(&self) -> &NandStats {
        self.ftl.nand_stats()
    }

    /// NAND busy time as `(serial sum, per-channel-parallel makespan)`.
    pub fn nand_busy_ns(&self) -> (u64, u64) {
        self.ftl.nand_busy_ns()
    }

    /// Drains the NAND command scheduler so every queued command's latency
    /// is folded into the histograms (see [`Ftl::sync`]).
    pub fn sync(&mut self) {
        self.ftl.sync();
    }

    /// Per-command completion-latency percentiles from the NAND command
    /// scheduler. Always `Some`.
    pub fn latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        self.ftl.latency_snapshot()
    }

    /// Latency percentiles over host-issued NAND commands only (GC-internal
    /// traffic excluded). Always `Some`.
    pub fn host_latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        self.ftl.host_latency_snapshot()
    }

    /// Normalized GC debt in `[0, 1]` (see [`Ftl::gc_debt`]); drives the
    /// write-pacing refill rate.
    pub fn gc_debt(&self) -> f64 {
        self.ftl.gc_debt()
    }

    /// Percentiles of foreground GC pause time — the simulated NAND busy
    /// time each collection episode (under either GC policy) inserted ahead
    /// of a host write.
    pub fn gc_pause_latency(&self) -> insider_nand::KindLatency {
        self.ftl.gc_pause_latency()
    }

    /// Runs any parked GC job to completion so the physical state is
    /// comparable across devices (the differential benches call
    /// this before diffing contents).
    ///
    /// # Errors
    ///
    /// Propagates FTL space-exhaustion or NAND failures.
    pub fn gc_quiesce(&mut self) -> Result<()> {
        Ok(self.ftl.gc_quiesce()?)
    }

    /// Write-pacing counters: `(stalled writes, total injected delay ns)`.
    /// Both zero when pacing is disabled (the default).
    pub fn pacing_stats(&self) -> (u64, u64) {
        (self.pacing.stalls(), self.pacing.stall_ns())
    }

    /// Software-path timing accumulators (paper Fig. 8).
    pub fn timing(&self) -> &IoTiming {
        &self.timing
    }

    /// The inner FTL (read-only view, for experiment instrumentation).
    pub fn ftl(&self) -> &InsiderFtl {
        &self.ftl
    }

    /// The inner detector (read-only view, for memory accounting).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Number of logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Disables or re-enables inline detection. With detection off the
    /// device behaves as a plain delayed-deletion FTL — used by the Fig. 8
    /// baseline ("FTL code" bars).
    pub fn set_detection(&mut self, enabled: bool) {
        self.detect_enabled = enabled;
    }

    /// Shannon-entropy stamp for an extent's payload, measured over the
    /// leading bytes up to the estimator's sample budget — real firmware
    /// holds the write data in the transfer buffer anyway, so this is the
    /// device-side analogue of the stamps the workload generators attach.
    fn extent_entropy_milli(data: &[Bytes]) -> u16 {
        let mut sample = [0u8; ENTROPY_SAMPLE_BYTES];
        let mut n = 0;
        for block in data {
            if n == ENTROPY_SAMPLE_BYTES {
                break;
            }
            let take = block.len().min(ENTROPY_SAMPLE_BYTES - n);
            sample[n..n + take].copy_from_slice(&block[..take]);
            n += take;
        }
        payload_entropy_milli(&sample[..n])
    }

    /// Shows the detector one request header and returns the wall time it
    /// cost. `req` builds the header inside the timed region — for a write
    /// that includes the entropy stamp, the detector's largest per-write
    /// cost — and is not called at all with detection off.
    fn feed_detector(&mut self, req: impl FnOnce() -> IoReq) -> u64 {
        if !self.detect_enabled {
            return 0;
        }
        let (verdicts, ns) = IoTiming::time(|| self.detector.ingest(req()));
        self.absorb_verdicts(verdicts);
        ns
    }

    /// The FTL's admission checks for a write or trim, in the FTL's own
    /// precedence (read-only latch, then range), run *before* the detector
    /// is fed: a request the drive is about to refuse is not host activity
    /// and must leave no trace in the counting table.
    fn admit_mutation(&self, lba: Lba, len: u32) -> Result<()> {
        if self.ftl.hold().read_only {
            return Err(FtlError::ReadOnly.into());
        }
        Ok(self.ftl.check_extent(lba, len)?)
    }

    /// Moves the lifecycle one step and holds the FTL to the new state —
    /// the only writer of either.
    fn transition(&mut self, command: Command) -> Result<()> {
        self.lifecycle = self.lifecycle.next(command)?;
        self.ftl
            .set_hold(self.lifecycle.hold(self.detector.config().slice));
        Ok(())
    }

    fn absorb_verdicts(&mut self, verdicts: Vec<Verdict>) {
        // Only a normal drive takes an alarm: the verdict that opened an
        // incident stays, and later alarms are dropped.
        for v in verdicts {
            if v.alarm && self.transition(Command::Alarm(v)).is_ok() {
                self.events.push(DeviceEvent::AlarmRaised { verdict: v });
            }
        }
    }

    /// Reads one logical page — a `len = 1` delegate of
    /// [`read_extent`](Self::read_extent).
    ///
    /// # Errors
    ///
    /// Fails if `lba` is out of range or the underlying NAND read fails.
    pub fn read(&mut self, lba: Lba, now: SimTime) -> Result<Option<Bytes>> {
        let mut out = self.read_extent(lba, 1, now)?;
        Ok(out.pop().expect("len-1 extent yields one slot"))
    }

    /// Writes one logical page — a `len = 1` delegate of
    /// [`write_extent`](Self::write_extent).
    ///
    /// # Errors
    ///
    /// Fails if the device is recovered/read-only, `lba` is out of range,
    /// or space is exhausted.
    pub fn write(&mut self, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        self.write_extent(lba, std::slice::from_ref(&data), now)
    }

    /// Unmaps one logical page — a `len = 1` delegate of
    /// [`trim_extent`](Self::trim_extent).
    ///
    /// # Errors
    ///
    /// Fails if the device is recovered/read-only or `lba` is out of range.
    pub fn trim(&mut self, lba: Lba, now: SimTime) -> Result<()> {
        self.trim_extent(lba, 1, now)
    }

    /// Reads `len` consecutive logical pages. The detector sees ONE
    /// multi-length request header — exactly what a real block-I/O request
    /// carries — and the FTL services the whole extent as a single batch.
    /// Timing is sampled once per extent; `read_ops` still advances by
    /// `len` so per-4-KB averages (Fig. 8) stay comparable.
    ///
    /// # Errors
    ///
    /// Fails if the extent exceeds the logical range or a NAND read fails.
    pub fn read_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<Vec<Option<Bytes>>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        // Out-of-range reads are refused before the detector sees them.
        self.ftl.check_extent(lba, len)?;
        let insider_ns = self.feed_detector(|| IoReq::new(now, lba, IoMode::Read, len));
        let (out, ftl_ns) = IoTiming::time(|| self.ftl.read_extent(lba, len, now));
        self.timing.read_ops += len as u64;
        self.timing.ftl_read_ns += ftl_ns;
        self.timing.insider_read_ns += insider_ns;
        Ok(out?)
    }

    /// Writes `data.len()` consecutive logical pages as one extent: one
    /// detector header, one batched FTL/NAND dispatch, one timing sample.
    ///
    /// When write pacing is configured (`FtlConfig::write_pacing`), the
    /// extent first passes the token bucket: the detector still sees the
    /// request at its arrival time `now` (pacing delays service, not
    /// arrival), but the FTL dispatch is stamped with the bucket's
    /// admission time, so backup-entry timestamps and protection windows
    /// reflect the throttled schedule.
    ///
    /// # Errors
    ///
    /// Fails if the device is recovered/read-only, the extent exceeds the
    /// logical range, or space is exhausted.
    pub fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.admit_mutation(lba, data.len() as u32)?;
        let insider_ns = self.feed_detector(|| {
            IoReq::new(now, lba, IoMode::Write, data.len() as u32)
                .with_entropy_milli(Self::extent_entropy_milli(data))
        });
        let now = if self.pacing.enabled() {
            self.pacing
                .admit(data.len() as u64, now, self.ftl.gc_debt())
        } else {
            now
        };
        let (out, ftl_ns) = IoTiming::time(|| self.ftl.write_extent(lba, data, now));
        self.timing.write_ops += data.len() as u64;
        self.timing.ftl_write_ns += ftl_ns;
        self.timing.insider_write_ns += insider_ns;
        Ok(out?)
    }

    /// Unmaps `len` consecutive logical pages as one extent.
    ///
    /// # Errors
    ///
    /// Fails if the device is recovered/read-only or the extent exceeds the
    /// logical range.
    pub fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.admit_mutation(lba, len)?;
        let insider_ns = self.feed_detector(|| IoReq::new(now, lba, IoMode::Trim, len));
        let (out, ftl_ns) = IoTiming::time(|| self.ftl.trim_extent(lba, len, now));
        self.timing.trim_ops += len as u64;
        self.timing.ftl_trim_ns += ftl_ns;
        self.timing.insider_trim_ns += insider_ns;
        Ok(out?)
    }

    /// Advances detection through idle time (closes elapsed slices) and
    /// retires expired recovery-queue entries.
    pub fn poll(&mut self, now: SimTime) {
        if self.detect_enabled {
            let verdicts = self.detector.flush_until(now);
            self.absorb_verdicts(verdicts);
        }
        self.ftl.tick(now);
    }

    /// The user confirmed the alarm: roll the mapping table back one window
    /// before the alarm and enter [`DeviceState::Recovered`], read-only
    /// until [`reboot`](Self::reboot).
    ///
    /// # Errors
    ///
    /// Fails with [`DeviceError::WrongState`] unless an alarm is pending,
    /// and propagates FTL bookkeeping failures. On such a failure the
    /// device enters [`DeviceState::RecoveryFailed`]: read-only, because
    /// writes to a partially rolled-back drive would destroy recoverable
    /// data, and with no retry, because the rollback consumed the recovery
    /// queue before it failed. Only a reboot leaves that state.
    pub fn confirm_and_recover(&mut self, now: SimTime) -> Result<RollbackReport> {
        // Either outcome needs a pending alarm: ask before the FTL acts.
        self.lifecycle
            .next(Command::Confirm { rolled_back: true })?;
        let rollback = self.ftl.rollback(now);
        let rolled_back = rollback.is_ok();
        self.transition(Command::Confirm { rolled_back })?;
        let report = rollback?;
        self.events.push(DeviceEvent::Recovered { at: now, report });
        Ok(report)
    }

    /// The user dismissed the alarm as a false positive; resume normal
    /// operation.
    ///
    /// # Errors
    ///
    /// Fails with [`DeviceError::WrongState`] unless an alarm is pending.
    pub fn dismiss_alarm(&mut self) -> Result<()> {
        self.transition(Command::Dismiss)?;
        // The user judged the evidence benign: spend it.
        self.detector.reset_votes();
        self.events.push(DeviceEvent::AlarmDismissed);
        Ok(())
    }

    /// Host rebooted (and ran fsck): leave read-only mode and return to
    /// normal service.
    ///
    /// # Errors
    ///
    /// Fails with [`DeviceError::WrongState`] unless the device is
    /// recovered or its recovery failed.
    pub fn reboot(&mut self) -> Result<()> {
        self.transition(Command::Reboot)?;
        self.detector.reset_votes();
        self.events.push(DeviceEvent::Rebooted);
        Ok(())
    }

    /// Simulates a sudden power loss followed by a power-on mount.
    ///
    /// The FTL drops all DRAM state — mapping table, per-block counts, GC
    /// victim index, recovery queue — and rebuilds it from the per-page OOB
    /// records (see [`InsiderFtl::power_cut`]); the detector restarts cold
    /// from its decision tree and configuration, its sliding window of
    /// request features lost with DRAM. The one lifecycle value (state,
    /// alarm, and the FTL hold derived from them) survives by not being
    /// cleared: it models the small NVRAM record real firmware keeps so a
    /// pending alarm cannot be cleared by yanking the power cable.
    ///
    /// # Errors
    ///
    /// Propagates FTL mount failures (internal inconsistencies only).
    pub fn power_cut(&mut self, now: SimTime) -> Result<()> {
        self.ftl.power_cut(now)?;
        let tree = self.detector.tree().clone();
        self.detector = Detector::new(*self.detector.config(), tree);
        self.events.push(DeviceEvent::PowerCycled { at: now });
        Ok(())
    }

    /// Installs a deterministic NAND fault plan (e.g. a power-cut schedule)
    /// on the underlying drive; the crash sweeps use this to cut power at
    /// exact program/erase boundaries.
    pub fn set_fault_plan(&mut self, plan: insider_nand::FaultPlan) {
        self.ftl.set_fault_plan(plan);
    }
}

/// A device error as the block interface reports it. Only the lifecycle
/// commands return [`DeviceError::WrongState`]; a block operation drops an
/// alarm the lifecycle refuses.
fn ftl_error(e: DeviceError) -> FtlError {
    match e {
        DeviceError::Ftl(f) => f,
        DeviceError::WrongState { .. } => unreachable!("block I/O returns no WrongState"),
    }
}

/// `SsdInsider` exposes the same host-facing block interface as the raw
/// FTLs, so experiment harnesses can swap a monitored device in anywhere a
/// plain FTL is accepted. Every operation flows through the inline detector.
impl Ftl for SsdInsider {
    fn read_extent(
        &mut self,
        lba: Lba,
        len: u32,
        now: SimTime,
    ) -> insider_ftl::Result<Vec<Option<Bytes>>> {
        SsdInsider::read_extent(self, lba, len, now).map_err(ftl_error)
    }

    fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> insider_ftl::Result<()> {
        SsdInsider::write_extent(self, lba, data, now).map_err(ftl_error)
    }

    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> insider_ftl::Result<()> {
        SsdInsider::trim_extent(self, lba, len, now).map_err(ftl_error)
    }

    fn power_cut(&mut self, now: SimTime) -> insider_ftl::Result<()> {
        SsdInsider::power_cut(self, now).map_err(ftl_error)
    }

    fn sync(&mut self) {
        SsdInsider::sync(self);
    }

    fn latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        SsdInsider::latency_snapshot(self)
    }

    fn host_latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        SsdInsider::host_latency_snapshot(self)
    }

    fn gc_debt(&self) -> f64 {
        SsdInsider::gc_debt(self)
    }

    fn stats(&self) -> &FtlStats {
        self.ftl_stats()
    }

    fn nand_stats(&self) -> &NandStats {
        SsdInsider::nand_stats(self)
    }

    fn logical_pages(&self) -> u64 {
        SsdInsider::logical_pages(self)
    }

    fn utilization(&self) -> f64 {
        self.ftl.utilization()
    }

    fn wear_summary(&self) -> (u32, u32, f64) {
        self.ftl.wear_summary()
    }

    fn gc_victims(&self) -> &[GcVictim] {
        self.ftl.gc_victims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    fn device() -> SsdInsider {
        SsdInsider::new(
            InsiderConfig::new(Geometry::tiny()),
            DecisionTree::stump(0, 0.5),
        )
    }

    fn attack(ssd: &mut SsdInsider, lba: Lba, from: SimTime) -> SimTime {
        let mut t = from;
        let mut guard = 0;
        while ssd.state() == DeviceState::Normal {
            ssd.read(lba, t).unwrap();
            ssd.write(lba, Bytes::from_static(b"3ncryp7ed"), t).unwrap();
            t += SimTime::from_millis(200);
            guard += 1;
            assert!(guard < 1000, "alarm never fired");
        }
        t
    }

    #[test]
    fn normal_io_round_trips() {
        let mut ssd = device();
        ssd.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            ssd.read(Lba::new(0), SimTime::ZERO)
                .unwrap()
                .unwrap()
                .as_ref(),
            b"x"
        );
        assert_eq!(ssd.state(), DeviceState::Normal);
        assert_eq!(ssd.score(), 0);
    }

    #[test]
    fn sustained_overwriting_raises_alarm() {
        let mut ssd = device();
        let t = attack(&mut ssd, Lba::new(5), SimTime::from_secs(30));
        assert_eq!(ssd.state(), DeviceState::Suspicious);
        let alarm = ssd.last_alarm().expect("alarm verdict recorded");
        assert!(alarm.alarm);
        assert!(alarm.score >= 3);
        // Detection latency is bounded by threshold slices (3) + 1.
        assert!(t.saturating_sub(SimTime::from_secs(30)) <= SimTime::from_secs(10));
    }

    #[test]
    fn recovery_restores_pre_attack_data() {
        let mut ssd = device();
        ssd.write(
            Lba::new(7),
            Bytes::from_static(b"original"),
            SimTime::from_secs(1),
        )
        .unwrap();
        let t = attack(&mut ssd, Lba::new(7), SimTime::from_secs(60));
        let report = ssd.confirm_and_recover(t).unwrap();
        assert!(report.restored > 0);
        assert_eq!(ssd.state(), DeviceState::Recovered);
        assert_eq!(
            ssd.read(Lba::new(7), t).unwrap().unwrap().as_ref(),
            b"original"
        );
    }

    #[test]
    fn recovered_device_rejects_writes_until_reboot() {
        let mut ssd = device();
        ssd.write(Lba::new(7), Bytes::from_static(b"v"), SimTime::from_secs(1))
            .unwrap();
        let t = attack(&mut ssd, Lba::new(7), SimTime::from_secs(60));
        ssd.confirm_and_recover(t).unwrap();
        assert!(matches!(
            ssd.write(Lba::new(7), Bytes::from_static(b"w"), t),
            Err(DeviceError::Ftl(insider_ftl::FtlError::ReadOnly))
        ));
        // Reads still served.
        assert!(ssd.read(Lba::new(7), t).unwrap().is_some());
        ssd.reboot().unwrap();
        assert_eq!(ssd.state(), DeviceState::Normal);
        ssd.write(Lba::new(7), Bytes::from_static(b"w"), t).unwrap();
    }

    #[test]
    fn refused_requests_never_reach_the_detector() {
        let mut ssd = device();
        let end = ssd.logical_pages();
        let t = SimTime::from_secs(5);
        let out_of_range = |r: Result<()>| {
            assert!(matches!(
                r,
                Err(DeviceError::Ftl(FtlError::LbaOutOfRange { .. }))
            ));
        };
        // Reads past the end: refused, and no counting-table entry each.
        for i in 0..1_000u64 {
            out_of_range(ssd.read(Lba::new(end + 2 * i), t).map(drop));
        }
        out_of_range(ssd.write_extent(Lba::new(end - 1), &[Bytes::new(), Bytes::new()], t));
        out_of_range(ssd.trim_extent(Lba::new(end), 1, t));
        let status = ssd.detector().status();
        assert_eq!((status.table_entries, status.current_slice), (0, 0));

        // Recovered and read-only: refused writes and trims — in range or
        // not, the latch answers first — leave the detector exactly as the
        // last accepted request left it, even stamped far in the future.
        ssd.write(Lba::new(7), Bytes::from_static(b"v"), t).unwrap();
        let t = attack(&mut ssd, Lba::new(7), SimTime::from_secs(60));
        ssd.confirm_and_recover(t).unwrap();
        let before = ssd.detector().status();
        let later = t + SimTime::from_secs(100);
        let read_only = Err(DeviceError::Ftl(FtlError::ReadOnly));
        for lba in [7, end + 7].map(Lba::new) {
            assert_eq!(ssd.write(lba, Bytes::from_static(b"w"), later), read_only);
            assert_eq!(ssd.trim(lba, later), read_only);
        }
        assert_eq!(ssd.detector().status(), before);
        // An accepted read still does.
        ssd.read(Lba::new(7), later).unwrap();
        assert_ne!(ssd.detector().status(), before);
    }

    #[test]
    fn request_header_is_built_inside_the_detector_timer_and_only_with_detection_on() {
        let mut ssd = device();
        let pause = std::time::Duration::from_millis(2);
        let header = || {
            std::thread::sleep(pause);
            IoReq::new(SimTime::ZERO, Lba::new(0), IoMode::Write, 1)
        };
        let ns = u128::from(ssd.feed_detector(header));
        assert!(ns >= pause.as_nanos(), "the stamp must be charged");
        ssd.set_detection(false);
        let ns = ssd.feed_detector(|| unreachable!("no detector, no stamp"));
        assert_eq!(ns, 0);
    }

    #[test]
    fn dismiss_returns_to_normal() {
        let mut ssd = device();
        let t = attack(&mut ssd, Lba::new(3), SimTime::from_secs(30));
        ssd.dismiss_alarm().unwrap();
        assert_eq!(ssd.state(), DeviceState::Normal);
        assert!(ssd.last_alarm().is_none());
        // I/O continues.
        ssd.write(Lba::new(3), Bytes::from_static(b"k"), t).unwrap();
    }

    #[test]
    fn recover_without_alarm_is_rejected() {
        let mut ssd = device();
        assert!(matches!(
            ssd.confirm_and_recover(SimTime::ZERO),
            Err(DeviceError::WrongState { .. })
        ));
        assert!(matches!(
            ssd.dismiss_alarm(),
            Err(DeviceError::WrongState { .. })
        ));
        assert!(matches!(ssd.reboot(), Err(DeviceError::WrongState { .. })));
    }

    #[test]
    fn poll_advances_detection_through_idle_time() {
        let mut ssd = device();
        // Attack bursts, then silence: score must decay via poll.
        attack(&mut ssd, Lba::new(1), SimTime::from_secs(10));
        ssd.dismiss_alarm().unwrap();
        ssd.poll(SimTime::from_secs(120));
        assert_eq!(ssd.score(), 0);
    }

    #[test]
    fn detection_can_be_disabled() {
        let mut ssd = device();
        ssd.set_detection(false);
        let mut t = SimTime::from_secs(10);
        for _ in 0..100 {
            ssd.read(Lba::new(2), t).unwrap();
            ssd.write(Lba::new(2), Bytes::from_static(b"junk"), t)
                .unwrap();
            t += SimTime::from_millis(100);
        }
        assert_eq!(ssd.state(), DeviceState::Normal);
        assert_eq!(ssd.timing().summary().insider_write_ns, 0.0);
        assert!(ssd.timing().summary().ftl_write_ns > 0.0);
    }

    #[test]
    fn timing_accumulates_for_both_paths() {
        let mut ssd = device();
        ssd.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
            .unwrap();
        ssd.read(Lba::new(0), SimTime::ZERO).unwrap();
        let t = ssd.timing();
        assert_eq!(t.read_ops, 1);
        assert_eq!(t.write_ops, 1);
        assert!(t.ftl_write_ns > 0);
    }

    #[test]
    fn trims_account_separately_from_writes() {
        let mut ssd = device();
        ssd.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
            .unwrap();
        ssd.trim(Lba::new(0), SimTime::ZERO).unwrap();
        let t = ssd.timing();
        assert_eq!(t.write_ops, 1, "trims must not count as writes");
        assert_eq!(t.trim_ops, 1);
        assert!(t.ftl_trim_ns > 0);
        assert_eq!(t.summary().ftl_write_ns, t.ftl_write_ns as f64);
    }

    #[test]
    fn extent_ops_flow_through_whole_stack() {
        let mut ssd = device();
        let data: Vec<Bytes> = (0..8)
            .map(|i| Bytes::copy_from_slice(format!("blk{i}").as_bytes()))
            .collect();
        ssd.write_extent(Lba::new(4), &data, SimTime::from_secs(1))
            .unwrap();
        let back = ssd
            .read_extent(Lba::new(4), 8, SimTime::from_secs(1))
            .unwrap();
        for (i, page) in back.into_iter().enumerate() {
            assert_eq!(page.unwrap().as_ref(), format!("blk{i}").as_bytes());
        }
        ssd.trim_extent(Lba::new(4), 8, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(
            ssd.read_extent(Lba::new(4), 8, SimTime::from_secs(1))
                .unwrap(),
            vec![None; 8]
        );
        let t = ssd.timing();
        assert_eq!((t.read_ops, t.write_ops, t.trim_ops), (16, 8, 8));
        assert_eq!(ssd.ftl_stats().host_writes, 8);
    }

    #[test]
    fn extent_attack_raises_alarm_from_one_header_per_request() {
        let mut ssd = device();
        let data = vec![Bytes::from_static(b"3ncryp7ed"); 4];
        let mut t = SimTime::from_secs(30);
        let mut guard = 0;
        while ssd.state() == DeviceState::Normal {
            ssd.read_extent(Lba::new(16), 4, t).unwrap();
            ssd.write_extent(Lba::new(16), &data, t).unwrap();
            t += SimTime::from_millis(200);
            guard += 1;
            assert!(guard < 1000, "alarm never fired via extent path");
        }
        assert_eq!(ssd.state(), DeviceState::Suspicious);
        let report = ssd.confirm_and_recover(t).unwrap();
        assert!(report.restored > 0);
    }

    #[test]
    fn empty_extents_touch_nothing() {
        let mut ssd = device();
        ssd.write_extent(Lba::new(0), &[], SimTime::ZERO).unwrap();
        ssd.trim_extent(Lba::new(0), 0, SimTime::ZERO).unwrap();
        assert!(ssd
            .read_extent(Lba::new(0), 0, SimTime::ZERO)
            .unwrap()
            .is_empty());
        let t = ssd.timing();
        assert_eq!((t.read_ops, t.write_ops, t.trim_ops), (0, 0, 0));
        assert_eq!(ssd.score(), 0);
    }

    #[test]
    fn event_mailbox_narrates_the_lifecycle() {
        use crate::events::DeviceEvent;
        let mut ssd = device();
        ssd.write(Lba::new(1), Bytes::from_static(b"v"), SimTime::from_secs(1))
            .unwrap();
        assert!(ssd.take_events().is_empty(), "normal I/O emits no events");
        let t = attack(&mut ssd, Lba::new(1), SimTime::from_secs(60));
        ssd.confirm_and_recover(t).unwrap();
        ssd.reboot().unwrap();
        let events = ssd.take_events();
        assert!(matches!(events[0], DeviceEvent::AlarmRaised { .. }));
        assert!(events[0].to_string().starts_with("alarm-raised"));
        assert!(matches!(events[1], DeviceEvent::Recovered { .. }));
        assert!(matches!(events[2], DeviceEvent::Rebooted));
        assert!(ssd.take_events().is_empty(), "drain empties the mailbox");
    }

    #[test]
    fn dismissed_alarm_does_not_instantly_retrigger() {
        let mut ssd = device();
        let t = attack(&mut ssd, Lba::new(3), SimTime::from_secs(30));
        ssd.dismiss_alarm().unwrap();
        // A couple of idle slices: the spent evidence must not re-alarm.
        ssd.poll(t + SimTime::from_secs(2));
        assert_eq!(ssd.state(), DeviceState::Normal);
        // Fresh overwriting re-raises the alarm with fresh votes.
        let t2 = attack(&mut ssd, Lba::new(3), t + SimTime::from_secs(5));
        assert_eq!(ssd.state(), DeviceState::Suspicious);
        let _ = t2;
    }

    #[test]
    fn slow_confirmation_does_not_lose_recoverable_data() {
        let mut ssd = device();
        ssd.write(
            Lba::new(7),
            Bytes::from_static(b"original"),
            SimTime::from_secs(1),
        )
        .unwrap();
        let t = attack(&mut ssd, Lba::new(7), SimTime::from_secs(60));
        // The user stares at the warning dialog for five minutes, while the
        // clock keeps advancing (polls and stray reads).
        let confirm_at = t + SimTime::from_secs(300);
        ssd.poll(confirm_at);
        ssd.read(Lba::new(7), confirm_at).unwrap();
        let report = ssd.confirm_and_recover(confirm_at).unwrap();
        assert!(report.restored > 0);
        assert_eq!(
            ssd.read(Lba::new(7), confirm_at).unwrap().unwrap().as_ref(),
            b"original",
            "pre-attack data must survive a slow confirmation"
        );
    }

    #[test]
    fn trim_is_monitored_and_recoverable() {
        let mut ssd = device();
        ssd.write(
            Lba::new(9),
            Bytes::from_static(b"keep"),
            SimTime::from_secs(1),
        )
        .unwrap();
        // Read-then-trim pattern at scale also raises the alarm (class C).
        let mut t = SimTime::from_secs(60);
        let mut guard = 0;
        while ssd.state() == DeviceState::Normal {
            ssd.read(Lba::new(9), t).unwrap();
            ssd.trim(Lba::new(9), t).unwrap();
            ssd.write(Lba::new(9), Bytes::from_static(b"keep"), t)
                .unwrap();
            t += SimTime::from_millis(200);
            guard += 1;
            assert!(guard < 1000, "alarm never fired");
        }
        let report = ssd.confirm_and_recover(t).unwrap();
        assert!(report.restored > 0);
        assert_eq!(ssd.read(Lba::new(9), t).unwrap().unwrap().as_ref(), b"keep");
    }

    #[test]
    fn pacing_disabled_by_default_never_stalls() {
        let mut ssd = device();
        for i in 0..200u64 {
            ssd.write(Lba::new(i % 50), Bytes::from_static(b"d"), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(ssd.pacing_stats(), (0, 0));
    }

    #[test]
    fn pacing_throttles_a_write_burst() {
        let ftl = insider_ftl::FtlConfig::new(Geometry::tiny())
            .write_pacing(1_000)
            .write_pacing_burst(4);
        let cfg = InsiderConfig::from_parts(ftl, *InsiderConfig::new(Geometry::tiny()).detector());
        let mut ssd = SsdInsider::new(cfg, DecisionTree::stump(0, 0.5));
        // 32 back-to-back single-page writes at t=0 against a 4-page burst
        // at 1000 pages/s: the bucket must inject delay.
        for i in 0..32u64 {
            ssd.write(Lba::new(i), Bytes::from_static(b"d"), SimTime::ZERO)
                .unwrap();
        }
        let (stalls, stall_ns) = ssd.pacing_stats();
        assert!(stalls >= 28, "expected most writes stalled, got {stalls}");
        // 28 deficit pages at 1000 pages/s is 28 ms of injected delay.
        assert_eq!(stall_ns, 28_000_000);
    }

    #[test]
    fn gc_debt_surfaces_through_the_device() {
        let ftl = insider_ftl::FtlConfig::new(Geometry::tiny()).incremental_gc(true);
        let cfg = InsiderConfig::from_parts(ftl, *InsiderConfig::new(Geometry::tiny()).detector());
        let mut ssd = SsdInsider::new(cfg, DecisionTree::stump(0, 0.5));
        // Pure GC churn test: keep the detector from freezing retirement.
        ssd.set_detection(false);
        assert_eq!(ssd.gc_debt(), 0.0);
        // Churn a 64-page hot set slowly enough (200 ms/write against the
        // 10 s protection window) that old versions keep expiring; the free
        // pool shrinks under churn, debt stays in range, and the device
        // stays writable throughout.
        let mut t = SimTime::from_secs(1);
        for round in 0..10u64 {
            for i in 0..64u64 {
                ssd.write(Lba::new(i), Bytes::from_static(b"v"), t).unwrap();
                t += SimTime::from_millis(200);
            }
            let debt = ssd.gc_debt();
            assert!((0.0..=1.0).contains(&debt), "round {round}: debt {debt}");
        }
        ssd.gc_quiesce().unwrap();
        assert!(ssd.gc_pause_latency().count > 0 || ssd.ftl_stats().gc_steps > 0);
    }

    /// The block interface reports what the device reports: a harness
    /// holding `&mut dyn Ftl` sees the real GC debt and host latencies.
    #[test]
    fn the_block_interface_forwards_gc_debt_and_host_latency() {
        let ftl = insider_ftl::FtlConfig::new(Geometry::tiny()).incremental_gc(true);
        let cfg = InsiderConfig::from_parts(ftl, *InsiderConfig::new(Geometry::tiny()).detector());
        let mut ssd = SsdInsider::new(cfg, DecisionTree::stump(0, 0.5));
        ssd.set_detection(false);
        // A 150-page hot set plus a window's worth of protected pre-images
        // fill the 256-page drive past the incremental watermark.
        let mut t = SimTime::from_secs(1);
        let mut peak = 0.0f64;
        for _ in 0..10 {
            for i in 0..150u64 {
                ssd.write(Lba::new(i), Bytes::from_static(b"v"), t).unwrap();
                t += SimTime::from_millis(200);
                assert_eq!(<SsdInsider as Ftl>::gc_debt(&ssd), ssd.gc_debt());
                peak = peak.max(<SsdInsider as Ftl>::gc_debt(&ssd));
            }
        }
        assert!(
            peak > 0.0,
            "the churn never put the pool under the watermark"
        );
        assert!(<SsdInsider as Ftl>::host_latency_snapshot(&ssd).is_some());
    }
}
