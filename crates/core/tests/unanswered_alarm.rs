//! An alarm nobody answers, measured: what a pending alarm costs while
//! the attacker keeps writing.
//!
//! While an alarm is pending the recovery queue retires nothing, so every
//! overwrite pins one more pre-image. This test raises an alarm on
//! `Geometry::tiny()` with a read-then-overwrite attacker and never
//! answers it; the attacker goes on at device speed — one page per NAND
//! program plus bus transfer — for ten windows. It records the peak
//! recovery-queue entries, counting-table entries and protected pages,
//! and the first error the host sees, and prints them (run with
//! `--nocapture` to read them).
//!
//! It asserts only what holds whatever the drive does about a frozen queue
//! (refuse space, or latch read-only): nothing panics, reads keep working,
//! and every refused write is a typed [`DeviceError`] naming the refusal.

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_ftl::FtlError;
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::{DeviceError, DeviceState, InsiderConfig, SsdInsider};

/// The default NAND page program (500 µs) plus its bus transfer (30 µs):
/// the pace of a single-chip drive written flat out.
const PAGE_TIME_US: u64 = 530;

#[derive(Debug, Default)]
struct Peaks {
    queue_entries: usize,
    table_entries: usize,
    protected_pages: usize,
}

impl Peaks {
    fn observe(&mut self, ssd: &SsdInsider) {
        let queue = ssd.ftl().recovery_queue();
        self.queue_entries = self.queue_entries.max(queue.len());
        self.protected_pages = self.protected_pages.max(queue.protected_count());
        let table = ssd.detector().engine().counting_table();
        self.table_entries = self.table_entries.max(table.len());
    }
}

#[test]
fn an_unanswered_alarm_under_a_device_speed_writer() {
    let config = InsiderConfig::new(Geometry::tiny());
    let window_us = config.detector().slice.as_micros() * config.detector().window_slices as u64;
    let window = SimTime::from_micros(window_us);
    let ten_windows = SimTime::from_micros(10 * window_us);
    let mut ssd = SsdInsider::new(config, DecisionTree::stump(0, 0.5));
    let plain = Bytes::from_static(b"user data");
    let cipher = Bytes::from_static(b"ciphertext");

    // The user's data on half the drive, written long before the attack
    // and out of the window; the other half is free space for pre-images.
    let pages = ssd.logical_pages() / 2;
    let mut now = SimTime::from_secs(1);
    for lba in 0..pages {
        ssd.write(Lba::new(lba), plain.clone(), now).unwrap();
        now = now.plus_micros(PAGE_TIME_US);
    }
    now += window + SimTime::from_secs(1);
    ssd.poll(now);
    assert_eq!(ssd.ftl().recovery_queue().len(), 0);

    // The attacker reads and overwrites page after page, flat out, until
    // the alarm fires and for ten windows after it.
    let attack_at = now;
    let mut peaks = Peaks::default();
    let mut alarm_at = None;
    let mut first_error = None;
    let (mut accepted, mut refused) = (0u64, 0u64);
    let mut lba = 0;
    loop {
        if alarm_at.is_none() && ssd.state() == DeviceState::Suspicious {
            alarm_at = Some(now);
        }
        if alarm_at.is_some_and(|at| now >= at + ten_windows) {
            break;
        }
        assert!(
            now < SimTime::from_secs(60) + ten_windows,
            "no alarm after {} s of attack",
            now.as_micros() / 1_000_000
        );
        let page = Lba::new(lba);
        ssd.read(page, now).expect("reads keep working");
        match ssd.write(page, cipher.clone(), now) {
            Ok(()) => accepted += 1,
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        DeviceError::Ftl(FtlError::NoReclaimableSpace | FtlError::ReadOnly)
                    ),
                    "a refused write must name the refusal, got {e:?}"
                );
                refused += 1;
                first_error.get_or_insert((e, now));
            }
        }
        peaks.observe(&ssd);
        lba = (lba + 1) % pages;
        now = now.plus_micros(PAGE_TIME_US);
    }

    let alarm_at = alarm_at.expect("the attack raised an alarm");
    let secs = |from: SimTime, to: SimTime| (to.as_micros() as f64 - from.as_micros() as f64) / 1e6;
    println!(
        "tiny drive, attack on {pages} of {} logical pages, alarm {:.3} s into it, \
         never answered; {accepted} writes accepted and {refused} refused",
        ssd.logical_pages(),
        secs(attack_at, alarm_at)
    );
    println!(
        "peak queue entries {}, peak counting-table entries {}, peak protected pages {}",
        peaks.queue_entries, peaks.table_entries, peaks.protected_pages
    );
    match &first_error {
        Some((e, at)) => println!(
            "first error the host sees: {e:?}, {:.3} s into the attack ({:+.3} s from the alarm)",
            secs(attack_at, *at),
            secs(alarm_at, *at)
        ),
        None => println!("the host saw no error"),
    }
}
