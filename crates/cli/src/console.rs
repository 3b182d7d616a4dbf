//! The scriptable command interpreter behind `insider-console`.

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::{DeviceState, InsiderConfig, SsdInsider};
use std::fmt;

/// Errors the console surfaces to the user (never panics on input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsoleError(String);

impl fmt::Display for ConsoleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConsoleError {}

fn err(msg: impl Into<String>) -> ConsoleError {
    ConsoleError(msg.into())
}

/// A stateful console around one [`SsdInsider`] device with a manual clock.
///
/// Every command returns the text it would print; the REPL binary just
/// echoes it. Time only advances via explicit commands (`tick`) and the
/// built-in pacing of `attack`, so sessions are fully reproducible.
#[derive(Debug)]
pub struct Console {
    device: SsdInsider,
    now: SimTime,
}

impl Default for Console {
    fn default() -> Self {
        Self::new()
    }
}

impl Console {
    /// A console over a small default drive with the "any overwrite votes
    /// ransomware" demo rule (threshold 3, like the paper).
    pub fn new() -> Self {
        let geometry = Geometry::builder()
            .channels(1)
            .chips_per_channel(2)
            .blocks_per_chip(64)
            .pages_per_block(32)
            .page_size(4096)
            .build();
        Console {
            device: SsdInsider::new(InsiderConfig::new(geometry), DecisionTree::stump(0, 0.5)),
            now: SimTime::ZERO,
        }
    }

    /// A console over a caller-supplied device.
    pub fn with_device(device: SsdInsider) -> Self {
        Console {
            device,
            now: SimTime::ZERO,
        }
    }

    /// The wrapped device (for assertions in tests).
    pub fn device(&self) -> &SsdInsider {
        &self.device
    }

    /// The console clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Executes one command line, returning the output text.
    ///
    /// # Errors
    ///
    /// Returns a [`ConsoleError`] with a user-facing message for unknown
    /// commands, malformed arguments, or device errors.
    pub fn execute(&mut self, line: &str) -> Result<String, ConsoleError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => Ok(HELP.trim_end().to_string()),
            "status" => Ok(self.status()),
            "events" => Ok(self.events()),
            "write" => self.write(&args),
            "read" => self.read(&args),
            "trim" => self.trim(&args),
            "attack" => self.attack(&args),
            "tick" => self.tick(&args),
            "recover" => self.recover(),
            "dismiss" => self.dismiss(),
            "reboot" => self.reboot(),
            other => Err(err(format!("unknown command '{other}' (try 'help')"))),
        }
    }

    fn parse_lba(&self, s: &str) -> Result<Lba, ConsoleError> {
        let raw: u64 = s.parse().map_err(|_| err(format!("'{s}' is not an lba")))?;
        if raw >= self.device.logical_pages() {
            return Err(err(format!(
                "lba {raw} out of range (drive exports {} pages)",
                self.device.logical_pages()
            )));
        }
        Ok(Lba::new(raw))
    }

    fn status(&self) -> String {
        let ftl = self.device.ftl_stats();
        let nand = self.device.nand_stats();
        let pause = self.device.gc_pause_latency();
        format!(
            "state: {}  score: {}/{}  t: {}  writes: {}  WA: {:.3}\n\
             gc: {} collections, pause p99 {:.3} ms\n\
             tail: {} gc-stalled cmds",
            self.device.state(),
            self.device.score(),
            self.device.detector().config().window_slices,
            self.now,
            ftl.host_writes,
            ftl.write_amplification(),
            ftl.gc_invocations,
            pause.p99_ns as f64 / 1e6,
            nand.gc_stalled_cmds,
        )
    }

    fn events(&mut self) -> String {
        let events = self.device.take_events();
        if events.is_empty() {
            "no pending events".to_string()
        } else {
            events
                .iter()
                .map(|e| format!("{e:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    fn write(&mut self, args: &[&str]) -> Result<String, ConsoleError> {
        let (first, rest) = args
            .split_first()
            .ok_or_else(|| err("usage: write <lba> <text>"))?;
        let lba = self.parse_lba(first)?;
        let text = rest.join(" ");
        if text.is_empty() {
            return Err(err("usage: write <lba> <text>"));
        }
        self.device
            .write(lba, Bytes::from(text.clone().into_bytes()), self.now)
            .map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "ok: wrote {} bytes at {lba} (t={})",
            text.len(),
            self.now
        ))
    }

    fn read(&mut self, args: &[&str]) -> Result<String, ConsoleError> {
        let [lba] = args else {
            return Err(err("usage: read <lba>"));
        };
        let lba = self.parse_lba(lba)?;
        let data = self
            .device
            .read(lba, self.now)
            .map_err(|e| err(e.to_string()))?;
        Ok(match data {
            Some(d) => format!("{lba}: {:?}", String::from_utf8_lossy(&d)),
            None => format!("{lba}: <unmapped>"),
        })
    }

    fn trim(&mut self, args: &[&str]) -> Result<String, ConsoleError> {
        let [lba] = args else {
            return Err(err("usage: trim <lba>"));
        };
        let lba = self.parse_lba(lba)?;
        self.device
            .trim(lba, self.now)
            .map_err(|e| err(e.to_string()))?;
        Ok(format!("ok: trimmed {lba}"))
    }

    /// `attack <start_lba> <count>` — read-then-overwrite `count` pages,
    /// 250 ms apart, narrating the score as it climbs.
    fn attack(&mut self, args: &[&str]) -> Result<String, ConsoleError> {
        let [start, count] = args else {
            return Err(err("usage: attack <start_lba> <count>"));
        };
        let start = self.parse_lba(start)?;
        let count: u64 = count
            .parse()
            .map_err(|_| err(format!("'{count}' is not a count")))?;
        self.parse_lba(&(start.index() + count.saturating_sub(1)).to_string())?;

        let mut lines = Vec::new();
        for i in 0..count {
            let lba = start.offset(i);
            self.device
                .read(lba, self.now)
                .map_err(|e| err(e.to_string()))?;
            self.device
                .write(lba, Bytes::from_static(b"\x13\x37ciphertext"), self.now)
                .map_err(|e| err(e.to_string()))?;
            self.now += SimTime::from_millis(250);
            lines.push(format!(
                "encrypted {lba}  (t={}, score {})",
                self.now,
                self.device.score()
            ));
            if self.device.state() == DeviceState::Suspicious {
                lines.push(
                    "*** ALARM: drive suspects ransomware — 'recover' or 'dismiss' ***".into(),
                );
                break;
            }
        }
        Ok(lines.join("\n"))
    }

    fn tick(&mut self, args: &[&str]) -> Result<String, ConsoleError> {
        let [secs] = args else {
            return Err(err("usage: tick <seconds>"));
        };
        let secs: u64 = secs
            .parse()
            .map_err(|_| err(format!("'{secs}' is not a number of seconds")))?;
        self.now += SimTime::from_secs(secs);
        self.device.poll(self.now);
        Ok(format!("t={} (score {})", self.now, self.device.score()))
    }

    fn recover(&mut self) -> Result<String, ConsoleError> {
        let report = self
            .device
            .confirm_and_recover(self.now)
            .map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "rolled back {} entries ({} pages); drive is read-only until 'reboot'",
            report.restored, report.lbas_touched
        ))
    }

    fn dismiss(&mut self) -> Result<String, ConsoleError> {
        self.device
            .dismiss_alarm()
            .map_err(|e| err(e.to_string()))?;
        Ok("alarm dismissed; normal service".to_string())
    }

    fn reboot(&mut self) -> Result<String, ConsoleError> {
        self.device.reboot().map_err(|e| err(e.to_string()))?;
        Ok("rebooted; write service restored".to_string())
    }
}

const HELP: &str = "\
commands:
  write <lba> <text>       write a page
  read <lba>               read a page
  trim <lba>               discard a page
  attack <lba> <count>     stage read+overwrite ransomware from <lba>
  tick <seconds>           advance the clock (detector sees idle slices)
  status                   device state, score, clock
  events                   drain the device event mailbox
  recover                  confirm the alarm and roll back 10 s
  dismiss                  dismiss the alarm as a false positive
  reboot                   leave read-only mode after a recovery, failed or not
  help                     this text
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(console: &mut Console, line: &str) -> String {
        console
            .execute(line)
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn full_session_narrative() {
        let mut c = Console::new();
        run(&mut c, "write 10 precious document");
        run(&mut c, "tick 30");
        let out = run(&mut c, "attack 10 40");
        assert!(out.contains("ALARM"), "attack must trip the alarm:\n{out}");
        assert_eq!(c.device().state(), DeviceState::Suspicious);

        let out = run(&mut c, "recover");
        assert!(out.contains("rolled back"));
        let out = run(&mut c, "read 10");
        assert!(out.contains("precious document"), "{out}");

        // Writes blocked until reboot.
        let e = c.execute("write 10 more").unwrap_err();
        assert!(e.to_string().contains("read-only"));
        run(&mut c, "reboot");
        run(&mut c, "write 10 more");
    }

    #[test]
    fn dismiss_path() {
        let mut c = Console::new();
        run(&mut c, "write 5 x");
        run(&mut c, "tick 30");
        run(&mut c, "attack 5 40");
        let out = run(&mut c, "dismiss");
        assert!(out.contains("dismissed"));
        assert_eq!(c.device().state(), DeviceState::Normal);
    }

    #[test]
    fn events_drain() {
        let mut c = Console::new();
        assert_eq!(run(&mut c, "events"), "no pending events");
        run(&mut c, "write 5 x");
        run(&mut c, "tick 30");
        run(&mut c, "attack 5 40");
        let out = run(&mut c, "events");
        assert!(out.contains("AlarmRaised"), "{out}");
        assert_eq!(run(&mut c, "events"), "no pending events");
    }

    #[test]
    fn malformed_input_is_reported_not_panicked() {
        let mut c = Console::new();
        for bad in [
            "frobnicate",
            "write",
            "write notanlba hello",
            "write 999999999 hello",
            "read",
            "read -1",
            "attack 0",
            "attack 0 notanumber",
            "tick soon",
            "recover", // no alarm pending
            "reboot",  // not recovered
        ] {
            let e = c.execute(bad);
            assert!(e.is_err(), "'{bad}' should be an error");
        }
        // Console still works afterwards.
        run(&mut c, "write 1 fine");
    }

    #[test]
    fn attack_beyond_capacity_is_rejected_upfront() {
        let mut c = Console::new();
        let max = c.device().logical_pages();
        let e = c.execute(&format!("attack {} 10", max - 2)).unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn empty_line_is_a_noop() {
        let mut c = Console::new();
        assert_eq!(run(&mut c, ""), "");
        assert_eq!(run(&mut c, "   "), "");
    }

    #[test]
    fn help_lists_every_command() {
        let mut c = Console::new();
        let help = run(&mut c, "help");
        for cmd in [
            "write", "read", "trim", "attack", "tick", "status", "events", "recover", "dismiss",
            "reboot",
        ] {
            assert!(help.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn status_reports_state_and_clock() {
        let mut c = Console::new();
        run(&mut c, "tick 5");
        let s = run(&mut c, "status");
        assert!(s.contains("state: normal"));
        assert!(s.contains("5.000000s"));
    }

    #[test]
    fn status_reports_gc_and_tail_counters() {
        let mut c = Console::new();
        let s = run(&mut c, "status");
        assert!(s.contains("gc: 0 collections, pause p99"), "{s}");
        assert!(s.contains("tail: 0 gc-stalled cmds"), "{s}");

        // A tiny drive with a short protection window: churn overwrites
        // (ticking the clock past the window so backups expire) until the
        // collector must run, then the counters must move.
        let geometry = Geometry::builder()
            .channels(1)
            .chips_per_channel(1)
            .blocks_per_chip(16)
            .pages_per_block(8)
            .page_size(64)
            .build();
        let ftl =
            insider_ftl::FtlConfig::new(geometry).protection_window(SimTime::from_millis(100));
        let detector = insider_detect::DetectorConfig::default();
        let mut device = SsdInsider::new(
            InsiderConfig::from_parts(ftl, detector),
            DecisionTree::stump(0, 0.5),
        );
        device.set_detection(false);
        let mut c = Console::with_device(device);
        for round in 0..30 {
            for lba in 0..8 {
                run(&mut c, &format!("write {lba} v{round}"));
            }
            run(&mut c, "tick 1");
        }
        let s = run(&mut c, "status");
        assert!(!s.contains("gc: 0 collections"), "GC never ran:\n{s}");
        assert!(s.contains("pause p99"), "{s}");
    }
}
