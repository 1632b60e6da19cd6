//! Always-on flight recorder: a bounded ring of the last things that
//! happened on one side of the MI pipe, dumped as a structured JSON
//! post-mortem when a session dies.
//!
//! Both the tracker and the `mi-server` engine keep one. Recording is a
//! mutex-guarded ring push — cheap enough to leave on everywhere. On the
//! engine side the ring cannot be fetched once the process is dead, so
//! the server prints it as a single marked stderr line
//! ([`STDERR_MARKER`]) on the way down; the tracker's stderr tail
//! capture (bounded, keeps the last 16 KiB) carries it across the grave,
//! and [`extract_last_gasp`] recovers it from the captured tail.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Marker prefixing the engine's last-gasp flight log on stderr.
pub const STDERR_MARKER: &str = "MI-FLIGHT-RECORDER ";

/// Longest detail string retained per entry; long payloads (full state
/// snapshots, source text) are truncated so the ring — and the one-line
/// stderr last-gasp — stays bounded.
const DETAIL_CAP: usize = 160;

/// One recorded moment: a command sent, a response, a pause reason, a
/// sanitizer trap, a retry, a respawn.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlightEntry {
    /// Monotonic sequence number; never reused, so gaps reveal eviction.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Entry kind, e.g. `cmd`, `resp`, `pause`, `trap`, `retry`, `respawn`.
    pub kind: String,
    pub detail: String,
}

/// The serializable contents of a [`FlightRecorder`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlightLog {
    pub entries: Vec<FlightEntry>,
    /// Entries evicted from the ring before this log was taken.
    pub dropped: u64,
}

impl FlightLog {
    /// Most recent entry of `kind`, if any survived in the ring.
    pub fn last_of(&self, kind: &str) -> Option<&FlightEntry> {
        self.entries.iter().rev().find(|e| e.kind == kind)
    }
}

struct FlightInner {
    epoch: Instant,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<FlightEntry>,
}

/// Cheaply cloneable handle to one side's bounded event ring.
#[derive(Clone)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Arc<Mutex<FlightInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(256)
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Arc::new(Mutex::new(FlightInner {
                epoch: Instant::now(),
                next_seq: 0,
                dropped: 0,
                buf: VecDeque::new(),
            })),
        }
    }

    /// Appends an entry, evicting the oldest when full. `detail` is
    /// truncated to a bounded length.
    pub fn record(&self, kind: &str, detail: impl Into<String>) {
        let mut detail = detail.into();
        if detail.len() > DETAIL_CAP {
            let mut cut = DETAIL_CAP;
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            detail.truncate(cut);
            detail.push('…');
        }
        let mut inner = self.inner.lock().unwrap();
        let at_us = inner.epoch.elapsed().as_micros() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(FlightEntry {
            seq,
            at_us,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Copies out the ring, oldest first.
    pub fn log(&self) -> FlightLog {
        let inner = self.inner.lock().unwrap();
        FlightLog {
            entries: inner.buf.iter().cloned().collect(),
            dropped: inner.dropped,
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the log as the one-line last-gasp stderr record.
    pub fn last_gasp_line(&self) -> String {
        let json = serde_json::to_string(&self.log()).unwrap_or_else(|_| "{}".into());
        format!("{STDERR_MARKER}{json}")
    }
}

/// Recovers the engine's last-gasp [`FlightLog`] from a captured stderr
/// tail, taking the last marked line (the tail may truncate earlier
/// ones mid-line).
pub fn extract_last_gasp(stderr: &str) -> Option<FlightLog> {
    stderr
        .lines()
        .rev()
        .filter_map(|line| {
            line.find(STDERR_MARKER)
                .map(|i| &line[i + STDERR_MARKER.len()..])
        })
        .find_map(|json| serde_json::from_str(json).ok())
}

/// A complete post-mortem artifact: why the session died, what the
/// tracker side saw last, and — when the engine's last gasp made it out
/// through the stderr tail — what the engine side saw last.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlightDump {
    /// Which side produced the dump (`tracker` or `engine`).
    pub side: String,
    /// The error that triggered it, e.g. `EngineDied`, `SessionDegraded`.
    pub reason: String,
    /// The last MI command sent before the failure.
    pub last_command: String,
    /// The last pause reason the tracker observed.
    pub last_pause: String,
    /// Respawns consumed by the supervisor up to the dump.
    pub respawns: u64,
    /// This side's ring.
    pub log: FlightLog,
    /// The engine's last-gasp ring, when recovered from stderr.
    pub engine_log: Option<FlightLog>,
    /// Raw captured engine stderr tail.
    pub engine_stderr: String,
}

impl FlightDump {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".into())
    }

    pub fn from_json(text: &str) -> Option<FlightDump> {
        serde_json::from_str(text).ok()
    }

    /// Where dumps go unless a caller names a directory:
    /// `EASYTRACKER_DUMP_DIR`, falling back to the system temp dir.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("EASYTRACKER_DUMP_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
    }

    /// Writes the dump into `dir` under a collision-free name and
    /// returns the path.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "easytracker-flight-{}-{n}.json",
            std::process::id()
        ));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.to_json())?;
        f.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_entries_and_counts_drops() {
        let rec = FlightRecorder::new(2);
        rec.record("cmd", "Start");
        rec.record("cmd", "Resume");
        rec.record("pause", "Breakpoint");
        let log = rec.log();
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.dropped, 1);
        // Seqs are global, so the surviving window is identifiable.
        assert_eq!(log.entries[0].seq, 1);
        assert_eq!(log.entries[1].seq, 2);
        assert_eq!(log.last_of("cmd").unwrap().detail, "Resume");
        assert!(log.last_of("trap").is_none());
    }

    #[test]
    fn long_details_are_truncated() {
        let rec = FlightRecorder::new(4);
        rec.record("resp", "x".repeat(500));
        let log = rec.log();
        assert!(log.entries[0].detail.len() < 200);
        assert!(log.entries[0].detail.ends_with('…'));
    }

    #[test]
    fn last_gasp_survives_a_stderr_tail() {
        let rec = FlightRecorder::new(8);
        rec.record("cmd", "Step");
        rec.record("trap", "UseAfterFree at 0x40");
        let mut stderr = String::from("mi-server: something odd\n");
        stderr.push_str(&rec.last_gasp_line());
        stderr.push('\n');
        let log = extract_last_gasp(&stderr).expect("marked line parses");
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.last_of("trap").unwrap().detail, "UseAfterFree at 0x40");
        assert!(extract_last_gasp("no marker here\n").is_none());
    }

    #[test]
    fn dumps_roundtrip_and_write_to_disk() {
        let rec = FlightRecorder::new(8);
        rec.record("cmd", "Resume");
        rec.record("pause", "Exited(7)");
        let dump = FlightDump {
            side: "tracker".into(),
            reason: "EngineDied".into(),
            last_command: "Resume".into(),
            last_pause: "Exited(7)".into(),
            respawns: 1,
            log: rec.log(),
            engine_log: None,
            engine_stderr: String::new(),
        };
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(back.last_command, "Resume");
        assert_eq!(back.respawns, 1);
        assert_eq!(back.log.entries.len(), 2);
        let dir = std::env::temp_dir().join("obs-flight-test");
        let path = dump.write_to_dir(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let read = FlightDump::from_json(&text).unwrap();
        assert_eq!(read.reason, "EngineDied");
        let _ = std::fs::remove_file(path);
    }
}
