//! Per-node flight recorder: post-mortem dumps of the last K trace
//! events plus a metrics snapshot, written when something goes wrong —
//! a crash point fires, a recovery re-drive fails, or a bench SLO is
//! breached.
//!
//! The recorder rides the existing trace ring: it does not buffer
//! anything itself. A dump filters the sink to the affected node's most
//! recent `last_k` events and serializes them with a reason header and
//! the full metrics snapshot, as one self-contained JSON file under the
//! configured directory. Dump files are numbered in fire order, so the
//! 29-cell fault matrix leaves one artifact per crash cell.
//!
//! Dumping must never make a bad situation worse: every I/O error is
//! swallowed (`None` returned) and nothing here panics — crash handlers
//! call this mid-unwind-setup, where a second panic aborts the process.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::{EventKind, Nanos, Obs};

/// Flight-recorder configuration + dump counter.
#[derive(Debug)]
pub(crate) struct FlightState {
    dir: PathBuf,
    last_k: usize,
    dumps: u64,
}

/// Handle returned by [`Obs::flight_dump`]: where the dump landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Path of the written JSON artifact.
    pub path: PathBuf,
    /// Dump ordinal within the run (0-based).
    pub ordinal: u64,
    /// Events included.
    pub events: usize,
}

fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// JSON string escaping for names, reasons and details in the exports.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The body of a JSON object of named counts, in map order.
fn json_object<K: std::fmt::Display>(counts: &BTreeMap<K, u64>) -> String {
    let fields: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    fields.join(",")
}

impl Obs {
    /// Arms the flight recorder: dumps go to `dir` (created on demand),
    /// each carrying the affected node's `last_k` most recent events.
    pub fn configure_flight(&self, dir: impl AsRef<Path>, last_k: usize) {
        *self.flight.borrow_mut() = Some(FlightState {
            dir: dir.as_ref().to_path_buf(),
            last_k: last_k.max(1),
            dumps: 0,
        });
    }

    /// True when [`Obs::configure_flight`] was called.
    pub fn flight_armed(&self) -> bool {
        self.flight.borrow().is_some()
    }

    /// Writes one post-mortem dump for `node` at virtual time `ts`:
    /// `reason` is the trigger class (`"crash.fired"`,
    /// `"recovery.redrive_failed"`, `"slo.breach"`), `detail` the specific
    /// crash point or breach description. No-op (returns `None`) when the
    /// recorder is unarmed or any I/O fails — this is called from failure
    /// paths and must never add a second failure.
    pub fn flight_dump(
        &self,
        node: u32,
        ts: Nanos,
        reason: &str,
        detail: &str,
    ) -> Option<FlightDump> {
        let (dir, last_k, ordinal) = {
            let mut flight = self.flight.try_borrow_mut().ok()?;
            let state = flight.as_mut()?;
            let ordinal = state.dumps;
            state.dumps += 1;
            (state.dir.clone(), state.last_k, ordinal)
        };

        let events = self.events();
        let dropped = self.dropped();
        // The affected node's most recent window; node 0 (untagged) events
        // are kept too when dumping for node 0.
        let mine: Vec<_> = events.iter().filter(|e| e.node == node).collect();
        let tail = &mine[mine.len().saturating_sub(last_k)..];

        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"flight_dump\": {{\"reason\": \"{}\", \"detail\": \"{}\", \"node\": {}, \"ts\": {}, \"ordinal\": {}, \"dropped_events\": {}}},\n",
            escape(reason),
            escape(detail),
            node,
            ts,
            ordinal,
            dropped
        ));
        out.push_str("  \"events\": [\n");
        for (i, e) in tail.iter().enumerate() {
            let ph = match e.kind {
                EventKind::Enter => "B",
                EventKind::Exit => "E",
                EventKind::Instant => "i",
            };
            out.push_str(&format!(
                "    {{\"seq\": {}, \"ts\": {}, \"fiber\": {}, \"txn\": {}, \"ph\": \"{}\", \"phase\": \"{}\"",
                e.seq, e.ts, e.fiber, e.txn, ph, e.phase
            ));
            if !e.args.is_empty() {
                let args: Vec<String> = e
                    .args
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                out.push_str(&format!(", \"args\": {{{}}}", args.join(", ")));
            }
            out.push_str(if i + 1 < tail.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ],\n");

        let snap = self.metrics().snapshot();
        let (counters, gauges) = (json_object(&snap.counters), json_object(&snap.gauges));
        out.push_str(&format!("  \"counters\": {{{counters}}},\n"));
        out.push_str(&format!("  \"gauges\": {{{gauges}}}\n}}\n"));

        let file = dir.join(format!("flight-{ordinal:04}-{}.json", sanitize(reason)));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&file, out).ok()?;
        Some(FlightDump {
            path: file,
            ordinal,
            events: tail.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Phase};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("treaty-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unarmed_recorder_is_a_noop() {
        let obs = Obs::new(16);
        assert!(!obs.flight_armed());
        assert!(obs.flight_dump(1, 10, "crash.fired", "x").is_none());
    }

    #[test]
    fn dump_keeps_last_k_events_of_the_node() {
        let dir = temp_dir("lastk");
        let obs = Obs::new(64);
        obs.configure_flight(&dir, 3);
        for i in 0..5 {
            obs.record(
                EventKind::Instant,
                i * 10,
                1,
                0,
                0,
                Phase::StoreFlush,
                &[("n", i)],
            );
        }
        obs.record(EventKind::Instant, 99, 2, 0, 0, Phase::NetRecv, &[]);
        obs.metrics().counter_add(crate::Counter::CrashFired, 1);
        let dump = obs
            .flight_dump(1, 100, "crash.fired", "clog.pre_decision_append")
            .expect("armed recorder dumps");
        assert_eq!(dump.events, 3, "only the last K of node 1");
        let body = std::fs::read_to_string(&dump.path).unwrap();
        assert!(body.contains("\"reason\": \"crash.fired\""));
        assert!(body.contains("clog.pre_decision_append"));
        assert!(body.contains("\"crash.fired\": 1"));
        assert!(!body.contains("net.recv"), "foreign-node events excluded");
        // Oldest two node-1 events were trimmed.
        assert!(!body.contains("\"ts\": 0,"));
        assert!(body.contains("\"ts\": 40"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dumps_are_numbered_in_fire_order() {
        let dir = temp_dir("order");
        let obs = Obs::new(16);
        obs.configure_flight(&dir, 8);
        obs.record(EventKind::Instant, 1, 1, 0, 0, Phase::CrashFired, &[]);
        let a = obs.flight_dump(1, 1, "crash.fired", "a").unwrap();
        let b = obs.flight_dump(1, 2, "slo.breach", "b").unwrap();
        assert_eq!(a.ordinal, 0);
        assert_eq!(b.ordinal, 1);
        assert!(a.path.ends_with("flight-0000-crash_fired.json"));
        assert!(b.path.ends_with("flight-0001-slo_breach.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\u{1}"), "x\\ny\\u0001");
    }
}
