//! Structured trace timeline: timestamped span open/close events.
//!
//! Where [`crate::span`] aggregates (count/total/min/max per path), the
//! timeline keeps the *sequence*: every span open and close lands in a
//! bounded, mutex-buffered event log with a monotonic timestamp (offset
//! from the log's epoch), the full `/`-joined parent chain, and a compact
//! per-process thread id. The log exports as JSONL (one event per line)
//! or as Chrome `trace_event` JSON loadable in `chrome://tracing` and
//! Perfetto.
//!
//! Bounding: an open is admitted only while the buffer has room for it,
//! its own close, and the close of every span admitted before it that is
//! still open; otherwise it is dropped (and counted), and its close is
//! dropped too. The recorded stream therefore keeps opens and closes
//! balanced, and the log never holds more than its capacity of events.

use crate::lockorder::{self, TrackedMutex};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default event capacity of a [`Timeline`].
pub const DEFAULT_TIMELINE_CAPACITY: usize = 65_536;

/// Compact per-process thread id (0, 1, 2, … in first-use order); stable
/// for the lifetime of the thread, unlike `std::thread::ThreadId` it is
/// a plain small integer suitable for trace export.
pub fn current_thread_id() -> u64 {
    static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    }
    THREAD_ID.with(|id| *id)
}

/// Whether a [`TraceEvent`] marks a span entry or exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span entered.
    Open,
    /// Span exited.
    Close,
}

// Hand-written (de)serialization: the JSONL format uses lowercase
// "open"/"close", which the derive macro cannot rename.
impl Serialize for EventKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(match self {
            EventKind::Open => "open",
            EventKind::Close => "close",
        })
    }
}

impl<'de> Deserialize<'de> for EventKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            serde::Content::Str(s) if s == "open" => Ok(EventKind::Open),
            serde::Content::Str(s) if s == "close" => Ok(EventKind::Close),
            other => Err(serde::de::Error::custom(format!(
                "expected \"open\" or \"close\", found {other:?}"
            ))),
        }
    }
}

/// One timestamped span boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Microseconds since the timeline's epoch (monotonic).
    pub ts_micros: u64,
    /// Open or close.
    pub kind: EventKind,
    /// Full `/`-joined span path — the parent chain is the path minus its
    /// last segment.
    pub path: String,
    /// Compact per-process thread id (see [`current_thread_id`]).
    pub thread: u64,
}

#[derive(Debug)]
struct Buffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Admitted opens whose close has not landed yet: each holds one
    /// reserved slot.
    unclosed: usize,
}

/// Bounded buffered event log; one per [`crate::SpanRecorder`].
#[derive(Debug)]
pub struct Timeline {
    epoch: Instant,
    enabled: AtomicBool,
    dropped: AtomicU64,
    buffer: TrackedMutex<Buffer>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }
}

impl Timeline {
    /// New enabled timeline holding at most `capacity` events; its epoch
    /// is the moment of construction.
    pub fn with_capacity(capacity: usize) -> Self {
        Timeline {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            dropped: AtomicU64::new(0),
            buffer: TrackedMutex::new(
                &lockorder::OBS_TIMELINE,
                Buffer { events: Vec::new(), capacity, unclosed: 0 },
            ),
        }
    }

    /// Microseconds elapsed since this timeline's epoch.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Turn event recording on or off (span *aggregation* is unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Change the capacity bound (existing events are kept, even past a
    /// lowered bound).
    pub fn set_capacity(&self, capacity: usize) {
        self.buffer.lock().capacity = capacity;
    }

    /// Record a span open. Returns `true` when the event was admitted;
    /// the caller must pass that flag back to [`Timeline::close`] so a
    /// dropped open never produces an orphan close.
    pub fn open(&self, path: &str) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut buf = self.buffer.lock();
        // This open, its close, and the reserved closes of spans in flight.
        if buf.events.len() + buf.unclosed + 2 > buf.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        buf.unclosed += 1;
        // Stamped under the lock, so buffer order is timestamp order.
        buf.events.push(TraceEvent {
            ts_micros: self.now_micros(),
            kind: EventKind::Open,
            path: path.to_string(),
            thread: current_thread_id(),
        });
        true
    }

    /// Record a span close. `admitted` is the return of the matching
    /// [`Timeline::open`]; the close of an admitted open always lands in
    /// the slot its open reserved, keeping the stream balanced.
    pub fn close(&self, path: &str, admitted: bool) {
        if !admitted {
            return;
        }
        // Stamped under the lock, so buffer order is timestamp order.
        let mut buf = self.buffer.lock();
        buf.unclosed = buf.unclosed.saturating_sub(1);
        buf.events.push(TraceEvent {
            ts_micros: self.now_micros(),
            kind: EventKind::Close,
            path: path.to_string(),
            thread: current_thread_id(),
        });
    }

    /// Point-in-time copy of the event log.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let buf = self.buffer.lock();
        TimelineSnapshot {
            events: buf.events.clone(),
            capacity: buf.capacity as u64,
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Drop all events and the drop counter (test isolation).
    pub fn clear(&self) {
        self.buffer.lock().events.clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// Serializable copy of a [`Timeline`]'s event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSnapshot {
    /// Events in admission order.
    pub events: Vec<TraceEvent>,
    /// Capacity bound at snapshot time.
    pub capacity: u64,
    /// Opens dropped because the buffer was full.
    pub dropped: u64,
}

impl TimelineSnapshot {
    /// One JSON object per line, in admission order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            // TraceEvent contains no map types, so serialization cannot
            // fail; an empty line would only hide an impossible error.
            if let Ok(line) = serde_json::to_string(e) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (the object form with a `traceEvents`
    /// array), loadable in `chrome://tracing` and Perfetto. Opens map to
    /// `ph:"B"`, closes to `ph:"E"`; timestamps are the native
    /// microseconds the format expects.
    pub fn to_chrome_trace(&self) -> ChromeTrace {
        let trace_events = self
            .events
            .iter()
            .map(|e| ChromeTraceEvent {
                name: e.path.rsplit('/').next().unwrap_or(&e.path).to_string(),
                cat: "span".to_string(),
                ph: match e.kind {
                    EventKind::Open => "B".to_string(),
                    EventKind::Close => "E".to_string(),
                },
                ts: e.ts_micros,
                pid: 1,
                tid: e.thread,
                args: ChromeTraceArgs { path: e.path.clone() },
            })
            .collect();
        ChromeTrace { trace_events, display_time_unit: "ms".to_string() }
    }

    /// Check well-formedness: on every thread, events must obey stack
    /// discipline — each close matches the most recent unclosed open on
    /// the same thread (children close before parents), and no span is
    /// left open. Returns the first violation as an error string.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            let stack = stacks.entry(e.thread).or_default();
            match e.kind {
                EventKind::Open => stack.push(&e.path),
                EventKind::Close => match stack.pop() {
                    Some(top) if top == e.path => {}
                    Some(top) => {
                        return Err(format!(
                            "event {i}: close of {:?} on thread {} but innermost open is {top:?}",
                            e.path, e.thread
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: close of {:?} on thread {} with no open span",
                            e.path, e.thread
                        ))
                    }
                },
            }
        }
        for (thread, stack) in stacks {
            if let Some(path) = stack.last() {
                return Err(format!("span {path:?} on thread {thread} was never closed"));
            }
        }
        Ok(())
    }
}

/// Top-level Chrome `trace_event` JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// The event array (`ph:"B"`/`ph:"E"` duration events).
    pub trace_events: Vec<ChromeTraceEvent>,
    /// Display hint for viewers.
    pub display_time_unit: String,
}

// Hand-written (de)serialization: the trace_event format mandates
// camelCase keys (`traceEvents`, `displayTimeUnit`), which the derive
// macro cannot rename.
impl Serialize for ChromeTrace {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(serde::Content::Map(vec![
            ("traceEvents".to_string(), serde::to_content(&self.trace_events)),
            ("displayTimeUnit".to_string(), serde::to_content(&self.display_time_unit)),
        ]))
    }
}

impl<'de> Deserialize<'de> for ChromeTrace {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            serde::Content::Map(mut entries) => Ok(ChromeTrace {
                trace_events: serde::de::take_field(&mut entries, "traceEvents")
                    .map_err(serde::de::Error::custom)?,
                display_time_unit: serde::de::take_field(&mut entries, "displayTimeUnit")
                    .map_err(serde::de::Error::custom)?,
            }),
            other => {
                Err(serde::de::Error::custom(format!("expected trace object, found {other:?}")))
            }
        }
    }
}

/// One Chrome `trace_event` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTraceEvent {
    /// Leaf span name (the last path segment).
    pub name: String,
    /// Event category (always `"span"`).
    pub cat: String,
    /// Phase: `"B"` (begin) or `"E"` (end).
    pub ph: String,
    /// Microseconds since the timeline epoch.
    pub ts: u64,
    /// Process id (always 1 — one process).
    pub pid: u64,
    /// Compact thread id.
    pub tid: u64,
    /// Extra payload: the full span path.
    pub args: ChromeTraceArgs,
}

/// `args` payload of a [`ChromeTraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTraceArgs {
    /// Full `/`-joined span path (parent chain).
    pub path: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_round_trip_balances() {
        let t = Timeline::default();
        let a = t.open("a");
        let b = t.open("a/b");
        t.close("a/b", b);
        t.close("a", a);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 0);
        snap.validate().expect("balanced nested events validate");
        // JSONL: one line per event, each parseable.
        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let _: TraceEvent = serde_json::from_str(line).expect("line parses");
        }
    }

    #[test]
    fn capacity_drops_whole_spans_keeping_balance() {
        let t = Timeline::with_capacity(4);
        let a = t.open("a"); // admitted: 1 event, 1 close reserved
        let b = t.open("a/b"); // admitted: 2 events, 2 closes reserved (full)
        let c = t.open("a/b/c"); // dropped: no room for it and its close
        assert!(a && b && !c);
        t.close("a/b/c", c); // no orphan close
        t.close("a/b", b); // admitted closes land in their reserved slots
        let d = t.open("a/d"); // dropped: a's close still holds the last slot
        assert!(!d);
        t.close("a/d", d);
        t.close("a", a);
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.events.len(), 4);
        assert!(snap.events.len() as u64 <= snap.capacity, "never past capacity");
        snap.validate().expect("dropped span leaves no imbalance");
    }

    #[test]
    fn concurrent_spans_never_exceed_capacity() {
        // Odd, so the buffer fills with a span still open.
        let t = Timeline::with_capacity(63);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let a = t.open("a");
                        let b = t.open("a/b");
                        t.close("a/b", b);
                        t.close("a", a);
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert!(snap.events.len() <= 63, "{} events", snap.events.len());
        assert!(snap.dropped > 0);
        snap.validate().expect("concurrent drops keep every thread balanced");
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let t = Timeline::default();
        t.set_enabled(false);
        let admitted = t.open("a");
        t.close("a", admitted);
        assert!(!admitted);
        assert!(t.snapshot().events.is_empty());
        assert_eq!(t.snapshot().dropped, 0, "disabled is not 'dropped'");
    }

    #[test]
    fn chrome_trace_maps_phases_and_round_trips() {
        let t = Timeline::default();
        let a = t.open("train");
        let b = t.open("train/embed");
        t.close("train/embed", b);
        t.close("train", a);
        let chrome = t.snapshot().to_chrome_trace();
        let phases: Vec<&str> = chrome.trace_events.iter().map(|e| e.ph.as_str()).collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
        assert_eq!(chrome.trace_events[1].name, "embed", "name is the leaf segment");
        assert_eq!(chrome.trace_events[1].args.path, "train/embed");
        let json = serde_json::to_string(&chrome).expect("serializes");
        assert!(json.contains("\"traceEvents\""));
        let back: ChromeTrace = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, chrome);
    }

    #[test]
    fn validate_rejects_mismatched_and_unclosed() {
        let bad = TimelineSnapshot {
            events: vec![
                TraceEvent { ts_micros: 0, kind: EventKind::Open, path: "a".into(), thread: 0 },
                TraceEvent { ts_micros: 1, kind: EventKind::Close, path: "b".into(), thread: 0 },
            ],
            capacity: 10,
            dropped: 0,
        };
        assert!(bad.validate().is_err(), "mismatched close must fail");
        let unclosed = TimelineSnapshot {
            events: vec![TraceEvent {
                ts_micros: 0,
                kind: EventKind::Open,
                path: "a".into(),
                thread: 3,
            }],
            capacity: 10,
            dropped: 0,
        };
        assert!(unclosed.validate().is_err(), "unclosed span must fail");
    }

    #[test]
    fn timestamps_are_monotone_per_admission_order() {
        let t = Timeline::default();
        let a = t.open("a");
        let b = t.open("a/b");
        t.close("a/b", b);
        t.close("a", a);
        let snap = t.snapshot();
        for w in snap.events.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }
}
