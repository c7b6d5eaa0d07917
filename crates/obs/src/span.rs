//! Span events and the caller-owned trace buffer.
//!
//! A [`TraceBuffer`] is explicit state, not a global: the CLI owns one
//! per invocation and writes it out once with
//! [`TraceBuffer::save_chrome`]. That keeps traces scoped to the run that
//! produced them and keeps the deterministic simulators honest — they
//! only ever *append* events with logical-cycle timestamps and never
//! read a clock. A long-lived daemon streams through a
//! [`SpanSink`](crate::SpanSink) instead of buffering.

use sharing_json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Which timeline a span lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Real time, in microseconds since the buffer was created.
    Wall,
    /// Simulated time, in cycles. Deterministic by construction.
    Logical,
}

/// The Chrome `trace_event` phase an event maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`"ph":"X"`): has a start and a duration.
    Complete,
    /// An instant marker (`"ph":"i"`).
    Instant,
    /// A counter sample (`"ph":"C"`): `args` carry the series values.
    Counter,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Display name.
    pub name: String,
    /// Category (comma-separated in Chrome tooling).
    pub cat: &'static str,
    /// Which clock `ts`/`dur` are measured on.
    pub clock: Clock,
    /// Event kind.
    pub phase: Phase,
    /// Start timestamp: wall µs since buffer creation, or logical cycles.
    pub ts: u64,
    /// Duration in the same unit as `ts` (0 for instants and counters).
    pub dur: u64,
    /// Track (Chrome `tid`) within the clock's process.
    pub track: u64,
    /// Structured payload, exported as the event's `args`.
    pub args: Vec<(String, Json)>,
}

impl SpanEvent {
    /// A complete logical-cycle span.
    #[must_use]
    pub fn logical(
        name: impl Into<String>,
        cat: &'static str,
        track: u64,
        ts_cycles: u64,
        dur_cycles: u64,
        args: Vec<(String, Json)>,
    ) -> Self {
        SpanEvent {
            name: name.into(),
            cat,
            clock: Clock::Logical,
            phase: Phase::Complete,
            ts: ts_cycles,
            dur: dur_cycles,
            track,
            args,
        }
    }

    /// A complete wall-clock span (timestamps relative to a buffer).
    #[must_use]
    pub fn wall(
        name: impl Into<String>,
        cat: &'static str,
        track: u64,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, Json)>,
    ) -> Self {
        SpanEvent {
            name: name.into(),
            cat,
            clock: Clock::Wall,
            phase: Phase::Complete,
            ts: ts_us,
            dur: dur_us,
            track,
            args,
        }
    }

    /// Serializes the span for the wire (worker span batches travelling
    /// back with job replies). Round-trips through
    /// [`SpanEvent::from_json`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let clock = match self.clock {
            Clock::Wall => "wall",
            Clock::Logical => "logical",
        };
        let phase = match self.phase {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("cat", Json::Str(self.cat.into())),
            ("clock", Json::Str(clock.into())),
            ("ph", Json::Str(phase.into())),
            ("ts", Json::Int(i128::from(self.ts))),
            ("dur", Json::Int(i128::from(self.dur))),
            ("track", Json::Int(i128::from(self.track))),
            ("args", Json::Obj(self.args.to_vec())),
        ])
    }

    /// Parses a span serialized by [`SpanEvent::to_json`]. The category
    /// is interned against the known set (unknown categories become
    /// `"remote"` — categories are display hints, not identity).
    #[must_use]
    pub fn from_json(v: &Json) -> Option<SpanEvent> {
        const KNOWN_CATS: &[&str] = &[
            "ssim", "ssimd", "sweep", "dispatch", "dc", "counter", "test", "remote",
        ];
        let cat_raw = v.get("cat")?.as_str()?;
        let cat = KNOWN_CATS
            .iter()
            .copied()
            .find(|k| *k == cat_raw)
            .unwrap_or("remote");
        let clock = match v.get("clock")?.as_str()? {
            "logical" => Clock::Logical,
            _ => Clock::Wall,
        };
        let phase = match v.get("ph")?.as_str()? {
            "i" => Phase::Instant,
            "C" => Phase::Counter,
            _ => Phase::Complete,
        };
        let as_u64 = |key: &str| -> Option<u64> { u64::try_from(v.get(key)?.as_int()?).ok() };
        let args = match v.get("args") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        };
        Some(SpanEvent {
            name: v.get("name")?.as_str()?.to_string(),
            cat,
            clock,
            phase,
            ts: as_u64("ts")?,
            dur: as_u64("dur")?,
            track: as_u64("track")?,
            args,
        })
    }
}

/// An append-only buffer of [`SpanEvent`]s plus the wall-clock epoch
/// they are measured against.
#[derive(Debug)]
pub struct TraceBuffer {
    base: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuffer {
    /// A fresh buffer; wall timestamps are measured from this moment.
    #[must_use]
    pub fn new() -> Self {
        TraceBuffer {
            base: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds of wall time since the buffer was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Appends one event.
    pub fn record(&self, ev: SpanEvent) {
        self.events.lock().expect("trace lock").push(ev);
    }

    /// Appends a complete logical-cycle span.
    pub fn record_logical(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: u64,
        ts_cycles: u64,
        dur_cycles: u64,
        args: Vec<(String, Json)>,
    ) {
        self.record(SpanEvent::logical(
            name, cat, track, ts_cycles, dur_cycles, args,
        ));
    }

    /// Appends a wall-clock counter sample (one series per arg).
    pub fn record_counter(&self, name: impl Into<String>, track: u64, args: Vec<(String, Json)>) {
        self.record(SpanEvent {
            name: name.into(),
            cat: "counter",
            clock: Clock::Wall,
            phase: Phase::Counter,
            ts: self.now_us(),
            dur: 0,
            track,
            args,
        });
    }

    /// Starts a wall-clock span; the span is recorded when the returned
    /// guard drops.
    #[must_use]
    pub fn span(&self, name: impl Into<String>, cat: &'static str, track: u64) -> SpanGuard<'_> {
        SpanGuard {
            buf: self,
            name: name.into(),
            cat,
            track,
            start_us: self.now_us(),
            args: Vec::new(),
        }
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the recorded events.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Exports the buffer as Chrome `trace_event` JSON (see
    /// [`crate::chrome`]).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(&self.snapshot())
    }

    /// Writes the Chrome trace JSON to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_chrome(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// RAII guard for a wall-clock span; records on drop.
pub struct SpanGuard<'a> {
    buf: &'a TraceBuffer,
    name: String,
    cat: &'static str,
    track: u64,
    start_us: u64,
    args: Vec<(String, Json)>,
}

impl SpanGuard<'_> {
    /// Attaches a structured argument (builder style).
    #[must_use]
    pub fn arg(mut self, key: impl Into<String>, value: Json) -> Self {
        self.args.push((key.into(), value));
        self
    }

    /// Attaches a structured argument in place (for mid-span data).
    pub fn add_arg(&mut self, key: impl Into<String>, value: Json) {
        self.args.push((key.into(), value));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.buf.now_us();
        self.buf.record(SpanEvent {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            clock: Clock::Wall,
            phase: Phase::Complete,
            ts: self.start_us,
            dur: end.saturating_sub(self.start_us),
            track: self.track,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_records_on_drop_with_args() {
        let buf = TraceBuffer::new();
        {
            let mut s = buf.span("work", "test", 3).arg("k", Json::Int(1));
            s.add_arg("v", Json::Str("x".into()));
        }
        let evs = buf.snapshot();
        assert_eq!(evs.len(), 1);
        let ev = &evs[0];
        assert_eq!(ev.name, "work");
        assert_eq!(ev.clock, Clock::Wall);
        assert_eq!(ev.phase, Phase::Complete);
        assert_eq!(ev.track, 3);
        assert_eq!(ev.args.len(), 2);
    }

    #[test]
    fn logical_spans_keep_their_cycle_timestamps() {
        let buf = TraceBuffer::new();
        buf.record_logical("epoch 4", "dc", 0, 40_000, 10_000, Vec::new());
        let evs = buf.snapshot();
        assert_eq!(evs[0].ts, 40_000);
        assert_eq!(evs[0].dur, 10_000);
        assert_eq!(evs[0].clock, Clock::Logical);
    }

    #[test]
    fn wall_timestamps_are_monotonic() {
        let buf = TraceBuffer::new();
        let a = buf.now_us();
        let b = buf.now_us();
        assert!(b >= a);
    }

    #[test]
    fn span_event_round_trips_through_wire_json() {
        let ev = SpanEvent::wall(
            "simulate job",
            "ssimd",
            7,
            1234,
            5678,
            vec![
                ("kind".into(), Json::Str("run".into())),
                ("trace".into(), Json::Int(42)),
            ],
        );
        let back = SpanEvent::from_json(&ev.to_json()).unwrap();
        assert_eq!(back.name, ev.name);
        assert_eq!(back.cat, "ssimd");
        assert_eq!(back.clock, ev.clock);
        assert_eq!(back.phase, ev.phase);
        assert_eq!((back.ts, back.dur, back.track), (ev.ts, ev.dur, ev.track));
        assert_eq!(back.args.len(), 2);

        // Unknown categories intern to "remote" rather than leaking.
        let mut odd = ev.to_json();
        if let Json::Obj(pairs) = &mut odd {
            for (k, v) in pairs.iter_mut() {
                if k == "cat" {
                    *v = Json::Str("something-else".into());
                }
            }
        }
        assert_eq!(SpanEvent::from_json(&odd).unwrap().cat, "remote");
    }
}
