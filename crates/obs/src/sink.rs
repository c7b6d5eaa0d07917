//! Streaming span sink: a bounded-buffer JSONL writer thread.
//!
//! [`TraceBuffer`](crate::TraceBuffer) accumulates spans in RAM and dumps
//! one Chrome-JSON blob at exit — fine for a CLI invocation, useless for
//! a daemon that runs for days or gets SIGKILLed by a chaos plan. A
//! [`SpanSink`] replaces the dump: spans are handed to a bounded channel
//! and a dedicated writer thread appends them to a file as JSON Lines,
//! one Chrome `trace_event` object per line, flushed per line. Killing
//! the process at any instant leaves a file that is truncated at worst
//! mid-way through its final line; every complete line is a valid event.
//!
//! The channel is bounded so a slow disk can never block the simulation
//! or dispatch hot paths: when the buffer is full the span is dropped
//! and counted in the process-global `obs_spans_dropped_total` counter
//! instead. [`jsonl_to_chrome`] re-wraps a (possibly truncated) JSONL
//! stream into the Chrome JSON Object Format for Perfetto.

use crate::span::SpanEvent;
use std::io::Write as _;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// Default bound on spans buffered between emitters and the writer.
pub const DEFAULT_SINK_CAPACITY: usize = 4096;

/// Name of the drop counter in the process-global registry.
pub const SPANS_DROPPED_COUNTER: &str = "obs_spans_dropped_total";

/// A handle to the writer thread. Emitting never blocks; closing (or
/// dropping) the sink drains the channel and flushes the file.
#[derive(Debug)]
pub struct SpanSink {
    tx: Option<SyncSender<SpanEvent>>,
    writer: Option<JoinHandle<std::io::Result<()>>>,
}

impl SpanSink {
    /// Opens (truncating) `path` and starts the writer thread with the
    /// default channel capacity.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &str) -> std::io::Result<Self> {
        SpanSink::with_capacity(path, DEFAULT_SINK_CAPACITY)
    }

    /// Opens (truncating) `path` with an explicit channel capacity
    /// (tests use tiny capacities to exercise the overflow path).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn with_capacity(path: &str, capacity: usize) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let (tx, rx) = sync_channel::<SpanEvent>(capacity.max(1));
        let writer = std::thread::Builder::new()
            .name("obs-span-sink".into())
            .spawn(move || {
                let mut out = std::io::BufWriter::new(file);
                while let Ok(ev) = rx.recv() {
                    // One complete event object per line, flushed before
                    // the next recv: a SIGKILL between lines loses
                    // nothing, and mid-write loses only the last line.
                    writeln!(out, "{}", crate::chrome::event_json(&ev))?;
                    out.flush()?;
                }
                out.flush()
            })
            .expect("spawn span-sink writer");
        Ok(SpanSink {
            tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// Hands one event to the writer. Never blocks: a full buffer (or a
    /// dead writer) drops the event, bumps `obs_spans_dropped_total`,
    /// and returns `false`.
    pub fn emit(&self, ev: SpanEvent) -> bool {
        let Some(tx) = &self.tx else {
            return false;
        };
        match tx.try_send(ev) {
            Ok(()) => true,
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                crate::registry::counter(SPANS_DROPPED_COUNTER).inc();
                false
            }
        }
    }

    /// Closes the channel, drains the writer, and flushes the file.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error the writer thread hit.
    pub fn close(mut self) -> std::io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        drop(self.tx.take());
        match self.writer.take() {
            Some(handle) => handle.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for SpanSink {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Re-wraps a JSONL span stream (as written by [`SpanSink`]) into the
/// Chrome JSON Object Format, prepending the two process-name metadata
/// records. An incomplete trailing line — the signature of a killed
/// writer — is skipped, as is anything else that does not parse; the
/// count of skipped lines is returned alongside the document.
#[must_use]
pub fn jsonl_to_chrome(jsonl: &str) -> (String, usize) {
    use sharing_json::Json;
    let mut events: Vec<Json> = vec![
        crate::chrome::metadata_json(crate::chrome::WALL_PID, "wall clock (us)"),
        crate::chrome::metadata_json(crate::chrome::LOGICAL_PID, "logical cycles"),
    ];
    let mut skipped = 0usize;
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(line) {
            Ok(v) => events.push(v),
            Err(_) => skipped += 1,
        }
    }
    let doc = Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_string();
    (doc, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharing_json::Json;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("obs-sink-{}-{name}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn ev(name: &str, ts: u64) -> SpanEvent {
        SpanEvent::wall(name, "test", 1, ts, 5, Vec::new())
    }

    #[test]
    fn writes_one_valid_json_line_per_event() {
        let path = tmp("basic");
        let sink = SpanSink::create(&path).unwrap();
        for i in 0..100u64 {
            assert!(sink.emit(ev(&format!("span-{i}"), i)));
        }
        sink.close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("every line is a complete event");
            assert_eq!(
                v.get("name").and_then(Json::as_str),
                Some(format!("span-{i}").as_str())
            );
            assert_eq!(v.get("ph").and_then(Json::as_str), Some("X"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_hammer_yields_valid_jsonl() {
        let path = tmp("hammer");
        let sink = std::sync::Arc::new(SpanSink::with_capacity(&path, 100_000).unwrap());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let sink = std::sync::Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        sink.emit(ev(&format!("t{t}-{i}"), i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        std::sync::Arc::try_unwrap(sink)
            .expect("all emitters done")
            .close()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8 * 500, "no interleaving, no lost lines");
        for line in lines {
            Json::parse(line).expect("concurrent emission must not interleave lines");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let path = tmp("overflow");
        // Capacity 1 and a writer racing the emitter: flood it so at
        // least one span must be dropped, then verify the counter moved
        // by exactly the number of `false` returns.
        let sink = SpanSink::with_capacity(&path, 1).unwrap();
        let before = crate::registry::counter(SPANS_DROPPED_COUNTER).get();
        let mut dropped = 0u64;
        for i in 0..10_000u64 {
            if !sink.emit(ev("flood", i)) {
                dropped += 1;
            }
        }
        sink.close().unwrap();
        let after = crate::registry::counter(SPANS_DROPPED_COUNTER).get();
        assert_eq!(after - before, dropped);
        let written = std::fs::read_to_string(&path).unwrap().lines().count() as u64;
        assert_eq!(written + dropped, 10_000, "every span written or counted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_stream_recovers_every_complete_line() {
        let path = tmp("truncated");
        let sink = SpanSink::create(&path).unwrap();
        for i in 0..50u64 {
            sink.emit(ev(&format!("s{i}"), i));
        }
        sink.close().unwrap();
        // Simulate a SIGKILL mid-write: chop the file mid final line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        let text = String::from_utf8(bytes).unwrap();
        let (doc, skipped) = jsonl_to_chrome(&text);
        assert_eq!(skipped, 1, "only the chopped line is lost");
        let v = Json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2 + 49, "metadata + every complete line");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn emit_after_close_is_rejected() {
        let path = tmp("closed");
        let mut sink = SpanSink::create(&path).unwrap();
        sink.shutdown().unwrap();
        assert!(!sink.emit(ev("late", 0)), "closed sink refuses spans");
        let _ = std::fs::remove_file(&path);
    }
}
