//! Chrome `trace_event` export: turns an [`ObsReport`]'s spans (and the journal's
//! strike/detection instants) into a JSON document loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, plus the validator CI runs
//! against the emitted artifact.
//!
//! Format notes (the subset we emit):
//! * one `"M"` (metadata) event per thread names its timeline row;
//! * one `"X"` (complete) event per span, with `ts`/`dur` in **microseconds**;
//! * one `"i"` (instant) event per journal strike / detection / rotation publish,
//!   so logical moments line up against the measured spans.

use std::collections::BTreeMap;

use crate::journal::{EventKind, RotationKind, Track};
use crate::json::JsonValue;
use crate::shard::ObsReport;
use crate::span::Tid;

/// The process id we put on every event (one serving session = one "process").
const PID: u32 = 1;

/// The journal's logical tracks get their own rows, offset well above the span
/// rows so ordinals never collide.
const JOURNAL_TID: u32 = 1000;

/// A `"M"` metadata event naming the process or thread row `tid`.
fn metadata(tid: u32, kind: &str, label: &str) -> JsonValue {
    JsonValue::object()
        .with("ph", "M")
        .with("pid", PID)
        .with("tid", tid)
        .with("name", kind)
        .with("args", JsonValue::object().with("name", label))
}

/// The instant label of a journal event the trace marks, if it marks it.
fn instant_label(kind: &EventKind) -> Option<&'static str> {
    match kind {
        EventKind::Strike { .. } => Some("strike"),
        EventKind::Detect { .. } => Some("detect"),
        EventKind::Rotation(RotationKind::Published { .. }) => Some("rotation.published"),
        _ => None,
    }
}

/// Builds `report`'s Chrome `trace_event` document ([`JsonValue::render`] writes it).
///
/// `process_name` labels the whole timeline (e.g. the scenario name). Spans become
/// `"X"` events on their thread's row; journal strikes, detections and rotation
/// publishes become `"i"` instants on the logical tracks so the viewer shows *when*
/// the logical story happened relative to the measured work.
#[must_use]
pub fn chrome_trace(report: &ObsReport, process_name: &str) -> JsonValue {
    let mut events = vec![metadata(0, "process_name", process_name)];

    // Name every thread row that will carry spans.
    let mut named: Vec<Tid> = report.spans.iter().map(|s| s.tid).collect();
    named.sort();
    named.dedup();
    for tid in &named {
        events.push(metadata(tid.ordinal(), "thread_name", &tid.name()));
    }

    for span in &report.spans {
        events.push(
            JsonValue::object()
                .with("ph", "X")
                .with("pid", PID)
                .with("tid", span.tid.ordinal())
                .with("name", span.name)
                .with("ts", span.start_ns as f64 / 1_000.0)
                .with("dur", span.dur_ns as f64 / 1_000.0)
                .with("args", JsonValue::object().with("batch", span.batch)),
        );
    }

    let mut tracks: Vec<Track> = Vec::new();
    for event in report.journal.events() {
        let Some(label) = instant_label(&event.kind) else {
            continue;
        };
        events.push(
            JsonValue::object()
                .with("ph", "i")
                .with("pid", PID)
                .with("tid", JOURNAL_TID + event.track as u32)
                .with("name", label)
                .with("ts", event.at_seconds * 1e6)
                .with("s", "t")
                .with("args", JsonValue::object().with("batch", event.batch)),
        );
        tracks.push(event.track);
    }
    tracks.sort();
    tracks.dedup();
    for track in tracks {
        let label = format!("journal:{}", track.name());
        events.push(metadata(JOURNAL_TID + track as u32, "thread_name", &label));
    }

    JsonValue::object()
        .with("traceEvents", events)
        .with("displayTimeUnit", "ms")
        .with(
            "otherData",
            JsonValue::object().with("level", report.level.name()),
        )
}

/// What [`validate_chrome_trace`] found: span counts per named thread row, and per
/// row and span name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Complete (`"X"`) span count per thread name (from the `thread_name`
    /// metadata events).
    pub spans_by_thread: BTreeMap<String, usize>,
    /// Complete span count per `(thread name, span name)`.
    pub spans_by_name: BTreeMap<(String, String), usize>,
    /// Total `"X"` events.
    pub total_spans: usize,
    /// Total `"i"` instant events.
    pub total_instants: usize,
}

impl TraceSummary {
    /// Spans recorded on the named thread (0 when the row is absent).
    #[must_use]
    pub fn spans_on(&self, thread: &str) -> usize {
        self.spans_by_thread.get(thread).copied().unwrap_or(0)
    }

    /// Spans called `name` recorded on the named thread.
    #[must_use]
    pub fn spans_named(&self, thread: &str, name: &str) -> usize {
        self.spans_by_name
            .get(&(thread.to_owned(), name.to_owned()))
            .copied()
            .unwrap_or(0)
    }
}

/// Parses and validates a Chrome `trace_event` document produced by
/// [`chrome_trace`]: the JSON must parse, `traceEvents` must exist, every `"X"`
/// event needs `name`/`ts`/`dur`/`tid`, and every span's `tid` must have a
/// `thread_name` metadata row. Returns span counts per thread and per thread and
/// span name for the caller's own coverage assertions (`run_serve --trace`
/// requires ≥ 1 span per worker plus a `scrub_sweep`, a `rotation_tick` and a
/// `strike_mount` span on the batcher row).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = JsonValue::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) == Some("M")
            && event.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        {
            let tid = event
                .get("tid")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| "thread_name metadata without tid".to_string())?;
            let name = event
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "thread_name metadata without args.name".to_string())?;
            names.insert(tid as u64, name.to_string());
        }
    }
    let mut summary = TraceSummary::default();
    for (index, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {index} has no ph"))?;
        match ph {
            "X" => {
                let tid = event
                    .get("tid")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("span {index} has no tid"))?;
                for field in ["ts", "dur"] {
                    let value = event
                        .get(field)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("span {index} has no {field}"))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("span {index} has invalid {field} {value}"));
                    }
                }
                let thread = names
                    .get(&(tid as u64))
                    .ok_or_else(|| format!("span {index} on unnamed tid {tid}"))?;
                let name = event
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("span {index} has no name"))?;
                *summary.spans_by_thread.entry(thread.clone()).or_insert(0) += 1;
                *summary
                    .spans_by_name
                    .entry((thread.clone(), name.to_owned()))
                    .or_insert(0) += 1;
                summary.total_spans += 1;
            }
            "i" => summary.total_instants += 1,
            "M" => {}
            other => return Err(format!("event {index} has unsupported ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Event, EventJournal};
    use crate::level::ObsLevel;
    use crate::span::Span;

    fn report_with_spans() -> ObsReport {
        let mut report = ObsReport::empty(ObsLevel::Full);
        report.spans = vec![
            Span {
                name: "snapshot_build",
                tid: Tid::Worker(0),
                start_ns: 1_000,
                dur_ns: 5_000,
                batch: 0,
            },
            Span {
                name: "infer",
                tid: Tid::Worker(1),
                start_ns: 7_000,
                dur_ns: 2_000,
                batch: 1,
            },
            Span {
                name: "scrub_sweep",
                tid: Tid::Batcher,
                start_ns: 10_000,
                dur_ns: 1_000,
                batch: 4,
            },
            Span {
                name: "strike_mount",
                tid: Tid::Batcher,
                start_ns: 12_000,
                dur_ns: 1_000,
                batch: 4,
            },
        ];
        report.journal = EventJournal::from_events(
            vec![Event {
                batch: 2,
                track: Track::Strike,
                kind: EventKind::Strike {
                    flips_landed: 1,
                    flips_missed: 0,
                    rows_hammered: 1,
                },
                at_seconds: 0.001,
            }],
            16,
        );
        report
    }

    #[test]
    fn emitted_traces_validate_round_trip() {
        // Quotes, backslashes and newlines in names must come back out verbatim.
        let (process, span) = ("unit \"test\" \\ row\nnext", "snapshot \"build\" \\\n");
        let mut report = report_with_spans();
        report.spans[0].name = span;
        let trace = chrome_trace(&report, process).render();
        let summary = validate_chrome_trace(&trace).expect("own trace must validate");
        let doc = JsonValue::parse(&trace).expect("own trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        fn name_of(e: &JsonValue) -> Option<&str> {
            e.get("name").and_then(JsonValue::as_str)
        }
        let label = events[0].get("args").and_then(name_of);
        assert_eq!(label, Some(process));
        assert!(events.iter().any(|e| name_of(e) == Some(span)));
        assert_eq!(summary.total_spans, 4);
        assert_eq!(summary.spans_on("worker-0"), 1);
        assert_eq!(summary.spans_on("worker-1"), 1);
        assert_eq!(summary.spans_on("batcher"), 2);
        // Counts per (row, span name), the escaped name included verbatim.
        assert_eq!(summary.spans_named("worker-0", span), 1);
        assert_eq!(summary.spans_named("worker-1", "infer"), 1);
        assert_eq!(summary.spans_named("batcher", "scrub_sweep"), 1);
        assert_eq!(summary.spans_named("batcher", "strike_mount"), 1);
        assert_eq!(summary.spans_named("batcher", "rotation_tick"), 0);
        assert_eq!(summary.spans_named("worker-0", "infer"), 0);
        assert_eq!(summary.total_instants, 1);
    }

    #[test]
    fn validation_rejects_garbage_and_unnamed_tids() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"foo":1}"#).is_err());
        let unnamed = r#"{"traceEvents":[{"ph":"X","pid":1,"tid":7,"name":"s","ts":1,"dur":1}]}"#;
        let err = validate_chrome_trace(unnamed).expect_err("unnamed tid");
        assert!(err.contains("unnamed tid"), "got {err}");
        let no_dur = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":7,"name":"thread_name","args":{"name":"w"}},
            {"ph":"X","pid":1,"tid":7,"name":"s","ts":1}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
        let no_name = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":7,"name":"thread_name","args":{"name":"w"}},
            {"ph":"X","pid":1,"tid":7,"ts":1,"dur":1}]}"#;
        let err = validate_chrome_trace(no_name).expect_err("unnamed span");
        assert!(err.contains("no name"), "got {err}");
    }
}
