//! Wall-clock spans for timeline debugging (Chrome `trace_event` export).
//!
//! Spans are pure **annotation**: they carry real thread identities and real
//! durations, are only recorded at [`ObsLevel::Full`](crate::ObsLevel::Full), and
//! never participate in replay comparisons (unlike journal events, which are
//! logical and worker-anonymous).

/// The thread a span ran on — the trace timeline's row. Unlike journal
/// [`Track`](crate::Track)s, spans *do* name individual workers: a trace exists to
/// show the real interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tid {
    /// The batcher thread.
    Batcher,
    /// Inference worker `n`.
    Worker(u16),
    /// The background scrubber.
    Scrubber,
    /// The background re-keying task.
    Rotation,
    /// The scripted adversary.
    Adversary,
}

impl Tid {
    /// The thread's display name in the trace viewer.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Tid::Batcher => "batcher".to_string(),
            Tid::Worker(n) => format!("worker-{n}"),
            Tid::Scrubber => "scrubber".to_string(),
            Tid::Rotation => "rotation".to_string(),
            Tid::Adversary => "adversary".to_string(),
        }
    }

    /// A stable small integer for the trace `tid` field.
    #[must_use]
    pub fn ordinal(self) -> u32 {
        match self {
            Tid::Batcher => 0,
            Tid::Worker(n) => 100 + u32::from(n),
            Tid::Scrubber => 1,
            Tid::Rotation => 2,
            Tid::Adversary => 3,
        }
    }
}

/// One completed span: a named interval on a thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span name (`snapshot_build`, `infer`, `scrub_sweep`, …).
    pub name: &'static str,
    /// The thread the span ran on.
    pub tid: Tid,
    /// Start offset from the session's start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Batch index (logical clock) the span served, for cross-referencing with the
    /// journal.
    pub batch: u64,
}

/// A pending span: either armed with its start offset, or disabled (the level was
/// below `Full` when it was opened). Close it with
/// [`ObsShard::span_end`](crate::ObsShard::span_end); dropping it unclosed records
/// nothing.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with span_end, or nothing is recorded"]
pub struct SpanTimer(pub(crate) Option<u64>);

impl SpanTimer {
    /// A timer that records nothing when closed.
    pub fn disabled() -> Self {
        SpanTimer(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_names_and_ordinals_are_distinct() {
        let tids = [
            Tid::Batcher,
            Tid::Worker(0),
            Tid::Worker(1),
            Tid::Scrubber,
            Tid::Rotation,
            Tid::Adversary,
        ];
        let mut names: Vec<String> = tids.iter().map(|t| t.name()).collect();
        let mut ordinals: Vec<u32> = tids.iter().map(|t| t.ordinal()).collect();
        names.sort();
        names.dedup();
        ordinals.sort_unstable();
        ordinals.dedup();
        assert_eq!(names.len(), tids.len());
        assert_eq!(ordinals.len(), tids.len());
    }
}
