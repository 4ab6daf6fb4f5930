//! Per-thread observability shards and the session core they flush into.
//!
//! A thread owns its [`ObsShard`] outright — recording is plain `&mut self` work
//! with no locks — and folds it into the shared [`ObsCore`] at natural barrier
//! points (every serve engine thread flushes once per batch). The hot,
//! level-gated recording facade lives in [`crate::hooks`]; this
//! module holds construction, flushing and the final report.

use std::sync::Mutex;

use crate::clock::Stopwatch;
use crate::journal::{Event, EventJournal};
use crate::level::{ObsConfig, ObsLevel};
use crate::registry::{Labels, MetricsRegistry};
use crate::span::{Span, Tid};

/// A per-thread observability shard: a private registry slice, journal events and
/// spans, plus the session anchors (level, start time, thread identity).
#[derive(Debug)]
pub struct ObsShard {
    pub(crate) level: ObsLevel,
    pub(crate) tid: Tid,
    pub(crate) start: Stopwatch,
    pub(crate) registry: MetricsRegistry,
    pub(crate) events: Vec<Event>,
    pub(crate) spans: Vec<Span>,
}

impl ObsShard {
    /// A detached shard (not bound to an [`ObsCore`]): useful for tests and for
    /// single-threaded recorders that will be merged by hand.
    #[must_use]
    pub fn detached(level: ObsLevel, tid: Tid) -> Self {
        ObsShard {
            level,
            tid,
            start: Stopwatch::start(),
            registry: MetricsRegistry::new(),
            events: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The shard's recording level.
    #[must_use]
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// The thread identity spans recorded through this shard carry.
    #[must_use]
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Read access to the shard's private registry (tests, hand-merging).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Adds `n` to the counter at `(name, labels)` **regardless of level**.
    ///
    /// For telemetry-class metrics that are part of a subsystem's contractual
    /// output (the serve duty cycles, the latency histogram feeding
    /// `BENCH_serve.json`) — these must survive `ObsLevel::Off`, which only
    /// disables *profiling* instrumentation. Use the gated
    /// [`add`](Self::add) for everything else.
    pub fn force_add(&mut self, name: &'static str, labels: Labels, n: u64) {
        self.registry.add_counter(name, labels, n);
    }

    /// Records a nanosecond histogram sample **regardless of level** (see
    /// [`force_add`](Self::force_add)).
    pub fn force_record_ns(&mut self, name: &'static str, labels: Labels, ns: u64) {
        self.registry.record_ns(name, labels, ns);
    }

    /// Drains the shard's accumulated state, returning `(registry, events, spans)`
    /// and leaving the shard empty and reusable.
    pub fn drain(&mut self) -> (MetricsRegistry, Vec<Event>, Vec<Span>) {
        (
            std::mem::take(&mut self.registry),
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.spans),
        )
    }
}

/// Session-wide accumulated state behind the core's one mutex.
#[derive(Debug, Default)]
struct CoreInner {
    registry: MetricsRegistry,
    events: Vec<Event>,
    spans: Vec<Span>,
}

/// The session-wide observability core: shards are created from it and flushed
/// back into it; [`finish`](ObsCore::finish) folds everything into an
/// [`ObsReport`].
///
/// The mutex is only touched at shard flush points — never per-sample.
#[derive(Debug)]
pub struct ObsCore {
    config: ObsConfig,
    start: Stopwatch,
    inner: Mutex<CoreInner>,
}

impl ObsCore {
    /// Creates a core; the session clock starts now.
    #[must_use]
    pub fn new(config: ObsConfig) -> Self {
        ObsCore {
            config,
            start: Stopwatch::start(),
            inner: Mutex::new(CoreInner::default()),
        }
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// The session's start anchor (shards created by hand can share it).
    #[must_use]
    pub fn start(&self) -> Stopwatch {
        self.start
    }

    /// Creates a shard for `tid`, sharing the session's level and start anchor.
    #[must_use]
    pub fn shard(&self, tid: Tid) -> ObsShard {
        ObsShard {
            level: self.config.level,
            tid,
            start: self.start,
            registry: MetricsRegistry::new(),
            events: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Folds a shard's accumulated state into the session, leaving the shard empty
    /// and reusable. Call at barrier points, not per-sample.
    pub fn flush(&self, shard: &mut ObsShard) {
        let (registry, mut events, mut spans) = shard.drain();
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.registry.merge(&registry);
        inner.events.append(&mut events);
        inner.spans.append(&mut spans);
    }

    /// Consumes the core and produces the session report. Every shard must have
    /// been flushed (thread joins before `finish` make that a structural
    /// guarantee in the serve engine).
    #[must_use]
    pub fn finish(self) -> ObsReport {
        let wall_seconds = self.start.elapsed_secs();
        let inner = self
            .inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut spans = inner.spans;
        spans.sort_by_key(|s| (s.tid, s.start_ns));
        ObsReport {
            level: self.config.level,
            wall_seconds,
            registry: inner.registry,
            journal: EventJournal::from_events(inner.events, self.config.journal_capacity),
            spans,
        }
    }
}

/// Everything one observability session collected: the merged registry, the
/// canonical journal, and (at `Full`) the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// The level the session recorded at.
    pub level: ObsLevel,
    /// Wall-clock duration of the session in seconds (annotation).
    pub wall_seconds: f64,
    /// The merged metrics registry.
    pub registry: MetricsRegistry,
    /// The canonical, bounded event journal.
    pub journal: EventJournal,
    /// Completed spans, sorted by `(tid, start)` (empty below `Full`).
    pub spans: Vec<Span>,
}

impl ObsReport {
    /// An empty report at the given level (for tests and default plumbing).
    #[must_use]
    pub fn empty(level: ObsLevel) -> Self {
        ObsReport {
            level,
            wall_seconds: 0.0,
            registry: MetricsRegistry::new(),
            journal: EventJournal::default(),
            spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventKind, Track};
    use crate::registry::Labels;

    #[test]
    fn shards_flush_into_the_core_and_reset() {
        let core = ObsCore::new(ObsConfig::default());
        let mut shard = core.shard(Tid::Worker(0));
        shard.add("x.calls", Labels::none(), 2);
        shard.event(1, Track::Fetch, EventKind::Fetch { epoch: 0 });
        core.flush(&mut shard);
        assert!(shard.registry().is_empty());
        // A second flush of the now-empty shard is a no-op.
        core.flush(&mut shard);
        let report = core.finish();
        assert_eq!(report.registry.counter_sum("x.calls"), 2);
        assert_eq!(report.journal.len(), 1);
        assert!(report.spans.is_empty());
    }

    #[test]
    fn merged_output_is_independent_of_flush_order() {
        let build = |flip: bool| {
            let core = ObsCore::new(ObsConfig::default());
            let mut a = core.shard(Tid::Worker(0));
            let mut b = core.shard(Tid::Worker(1));
            a.add("calls", Labels::none().worker(0), 1);
            a.event(0, Track::Fetch, EventKind::Fetch { epoch: 0 });
            b.add("calls", Labels::none().worker(1), 2);
            b.event(1, Track::Fetch, EventKind::Fetch { epoch: 0 });
            if flip {
                core.flush(&mut b);
                core.flush(&mut a);
            } else {
                core.flush(&mut a);
                core.flush(&mut b);
            }
            core.finish()
        };
        let x = build(false);
        let y = build(true);
        assert_eq!(x.registry, y.registry);
        assert_eq!(x.journal.logical_jsonl(), y.journal.logical_jsonl());
    }
}
