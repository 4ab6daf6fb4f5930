//! The hot-path instrumentation facade — every entry point a kernel or engine loop
//! calls per sample / per panel / per batch.
//!
//! **Purity contract**: when the level gates a hook off, the hook is one branch on
//! a bool (or one relaxed atomic load) and returns — no allocation, no clock read,
//! no lock. The `obs-off-purity` rule in `crates/analyze/lints.toml` enforces this
//! file stays free of allocation constructors and direct clock reads; anything
//! heavier lives behind the branch, in [`crate::registry`] / [`crate::span`] /
//! [`crate::clock`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::journal::{Event, EventKind, Track};
use crate::level::global_level;
use crate::registry::Labels;
use crate::shard::ObsShard;
use crate::span::{Span, SpanTimer};

/// A process-global gated counter, for instrumenting kernels that have no shard to
/// write to (`gemm` panel counts, verify sweeps). Define one as
/// a `static`; it costs one relaxed load and a branch when the global level is
/// `Off`.
#[derive(Debug)]
pub struct GlobalCounter {
    count: AtomicU64,
}

impl GlobalCounter {
    /// A zeroed counter, usable in `static` position.
    #[must_use]
    pub const fn new() -> Self {
        GlobalCounter {
            count: AtomicU64::new(0),
        }
    }

    /// Adds `n` — if the process-global level records counters; otherwise a load
    /// and a branch.
    #[inline]
    pub fn add(&self, n: u64) {
        if !global_level().counters_on() {
            return;
        }
        // relaxed: independent monotone counter; nothing orders against it and the
        // readers (bench reports) run after the instrumented work has joined.
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        // relaxed: see `add`.
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero, returning the previous count (bench phases use
    /// this to attribute counts per phase).
    pub fn reset(&self) -> u64 {
        // relaxed: see `add`.
        self.count.swap(0, Ordering::Relaxed)
    }
}

impl Default for GlobalCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsShard {
    /// Adds `n` to the counter at `(name, labels)`. Off/gated: one branch.
    #[inline]
    pub fn add(&mut self, name: &'static str, labels: Labels, n: u64) {
        if !self.level.counters_on() {
            return;
        }
        self.registry.add_counter(name, labels, n);
    }

    /// Records a nanosecond sample into the histogram at `(name, labels)`.
    /// Off/gated: one branch.
    #[inline]
    pub fn record_ns(&mut self, name: &'static str, labels: Labels, ns: u64) {
        if !self.level.counters_on() {
            return;
        }
        self.registry.record_ns(name, labels, ns);
    }

    /// Opens a span. Below [`ObsLevel::Full`](crate::ObsLevel::Full) this is one branch and returns a
    /// disabled timer; at `Full` it reads the session clock once.
    #[inline]
    pub fn span_start(&self) -> SpanTimer {
        if !self.level.spans_on() {
            return SpanTimer(None);
        }
        SpanTimer(Some(self.start.elapsed_ns()))
    }

    /// Closes a span opened with [`span_start`](Self::span_start), attributing it
    /// to `batch` on this shard's thread. A disabled timer records nothing.
    #[inline]
    pub fn span_end(&mut self, timer: SpanTimer, name: &'static str, batch: u64) {
        let Some(start_ns) = timer.0 else { return };
        let end_ns = self.start.elapsed_ns();
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            batch,
        });
    }

    /// Appends a journal event at logical time `(batch, track)`.
    ///
    /// Events are **always on** — the journal is the logical record of the run
    /// (detections, rotations, strikes feed the serve telemetry view at every
    /// level), and event volume is bounded by batch count, not sample count. The
    /// wall-clock offset rides along as the non-compared annotation.
    #[inline]
    pub fn event(&mut self, batch: u64, track: Track, kind: EventKind) {
        let at_seconds = self.start.elapsed_secs();
        self.events.push(Event {
            batch,
            track,
            kind,
            at_seconds,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_global_level, ObsLevel};
    use crate::span::Tid;

    #[test]
    fn shard_hooks_respect_the_level_gate() {
        let mut off = ObsShard::detached(ObsLevel::Off, Tid::Worker(0));
        off.add("c", Labels::none(), 1);
        off.record_ns("h", Labels::none(), 10);
        let timer = off.span_start();
        off.span_end(timer, "s", 0);
        assert!(off.registry().is_empty());
        assert!(off.spans.is_empty());
        // Events record at every level.
        off.event(0, Track::Fetch, EventKind::Fetch { epoch: 0 });
        assert_eq!(off.events.len(), 1);

        let mut counters = ObsShard::detached(ObsLevel::Counters, Tid::Worker(0));
        counters.add("c", Labels::none(), 1);
        let timer = counters.span_start();
        counters.span_end(timer, "s", 0);
        assert_eq!(counters.registry().counter_sum("c"), 1);
        assert!(counters.spans.is_empty(), "spans need Full");

        let mut full = ObsShard::detached(ObsLevel::Full, Tid::Worker(0));
        let timer = full.span_start();
        full.span_end(timer, "s", 3);
        assert_eq!(full.spans.len(), 1);
        assert_eq!(full.spans[0].batch, 3);
    }

    #[test]
    fn global_counter_follows_the_process_gate() {
        static PROBE: GlobalCounter = GlobalCounter::new();
        // The gate is process-global and tests run in parallel, so only assert on
        // deltas this test forces, under levels it sets itself.
        set_global_level(ObsLevel::Off);
        let before = PROBE.get();
        PROBE.add(5);
        assert_eq!(PROBE.get(), before, "Off must not count");
        set_global_level(ObsLevel::Counters);
        PROBE.add(5);
        assert!(PROBE.get() >= before + 5);
        let drained = PROBE.reset();
        assert!(drained >= 5);
        assert_eq!(PROBE.get(), 0);
        set_global_level(ObsLevel::Off);
    }
}
