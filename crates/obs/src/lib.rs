//! `radar-obs`: the workspace-wide tracing + metrics engine.
//!
//! Every subsystem in the RADAR reproduction used to report itself through one-off
//! structs; this crate is the shared substrate they now record through. Three
//! pillars, one invariant each:
//!
//! 1. **Metrics registry** ([`MetricsRegistry`]) — counters and the log-bucketed
//!    [`LatencyHistogram`], addressed by the `(worker, layer, epoch, scenario)`
//!    label set ([`Labels`]). Threads record into private [`ObsShard`]s (no locks
//!    on the hot path) and flush at existing barrier points; **every merge is
//!    associative**, so flush order cannot change the merged output.
//! 2. **Deterministic event journal** ([`EventJournal`]) — typed events keyed by
//!    **logical time** (batch index + logical [`Track`], never wall clock, never
//!    worker ids). Same-seed runs produce byte-identical journals
//!    ([`EventJournal::logical_jsonl`]); wall-clock offsets ride along as a
//!    non-compared annotation.
//! 3. **Zero-cost-when-off profiling hooks** ([`ObsShard`] span/counter methods,
//!    [`GlobalCounter`] for kernels) — gated by [`ObsLevel`] `Off | Counters |
//!    Full`, where `Off` is one branch on a bool: no allocation, no `Instant::now`.
//!    The `obs-off-purity` and `determinism` rules in `crates/analyze/lints.toml`
//!    enforce both halves mechanically (the only `Instant::now` in the workspace
//!    lives in the private `clock` module).
//!
//! One JSON type, [`JsonValue`], parses and writes every document the workspace
//! handles: the journal's logical lines, the [`chrome_trace`] export for Chrome
//! `trace_event` files (Perfetto-loadable, with [`validate_chrome_trace`] as the
//! CI-side checker), and the `radar-bench` `BENCH_*.json` artifacts.

mod clock;
mod histogram;
mod hooks;
mod journal;
mod json;
mod level;
mod registry;
mod shard;
mod span;
mod trace;

pub use clock::Stopwatch;
pub use histogram::LatencyHistogram;
pub use hooks::GlobalCounter;
pub use journal::{Event, EventJournal, EventKind, RotationKind, Track};
pub use json::JsonValue;
pub use level::{global_level, set_global_level, ObsConfig, ObsLevel};
pub use registry::{Labels, MetricsRegistry};
pub use shard::{ObsCore, ObsReport, ObsShard};
pub use span::{Span, SpanTimer, Tid};
pub use trace::{chrome_trace, validate_chrome_trace, TraceSummary};

// The core is shared by reference across scoped threads and shards travel into
// worker closures; enforce thread-safety at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ObsCore>();
    assert_send_sync::<GlobalCounter>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<ObsReport>();
    assert_send::<ObsShard>();
};
