//! `radar-serve`: an online inference-serving engine that runs RADAR against live
//! traffic.
//!
//! The paper's claim is *run-time* defense — signatures are checked in the weight-fetch
//! path while the model is serving, and attacks land via rowhammer during deployment.
//! This crate models that serving timeline, making the paper's headline quantities
//! measurable:
//!
//! * **time-to-detect** — requests/batches/wall-clock between the first landed flip and
//!   the first flagged group ([`TimeToDetect`]);
//! * **accuracy of traffic served between flip and recovery** — per-window served
//!   accuracy ([`AccuracyWindow`]), showing the attack dip and the post-recovery
//!   restoration;
//! * **tail-latency cost of in-path verification** — p50/p90/p99 over a fixed-bucket
//!   [`LatencyHistogram`], plus verify/scrub duty cycles.
//!
//! # Architecture (threads, no async runtime)
//!
//! ```text
//! driver ──bounded queue──▶ batcher ──▶ worker pool (verified fetch + inference)
//!                             │  ▲            │
//!                  logical    │  │ fetch      ├── shared WeightDram   (RwLock)
//!                  clock      ▼  │ barrier    └── shared RadarProtection (RwLock)
//!                adversary / scrubber (strike / sweep between batches)
//! ```
//!
//! [`serve`] wires the components: a bounded request queue feeds a
//! batcher that coalesces up to `max_batch` requests (waiting at most `max_wait`);
//! for every batch the ticket-holding worker copies the weights out of the shared
//! [`WeightDram`](radar_memsim::WeightDram) in one fused fetch-and-verify pass,
//! recovers anything flagged, and publishes the verified snapshot every worker then
//! runs the integer GEMM off; a background scrubber
//! sweeps the DRAM image incrementally between batches; a scripted adversary mounts
//! [`AttackTimeline`](radar_memsim::AttackTimeline) strikes mid-service. Recovery
//! zeroes flagged groups directly in the DRAM image (and refreshes the golden
//! signatures) without stopping service. When [`ServeConfig::rotate_every`] is set, a
//! background re-keying task additionally rolls the protection to a fresh
//! [`KeyEpoch`](radar_core::KeyEpoch) — one layer re-signed per tick, publish, retire
//! — while workers keep serving: each worker pins the epoch it observed at its fetch
//! ticket and verification accepts `{current, previous}` across the publish
//! ([`RotationEvent`]s record the roll in telemetry).
//!
//! Weight fetches are ticketed in batch order, the adversary/scrubber only run at
//! fetch barriers, and [`ServeConfig::strict_batching`] pins batch composition to the
//! request stream, so every *logical* outcome of a run — who served corrupted
//! weights, when detection fired, the accuracy windows — replays deterministically
//! for a fixed seed; only the measured wall-clock telemetry varies.

mod config;
mod engine;
mod recovery;
pub mod schedule;
mod steps;
mod sync;
mod telemetry;
mod traffic;

pub use config::{ExecPath, FetchMode, ServeConfig};
pub use engine::{replicas, serve};
// The latency histogram was promoted into `radar-obs`; re-exported so existing
// `radar_serve::LatencyHistogram` consumers keep compiling. The observability
// config types travel with `ServeConfig::obs`.
pub use radar_obs::{LatencyHistogram, ObsConfig, ObsLevel, ObsReport};
pub use recovery::{recover_in_dram, recover_in_dram_traced};
pub use telemetry::{
    metric, AccuracyWindow, AttackStrike, AttackSummary, DetectionEvent, RequestRecord,
    RotationEvent, RotationEventKind, ServeOutcome, Telemetry, TimeToDetect,
};
pub use traffic::TrafficSchedule;

// Everything the scoped threads share must be thread-safe; enforce it at compile time
// so a non-`Send` field cannot sneak into the shared state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<TrafficSchedule>();
    assert_send_sync::<Telemetry>();
    assert_send_sync::<LatencyHistogram>();
    assert_send_sync::<ServeOutcome>();
};
