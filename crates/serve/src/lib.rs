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
//! driver ──bounded queue──▶ batcher ──(batch, image)──▶ worker pool
//!                           ▲  │ per batch, in order:        │ infer off
//!                           │  │ strike, scrub sweep,        │ the image
//!                           │  │ rotation tick, fused fetch  │
//!                           │  │ + verify into an image,     │
//!                           │  │ recover, refresh            │
//!                           │  ▼                             │
//!                           │  WeightDram + RadarProtection  │
//!                           │  (owned by the batcher alone)  │
//!                           └──────────── image return ◀─────┘
//! ```
//!
//! [`serve`] wires the components: a bounded request queue feeds a batcher that
//! coalesces up to `max_batch` requests (waiting at most `max_wait`) and is the only
//! thread that touches the stored weights and their keys. Before each batch it
//! mounts the [`AttackTimeline`](radar_memsim::AttackTimeline)'s scripted strikes,
//! sweeps the DRAM image incrementally, and, when [`ServeConfig::rotate_every`] is
//! set, rolls the protection to a fresh [`KeyEpoch`](radar_core::KeyEpoch) — one
//! layer re-signed per tick, publish, retire ([`RotationEvent`]s record the roll in
//! telemetry). It then copies the weights out of the
//! [`WeightDram`](radar_memsim::WeightDram) into the batch's image in one fused
//! fetch-and-verify pass, recovers anything flagged, and dispatches the batch with
//! its image. Recovery zeroes flagged groups directly in the DRAM image (and
//! refreshes the golden signatures) without stopping service. The workers run the
//! integer GEMM off the image and hand it back; `workers + 1` images circulate.
//!
//! Every step that reads or writes the weights runs on the batcher in batch order,
//! and [`ServeConfig::strict_batching`] pins batch composition to the request
//! stream, so every *logical* outcome of a run — who served corrupted weights, when
//! detection fired, the accuracy windows — replays deterministically for a fixed
//! seed and any worker count; only the measured wall-clock telemetry varies.

mod config;
mod engine;
mod recovery;
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
pub use recovery::recover_in_dram;
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
