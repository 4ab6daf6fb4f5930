//! The serving engine's telemetry, as a **view over the `radar-obs` registry and
//! journal**.
//!
//! Every thread records through its own [`ObsShard`] — directly, or through the
//! [`Telemetry`] recording helpers, which take the caller's shard — and
//! [`finish`](Telemetry::finish) derives the [`ServeOutcome`] (detections, strikes,
//! rotations, recovery totals, duty cycles, the latency histogram) from the merged
//! [`ObsReport`]. The raw report rides along in [`ServeOutcome::obs`] for exporters
//! and replay tests.

use std::sync::Mutex;

use radar_core::{KeyEpoch, RecoveryReport};
use radar_memsim::MountReport;
use radar_obs::{
    EventKind, Labels, LatencyHistogram, ObsConfig, ObsCore, ObsReport, ObsShard, RotationKind,
    Tid, Track,
};

/// Registry metric names the serve engine records under (always-on telemetry
/// class; the `BENCH_serve.json` fields derive from these).
pub mod metric {
    /// Per-request end-to-end latency histogram (labelled per worker).
    pub const LATENCY_NS: &str = "serve.latency_ns";
    /// Nanoseconds the batcher spent in fetch-path signature verification (the
    /// whole fused image build).
    pub const VERIFY_NS: &str = "serve.verify_ns";
    /// Nanoseconds the batcher spent in scrub sweeps.
    pub const SCRUB_NS: &str = "serve.scrub_ns";
    /// Nanoseconds workers spent in the forward pass.
    pub const INFER_NS: &str = "serve.infer_ns";
    /// Adversary strikes mounted.
    pub const STRIKES: &str = "serve.strikes";
    /// Scripted strikes whose batch offsets the run never reached.
    pub const STRIKES_NEVER_FIRED: &str = "serve.strikes_never_fired";
    /// Verification passes that flagged at least one group.
    pub const DETECTIONS: &str = "serve.detections";
    /// Verified weight images built (one per batch, by the batcher).
    pub const SNAPSHOT_PUBLISHES: &str = "serve.snapshot_publishes";
    /// Builds that refilled an image a worker handed back instead of allocating one
    /// (builds minus reclaims is the number of images ever allocated, at most
    /// `workers + 1`).
    pub const SNAPSHOT_RECLAIMS: &str = "serve.snapshot_reclaims";
}

/// Outcome of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Global submission order.
    pub id: usize,
    /// Batch the request was served in.
    pub batch: usize,
    /// Whether the model's top-1 prediction matched the label.
    pub correct: bool,
    /// Queue + batching + fetch + inference latency, in nanoseconds.
    pub latency_ns: u64,
}

/// One adversary strike, as it landed.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackStrike {
    /// Batch index (logical clock) the strike fired at.
    pub batch: usize,
    /// What the mount achieved.
    pub mount: MountReport,
    /// Wall-clock seconds since serving started.
    pub at_seconds: f64,
}

/// One detection event: the first moment a verification pass flagged groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionEvent {
    /// Batch index (logical clock) the detecting pass is attributed to.
    pub batch: usize,
    /// Whether the scrub sweep (rather than the in-path check) detected it.
    pub via_scrub: bool,
    /// Number of groups flagged by the pass.
    pub groups_flagged: usize,
    /// Wall-clock seconds since serving started.
    pub at_seconds: f64,
}

/// One re-keying action, on the batcher's logical clock.
///
/// Deliberately wall-clock-free: rotation progress is part of a run's *logical*
/// outcome, so the event stream of a seeded run must be identical across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationEvent {
    /// Batch index (logical clock) the rotation tick fired at.
    pub batch: usize,
    /// What the tick did.
    pub kind: RotationEventKind,
}

/// The four actions a rotation tick can take (see `steps::rotation_step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationEventKind {
    /// A roll to the given epoch began.
    Began(KeyEpoch),
    /// One layer was re-signed under the pending epoch (after recovering
    /// `groups_recovered` corrupted groups found by the pre-sign check).
    Resigned {
        /// The re-signed layer.
        layer: usize,
        /// Groups the pre-sign check recovered in that layer.
        groups_recovered: usize,
    },
    /// The fully re-signed epoch was published as current.
    Published(KeyEpoch),
    /// The previous epoch's acceptance window closed.
    Retired(KeyEpoch),
}

impl RotationEventKind {
    /// The journal representation of this rotation action.
    fn to_journal(self) -> RotationKind {
        match self {
            RotationEventKind::Began(epoch) => RotationKind::Began {
                epoch: epoch.index(),
            },
            RotationEventKind::Resigned {
                layer,
                groups_recovered,
            } => RotationKind::Resigned {
                layer: layer as u64,
                groups_recovered: groups_recovered as u64,
            },
            RotationEventKind::Published(epoch) => RotationKind::Published {
                epoch: epoch.index(),
            },
            RotationEventKind::Retired(epoch) => RotationKind::Retired {
                epoch: epoch.index(),
            },
        }
    }

    /// Reconstructs the serve-side kind from its journal representation.
    fn from_journal(kind: RotationKind) -> Self {
        match kind {
            RotationKind::Began { epoch } => RotationEventKind::Began(KeyEpoch::new(epoch)),
            RotationKind::Resigned {
                layer,
                groups_recovered,
            } => RotationEventKind::Resigned {
                layer: layer as usize,
                groups_recovered: groups_recovered as usize,
            },
            RotationKind::Published { epoch } => RotationEventKind::Published(KeyEpoch::new(epoch)),
            RotationKind::Retired { epoch } => RotationEventKind::Retired(KeyEpoch::new(epoch)),
        }
    }
}

/// Thread-shared telemetry collector: the batcher and the workers each record into
/// their own [`ObsShard`] and flush it here once per batch, and
/// [`finish`](Telemetry::finish) folds everything into a [`ServeOutcome`].
#[derive(Debug)]
pub struct Telemetry {
    /// Collects with an unbounded journal, so `finish` derives the view from every
    /// event before it applies `journal_capacity`.
    core: ObsCore,
    journal_capacity: usize,
    completions: Mutex<Vec<RequestRecord>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates a collector with the default observability config; the session
    /// clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(ObsConfig::default())
    }

    /// Creates a collector recording at the given observability config.
    #[must_use]
    pub fn with_config(config: ObsConfig) -> Self {
        Telemetry {
            core: ObsCore::new(ObsConfig {
                journal_capacity: usize::MAX,
                ..config
            }),
            journal_capacity: config.journal_capacity,
            completions: Mutex::new(Vec::new()),
        }
    }

    /// Creates a per-thread shard bound to this telemetry's session (level and
    /// clock anchor shared). Flush it back with [`flush`](Self::flush).
    #[must_use]
    pub fn shard(&self, tid: Tid) -> ObsShard {
        self.core.shard(tid)
    }

    /// Folds a per-thread shard into the session (call once per batch, not per sample).
    pub fn flush(&self, shard: &mut ObsShard) {
        self.core.flush(shard);
    }

    /// Records a completed request; its latency feeds the histogram under the
    /// recording worker's label.
    pub fn complete(&self, shard: &mut ObsShard, record: RequestRecord) {
        let labels = match shard.tid() {
            Tid::Worker(w) => Labels::none().worker(u32::from(w)),
            Tid::Batcher => Labels::none(),
        };
        shard.force_record_ns(metric::LATENCY_NS, labels, record.latency_ns);
        self.completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }

    /// Records an adversary strike.
    pub fn strike(shard: &mut ObsShard, batch: usize, mount: MountReport) {
        shard.force_add(metric::STRIKES, Labels::none(), 1);
        shard.event(
            batch as u64,
            Track::Strike,
            EventKind::Strike {
                flips_landed: mount.flips_landed as u64,
                flips_missed: mount.flips_missed as u64,
                rows_hammered: mount.rows_hammered as u64,
            },
        );
    }

    /// Records that `remaining` scripted strikes never fired because the run ended
    /// before their batch offsets (`batch` is the last batch a strike fired at).
    pub fn strike_never_fired(shard: &mut ObsShard, batch: usize, remaining: usize) {
        shard.force_add(
            metric::STRIKES_NEVER_FIRED,
            Labels::none(),
            remaining as u64,
        );
        shard.event(
            batch as u64,
            Track::Strike,
            EventKind::StrikeNeverFired {
                remaining: remaining as u64,
            },
        );
    }

    /// Records a detection event, on the scrub track for a scrub sweep and on the
    /// fetch track for the in-path check.
    pub fn detection(shard: &mut ObsShard, batch: usize, via_scrub: bool, groups_flagged: usize) {
        let track = if via_scrub {
            Track::Scrub
        } else {
            Track::Fetch
        };
        shard.force_add(metric::DETECTIONS, Labels::none(), 1);
        shard.event(
            batch as u64,
            track,
            EventKind::Detect {
                via_scrub,
                groups_flagged: groups_flagged as u64,
            },
        );
    }

    /// Records a rotation tick (only the batcher ticks, so the journal's rotate
    /// track is already in logical-clock order).
    pub fn rotation(shard: &mut ObsShard, event: RotationEvent) {
        shard.event(
            event.batch as u64,
            Track::Rotate,
            EventKind::Rotation(event.kind.to_journal()),
        );
    }

    /// Records a recovery pass on the given logical track (fetch for in-path,
    /// scrub for the scrub sweep, rotate for pre-sign recoveries).
    pub fn recovered(shard: &mut ObsShard, batch: usize, track: Track, recovery: RecoveryReport) {
        shard.event(
            batch as u64,
            track,
            EventKind::Recover {
                groups_zeroed: recovery.groups_zeroed as u64,
                weights_zeroed: recovery.weights_zeroed as u64,
            },
        );
    }

    /// Folds everything collected into a [`ServeOutcome`].
    ///
    /// `batches` is the number of dispatched batches, `workers` the worker count (for
    /// the verify duty-cycle normalization) and `window` the served-accuracy window
    /// size in requests.
    #[must_use]
    pub fn finish(self, batches: usize, workers: usize, window: usize) -> ServeOutcome {
        let Telemetry {
            core,
            journal_capacity,
            completions,
        } = self;
        let mut obs = core.finish();

        let mut completions = completions
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        completions.sort_unstable_by_key(|r| r.id);

        // The journal is canonically ordered and still holds every flushed event;
        // project the view structs out of it before applying the capacity bound.
        let mut strikes: Vec<AttackStrike> = Vec::new();
        let mut detections: Vec<DetectionEvent> = Vec::new();
        let mut rotations: Vec<RotationEvent> = Vec::new();
        let mut recovery = RecoveryReport::default();
        for event in obs.journal.events() {
            match event.kind {
                EventKind::Strike {
                    flips_landed,
                    flips_missed,
                    rows_hammered,
                } => strikes.push(AttackStrike {
                    batch: event.batch as usize,
                    mount: MountReport {
                        flips_landed: flips_landed as usize,
                        flips_missed: flips_missed as usize,
                        rows_hammered: rows_hammered as usize,
                    },
                    at_seconds: event.at_seconds,
                }),
                EventKind::Detect {
                    via_scrub,
                    groups_flagged,
                } => detections.push(DetectionEvent {
                    batch: event.batch as usize,
                    via_scrub,
                    groups_flagged: groups_flagged as usize,
                    at_seconds: event.at_seconds,
                }),
                EventKind::Rotation(kind) => rotations.push(RotationEvent {
                    batch: event.batch as usize,
                    kind: RotationEventKind::from_journal(kind),
                }),
                EventKind::Recover {
                    groups_zeroed,
                    weights_zeroed,
                } => {
                    recovery.groups_zeroed += groups_zeroed as usize;
                    recovery.weights_zeroed += weights_zeroed as usize;
                }
                _ => {}
            }
        }

        let windows: Vec<AccuracyWindow> = completions
            .chunks(window.max(1))
            .map(|chunk| {
                let correct = chunk.iter().filter(|r| r.correct).count();
                AccuracyWindow {
                    start: chunk.first().map_or(0, |r| r.id),
                    end: chunk.last().map_or(0, |r| r.id + 1),
                    correct,
                    total: chunk.len(),
                }
            })
            .collect();

        let attack = strikes.iter().fold(None, |acc: Option<AttackSummary>, s| {
            Some(match acc {
                None => AttackSummary {
                    strikes: 1,
                    first_batch: s.batch,
                    first_at_seconds: s.at_seconds,
                    mount: s.mount.clone(),
                },
                Some(mut sum) => {
                    sum.strikes += 1;
                    if s.batch < sum.first_batch {
                        sum.first_batch = s.batch;
                        sum.first_at_seconds = s.at_seconds;
                    }
                    // Timeline strikes aggregate instead of dropping earlier reports.
                    sum.mount.merge(&s.mount);
                    sum
                }
            })
        });

        // Time to detect: from the earliest strike that landed a flip to the first
        // detection at or after it. Requests are counted over the batches served in
        // between — the traffic exposed to corrupted weights before detection.
        let time_to_detect = strikes
            .iter()
            .filter(|s| s.mount.flips_landed > 0)
            .min_by_key(|s| s.batch)
            .and_then(|landed| {
                let first = detections.iter().find(|d| d.batch >= landed.batch)?;
                let requests_between = completions
                    .iter()
                    .filter(|r| r.batch >= landed.batch && r.batch < first.batch)
                    .count();
                Some(TimeToDetect {
                    batches: first.batch - landed.batch,
                    requests: requests_between,
                    seconds: (first.at_seconds - landed.at_seconds).max(0.0),
                    via_scrub: first.via_scrub,
                })
            });

        obs.journal.keep_latest(journal_capacity);
        let wall_seconds = obs.wall_seconds;
        let latency = obs.registry.histogram_merged(metric::LATENCY_NS);
        let verify_seconds = obs.registry.counter_sum(metric::VERIFY_NS) as f64 / 1e9;
        let scrub_seconds = obs.registry.counter_sum(metric::SCRUB_NS) as f64 / 1e9;
        let infer_seconds = obs.registry.counter_sum(metric::INFER_NS) as f64 / 1e9;
        ServeOutcome {
            requests: completions.len(),
            batches,
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                completions.len() as f64 / wall_seconds
            } else {
                0.0
            },
            latency,
            verify_seconds,
            scrub_seconds,
            infer_seconds,
            verify_duty: if wall_seconds > 0.0 {
                verify_seconds / (wall_seconds * workers.max(1) as f64)
            } else {
                0.0
            },
            scrub_duty: if wall_seconds > 0.0 {
                scrub_seconds / wall_seconds
            } else {
                0.0
            },
            attack,
            detections,
            rotations,
            time_to_detect,
            recovery,
            windows,
            obs,
        }
    }
}

/// Aggregate of every adversary strike in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSummary {
    /// Number of strikes mounted.
    pub strikes: usize,
    /// Batch index of the earliest strike, whether or not it landed a flip.
    pub first_batch: usize,
    /// Wall-clock offset of the earliest strike, in seconds since serving started.
    pub first_at_seconds: f64,
    /// Merged [`MountReport`] over all strikes.
    pub mount: MountReport,
}

/// Detection latency relative to the earliest strike that landed a flip (strikes
/// that landed nothing corrupt no weights and are not counted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeToDetect {
    /// Batches dispatched between that strike and the detecting pass.
    pub batches: usize,
    /// Requests served on potentially corrupted weights before detection.
    pub requests: usize,
    /// Wall-clock seconds from that strike to the detection.
    pub seconds: f64,
    /// Whether a scrub sweep (rather than the in-path check) made the detection.
    pub via_scrub: bool,
}

/// Served accuracy over one contiguous window of request ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccuracyWindow {
    /// First request id in the window.
    pub start: usize,
    /// One past the last request id.
    pub end: usize,
    /// Correctly answered requests.
    pub correct: usize,
    /// Requests in the window.
    pub total: usize,
}

impl AccuracyWindow {
    /// Window accuracy in percent.
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.total as f64
        }
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests completed.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Merged per-request latency histogram.
    pub latency: LatencyHistogram,
    /// Total seconds the batcher spent in fetch-path verification.
    pub verify_seconds: f64,
    /// Total seconds spent in scrub sweeps.
    pub scrub_seconds: f64,
    /// Total seconds workers spent in the forward pass.
    pub infer_seconds: f64,
    /// Fetch-path verification duty cycle: verify time over total worker time
    /// (`wall_seconds × workers`). The batcher verifies every image on its own
    /// thread, so this sets verification against the pool's serving capacity; it
    /// is not a share of any one thread's time.
    pub verify_duty: f64,
    /// Scrub duty cycle (scrub time over wall time).
    pub scrub_duty: f64,
    /// Aggregate adversary activity (`None` for clean runs).
    pub attack: Option<AttackSummary>,
    /// Every detection event, in logical order.
    pub detections: Vec<DetectionEvent>,
    /// Every rotation tick, in logical order
    /// (empty when rotation is disabled).
    pub rotations: Vec<RotationEvent>,
    /// Detection latency from the earliest strike that landed a flip (`None` when
    /// no strike landed a flip or no detection followed it).
    pub time_to_detect: Option<TimeToDetect>,
    /// Total recovery work performed.
    pub recovery: RecoveryReport,
    /// Served accuracy per window of request ids.
    pub windows: Vec<AccuracyWindow>,
    /// The raw observability report the view above was derived from: the merged
    /// metrics registry, the deterministic event journal (replay tests compare
    /// [`logical_jsonl`](radar_obs::EventJournal::logical_jsonl) across runs), and
    /// — at [`ObsLevel::Full`](radar_obs::ObsLevel::Full) — the spans the Chrome
    /// trace exporter consumes.
    pub obs: ObsReport,
}

impl ServeOutcome {
    /// Lowest window accuracy in percent (0 when no requests completed).
    #[must_use]
    pub fn min_window_percent(&self) -> f64 {
        self.windows
            .iter()
            .map(AccuracyWindow::percent)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Accuracy of the final window in percent (0 when no requests completed).
    #[must_use]
    pub fn final_window_percent(&self) -> f64 {
        self.windows.last().map_or(0.0, AccuracyWindow::percent)
    }

    /// Number of epochs the rotation ticks published during the run.
    #[must_use]
    pub fn epochs_published(&self) -> usize {
        self.rotations
            .iter()
            .filter(|e| matches!(e.kind, RotationEventKind::Published(_)))
            .count()
    }

    /// The last epoch published during the run (`None` when no roll completed).
    #[must_use]
    pub fn last_published_epoch(&self) -> Option<KeyEpoch> {
        self.rotations.iter().rev().find_map(|e| match e.kind {
            RotationEventKind::Published(epoch) => Some(epoch),
            _ => None,
        })
    }

    /// Overall served accuracy in percent.
    #[must_use]
    pub fn overall_percent(&self) -> f64 {
        let (correct, total) = self
            .windows
            .iter()
            .fold((0usize, 0usize), |(c, t), w| (c + w.correct, t + w.total));
        if total == 0 {
            0.0
        } else {
            100.0 * correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, batch: usize, correct: bool) -> RequestRecord {
        RequestRecord {
            id,
            batch,
            correct,
            latency_ns: 1_000_000,
        }
    }

    fn mount(flips_landed: usize, flips_missed: usize) -> MountReport {
        MountReport {
            flips_landed,
            flips_missed,
            rows_hammered: 2,
        }
    }

    /// Flushes `shard` and finishes the session with the given batch count, one
    /// worker and a window of 4.
    fn finish(telemetry: Telemetry, mut shard: ObsShard, batches: usize) -> ServeOutcome {
        telemetry.flush(&mut shard);
        telemetry.finish(batches, 1, 4)
    }

    #[test]
    fn windows_chunk_by_request_id_in_order() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Worker(1));
        // Complete out of order; windows must still chunk by id.
        for id in [3usize, 0, 2, 1, 4] {
            telemetry.complete(&mut shard, record(id, id / 2, id != 2));
        }
        telemetry.flush(&mut shard);
        let outcome = telemetry.finish(3, 2, 2);
        assert_eq!(outcome.requests, 5);
        assert_eq!(outcome.windows.len(), 3);
        assert_eq!(outcome.windows[0].start, 0);
        assert_eq!(outcome.windows[0].end, 2);
        assert_eq!(outcome.windows[1].correct, 1); // id 2 was wrong
        assert_eq!(outcome.windows[2].total, 1);
        assert!((outcome.overall_percent() - 80.0).abs() < 1e-9);
        assert_eq!(outcome.latency.count(), 5);
        // The latency histogram carries the recording worker's label.
        let rendered = outcome.obs.registry.render_lines().join("\n");
        assert!(
            rendered.contains("serve.latency_ns{worker=1}"),
            "got:\n{rendered}"
        );
    }

    #[test]
    fn time_to_detect_counts_requests_between_strike_and_detection() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        // Batches 0..6, two requests each.
        for id in 0..12 {
            telemetry.complete(&mut shard, record(id, id / 2, true));
        }
        Telemetry::strike(&mut shard, 2, mount(3, 1));
        Telemetry::detection(&mut shard, 5, true, 4);
        let outcome = finish(telemetry, shard, 6);
        let ttd = outcome.time_to_detect.expect("attacked and detected");
        assert_eq!(ttd.batches, 3);
        // Requests in batches 2..5 = ids 4..10 → 6 requests.
        assert_eq!(ttd.requests, 6);
        assert!(ttd.via_scrub);
        let attack = outcome.attack.expect("strike recorded");
        assert_eq!(attack.strikes, 1);
        assert_eq!(attack.mount.flips_landed, 3);
    }

    #[test]
    fn time_to_detect_counts_from_the_first_strike_that_landed_a_flip() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        // Batches 0..6, two requests each.
        for id in 0..12 {
            telemetry.complete(&mut shard, record(id, id / 2, true));
        }
        // The strike at batch 1 misses every flip; the one at batch 4 lands two and
        // is caught in the same batch, so no request saw corrupted weights.
        Telemetry::strike(&mut shard, 1, mount(0, 4));
        Telemetry::strike(&mut shard, 4, mount(2, 0));
        Telemetry::detection(&mut shard, 4, false, 2);
        let outcome = finish(telemetry, shard, 6);
        let ttd = outcome.time_to_detect.expect("attacked and detected");
        assert_eq!((ttd.batches, ttd.requests), (0, 0));
        let attack = outcome.attack.expect("strikes recorded");
        assert_eq!((attack.strikes, attack.first_batch), (2, 1));
    }

    #[test]
    fn detection_before_strike_batch_is_ignored_for_ttd() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        Telemetry::strike(&mut shard, 4, mount(1, 0));
        Telemetry::detection(&mut shard, 1, false, 1); // stale / unrelated
        let outcome = finish(telemetry, shard, 6);
        assert!(outcome.time_to_detect.is_none());
    }

    #[test]
    fn strike_that_landed_nothing_yields_no_ttd() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        Telemetry::strike(&mut shard, 2, mount(0, 5));
        Telemetry::detection(&mut shard, 3, false, 1);
        let outcome = finish(telemetry, shard, 4);
        assert!(outcome.attack.is_some());
        assert!(outcome.time_to_detect.is_none());
    }

    #[test]
    fn multiple_strikes_merge_mount_reports() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        for batch in [2usize, 6] {
            Telemetry::strike(&mut shard, batch, mount(2, 1));
        }
        let outcome = finish(telemetry, shard, 8);
        let attack = outcome.attack.expect("strikes recorded");
        assert_eq!(attack.strikes, 2);
        assert_eq!(attack.first_batch, 2);
        assert_eq!(attack.mount.flips_landed, 4);
        assert_eq!(attack.mount.flips_attempted(), 6);
    }

    #[test]
    fn the_view_is_a_projection_of_the_journal_and_registry() {
        let telemetry = Telemetry::new();
        let mut shard = telemetry.shard(Tid::Batcher);
        telemetry.complete(&mut shard, record(0, 0, true));
        Telemetry::strike(&mut shard, 1, mount(1, 0));
        Telemetry::detection(&mut shard, 2, false, 3);
        Telemetry::recovered(
            &mut shard,
            2,
            Track::Fetch,
            RecoveryReport {
                groups_zeroed: 3,
                weights_zeroed: 48,
            },
        );
        Telemetry::rotation(
            &mut shard,
            RotationEvent {
                batch: 3,
                kind: RotationEventKind::Published(KeyEpoch::new(1)),
            },
        );
        Telemetry::strike_never_fired(&mut shard, 3, 2);
        let outcome = finish(telemetry, shard, 4);
        // View fields and raw report agree.
        assert_eq!(outcome.detections.len(), 1);
        assert_eq!(outcome.recovery.groups_zeroed, 3);
        assert_eq!(outcome.recovery.weights_zeroed, 48);
        assert_eq!(outcome.epochs_published(), 1);
        assert_eq!(
            outcome.obs.registry.counter_sum(metric::STRIKES),
            1,
            "strike counter"
        );
        assert_eq!(
            outcome
                .obs
                .registry
                .counter_sum(metric::STRIKES_NEVER_FIRED),
            2
        );
        let journal = outcome.obs.journal.logical_jsonl();
        assert!(journal.contains(r#""event":"strike_never_fired","remaining":2"#));
        assert!(journal.contains(r#""event":"rotation.published","epoch":1"#));
        assert!(journal.contains(r#""event":"recover","groups_zeroed":3"#));
    }

    #[test]
    fn a_capped_journal_still_reports_every_strike_and_detection() {
        // Capacity 1 keeps only the newest journal event; the view must still see
        // the strike at batch 0 and the detection and recovery at batch 1.
        let telemetry = Telemetry::with_config(ObsConfig {
            journal_capacity: 1,
            ..ObsConfig::default()
        });
        let mut shard = telemetry.shard(Tid::Batcher);
        Telemetry::strike(&mut shard, 0, mount(1, 0));
        Telemetry::detection(&mut shard, 1, false, 1);
        Telemetry::recovered(
            &mut shard,
            1,
            Track::Fetch,
            RecoveryReport {
                groups_zeroed: 1,
                weights_zeroed: 16,
            },
        );
        let outcome = finish(telemetry, shard, 2);
        assert_eq!(outcome.obs.journal.len(), 1);
        assert_eq!(outcome.obs.journal.dropped(), 2);
        assert_eq!(outcome.obs.registry.counter_sum(metric::STRIKES), 1);
        let attack = outcome.attack.expect("the dropped strike still counts");
        assert_eq!((attack.strikes, attack.first_batch), (1, 0));
        assert_eq!(outcome.detections.len(), 1);
        assert_eq!(outcome.recovery.groups_zeroed, 1);
        let ttd = outcome.time_to_detect.expect("detected one batch later");
        assert_eq!(ttd.batches, 1);
    }
}
