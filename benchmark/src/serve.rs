//! The three serving workloads (`serve_b8`, `serve_b1`, `attack_rotate`): sessions
//! of seeded traffic through `radar_serve::serve`, with the correctness gates that
//! keep a faster wrong answer from posting a number.
//!
//! Every session floods the engine's 64-deep queue, so the loop is closed at the
//! service rate: latency is mostly queueing behind the 64 requests ahead, and
//! throughput is the service rate. An open-loop sweep at fixed arrival rates needs
//! arrival times in `TrafficSchedule` and is not measured here.

use std::time::Duration;

use radar_attack::AttackProfile;
use radar_data::Dataset;
use radar_memsim::{AttackTimeline, MountEvent, RowhammerInjector};
use radar_nn::argmax_rows;
use radar_obs::{EventKind, LatencyHistogram, ObsConfig, ObsLevel};
use radar_quant::QuantizedModel;
use radar_serve::{
    serve, ExecPath, FetchMode, RotationEventKind, ServeConfig, ServeOutcome, TrafficSchedule,
};

use crate::outcome::Outcome;
use crate::registry::Workload;
use crate::setup::{mix, Build, ModelSource, Setting, WORKERS};
use crate::stats::median;

/// Served-accuracy window, in requests (a whole number of batches at either size).
pub const WINDOW: usize = 64;
/// On batch 8 the oracle replays one window in this many (activation quantization is
/// per batch, so checking a window means re-running its batches).
const ORACLE_EVERY: usize = 16;

/// The engine-facing shape of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSpec {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Scrub one slice of the image every this many batches.
    pub scrub_every: usize,
    /// One key-rotation tick every this many batches (0: no rotation).
    pub rotate_every: usize,
    /// Scripted strikes per session, at 1/(n+1) … n/(n+1) of its batches.
    pub strikes: usize,
}

impl ServeSpec {
    /// The spec of a serving workload.
    ///
    /// # Panics
    ///
    /// Panics for the audit workload, which does not serve.
    pub fn of(workload: Workload) -> ServeSpec {
        match workload {
            Workload::ServeB8 => ServeSpec {
                max_batch: 8,
                scrub_every: 4,
                rotate_every: 0,
                strikes: 0,
            },
            Workload::ServeB1 => ServeSpec {
                max_batch: 1,
                scrub_every: 4,
                rotate_every: 0,
                strikes: 0,
            },
            Workload::AttackRotate => ServeSpec {
                max_batch: 8,
                scrub_every: 1,
                rotate_every: 2,
                strikes: 4,
            },
            Workload::AuditR18 => panic!("audit_r18 does not serve"),
        }
    }

    /// The engine configuration: every field explicit (no environment overrides),
    /// batching strict so batch composition is a function of the request stream.
    pub fn config(&self, level: ObsLevel) -> ServeConfig {
        ServeConfig {
            workers: WORKERS,
            max_batch: self.max_batch,
            max_wait: Duration::from_millis(50),
            strict_batching: true,
            queue_capacity: 64,
            inpath_verify: true,
            scrub_every: self.scrub_every,
            scrub_layers: 4,
            rotate_every: self.rotate_every,
            window: WINDOW,
            exec: ExecPath::QuantizedNative,
            fetch: FetchMode::SharedSnapshot,
            obs: ObsConfig::with_level(level),
        }
    }
}

/// One session's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// The request stream.
    pub schedule: TrafficSchedule,
    /// Scripted strikes as `(batch, injector seed)`.
    pub strikes: Vec<(usize, u64)>,
}

impl SessionPlan {
    /// The plans of a run: session `i` draws its traffic and strike seeds from
    /// streams of `seed`.
    pub fn for_run(spec: &ServeSpec, requests: usize, sessions: usize, seed: u64) -> Vec<Self> {
        let batches = requests.div_ceil(spec.max_batch);
        (0..sessions)
            .map(|i| {
                let session_seed = mix(seed, i as u64);
                SessionPlan {
                    schedule: TrafficSchedule::new(session_seed, requests),
                    strikes: (1..=spec.strikes)
                        .map(|j| {
                            (
                                batches * j / (spec.strikes + 1),
                                mix(session_seed, j as u64),
                            )
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The session's attack timeline: every strike mounts `profile`.
    pub fn timeline(&self, profile: &AttackProfile) -> AttackTimeline {
        AttackTimeline::new(
            self.strikes
                .iter()
                .map(|&(at_batch, seed)| MountEvent {
                    at_batch,
                    injector: RowhammerInjector::default(),
                    profile: profile.clone(),
                    seed,
                })
                .collect(),
        )
    }
}

/// What a serving run serves: the model, its traffic pool and its strikes.
pub struct Served<'a> {
    /// Engine shape.
    pub spec: ServeSpec,
    /// The served model.
    pub model: &'a ModelSource,
    /// Group size of its protection.
    pub group_size: usize,
    /// The evaluation pool the traffic draws from.
    pub eval: &'a Dataset,
    /// The profile every strike mounts.
    pub strike: &'a AttackProfile,
}

impl<'a> Served<'a> {
    /// What `workload` serves in `setting`.
    pub fn of(workload: Workload, setting: &'a Setting) -> Served<'a> {
        Served {
            spec: ServeSpec::of(workload),
            model: &setting.serve_model,
            group_size: setting.serve_group,
            eval: &setting.eval,
            strike: &setting.strike,
        }
    }
}

/// The sessions of one run at one observability level.
#[derive(Default)]
pub struct ServeRun {
    /// Wall time of each session's set-up.
    pub setup_secs: Vec<f64>,
    /// Each session's engine outcome.
    pub outcomes: Vec<ServeOutcome>,
    /// Requests submitted over all sessions.
    pub submitted: usize,
    /// Correctness gates that failed.
    pub failures: Vec<String>,
}

/// Runs every planned session once at each of `levels`, interleaved session by
/// session (so host drift hits every level alike); returns one run per level.
pub fn run(
    served: &Served<'_>,
    plans: &[SessionPlan],
    levels: &[ObsLevel],
) -> Result<Vec<ServeRun>, String> {
    let spec = served.spec;
    let clean = spec.strikes == 0 && spec.rotate_every == 0;
    let mut runs: Vec<ServeRun> = levels.iter().map(|_| ServeRun::default()).collect();
    let mut oracle: Option<Oracle> = None;
    for (session, plan) in plans.iter().enumerate() {
        for (&level, run) in levels.iter().zip(&mut runs) {
            let (build, secs) = Build::timed(served.model, served.group_size, WORKERS)?;
            run.setup_secs.push(secs);
            let Build {
                mut signer,
                protection,
                dram,
                replicas,
            } = build;
            let layers = dram.num_layers();
            if clean && oracle.is_none() {
                oracle = Some(Oracle::new(&mut signer, served.eval, spec.max_batch));
            }
            let outcome = serve(
                replicas,
                Some(protection),
                dram,
                served.eval,
                &plan.schedule,
                plan.timeline(served.strike),
                &spec.config(level),
            );
            run.submitted += plan.schedule.requests;
            let mut failures = check_session(&spec, plan, &outcome, layers);
            if let Some(oracle) = &oracle {
                failures.extend(oracle.check(&mut signer, served.eval, plan, &outcome));
            }
            run.failures.extend(
                failures
                    .into_iter()
                    .map(|f| format!("session {session} ({}): {f}", level.name())),
            );
            run.outcomes.push(outcome);
        }
    }
    Ok(runs)
}

/// The gates every session passes regardless of the oracle.
fn check_session(
    spec: &ServeSpec,
    plan: &SessionPlan,
    outcome: &ServeOutcome,
    layers: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    if outcome.requests != plan.schedule.requests {
        failures.push(format!(
            "{} of {} requests completed",
            outcome.requests, plan.schedule.requests
        ));
    }
    if spec.strikes == 0 {
        if !outcome.detections.is_empty() || outcome.recovery.groups_zeroed > 0 {
            failures.push(format!(
                "clean run flagged: {} detections, {} groups zeroed",
                outcome.detections.len(),
                outcome.recovery.groups_zeroed
            ));
        }
        return failures;
    }
    match outcome.time_to_detect {
        Some(ttd) if ttd.requests == 0 => {}
        Some(ttd) => failures.push(format!("{} requests served before detection", ttd.requests)),
        None => failures.push("strikes never detected".into()),
    }
    // Every strike that landed is flagged (or recovered by a re-sign check) in the
    // batch it landed before.
    let events = outcome.obs.journal.events();
    for strike in events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Strike { flips_landed, .. } if flips_landed > 0))
    {
        let flagged = events.iter().any(|e| {
            e.batch == strike.batch
                && matches!(
                    e.kind,
                    EventKind::Detect { .. }
                        | EventKind::Recover {
                            groups_zeroed: 1..,
                            ..
                        }
                )
        });
        if !flagged {
            failures.push(format!(
                "strike at batch {} not flagged in its batch",
                strike.batch
            ));
        }
    }
    if spec.rotate_every > 0 {
        // Every begun roll publishes, except one still in flight when the session
        // ends (a roll takes layers + 3 ticks).
        let roll_batches = (layers + 3) * spec.rotate_every;
        for event in &outcome.rotations {
            let RotationEventKind::Began(epoch) = event.kind else {
                continue;
            };
            let published = outcome
                .rotations
                .iter()
                .any(|e| e.kind == RotationEventKind::Published(epoch));
            if !published && event.batch + roll_batches <= outcome.batches {
                failures.push(format!(
                    "roll to epoch {} began at batch {} and never published",
                    epoch.index(),
                    event.batch
                ));
            }
        }
        if outcome.epochs_published() == 0 && outcome.batches >= 2 * roll_batches {
            failures.push("no key roll published".into());
        }
    }
    failures
}

/// The oracle for clean sessions: each checked window's correct count must equal a
/// replay of its requests through `forward_with_values` on the clean weights.
struct Oracle {
    values: Vec<Vec<i8>>,
    /// Batch 1: whether each evaluation sample is predicted correctly (predictions
    /// at batch 1 do not depend on the rest of the traffic, so each sample is scored
    /// once).
    per_sample: Option<Vec<bool>>,
    max_batch: usize,
}

impl Oracle {
    fn new(signer: &mut QuantizedModel, eval: &Dataset, max_batch: usize) -> Oracle {
        let values: Vec<Vec<i8>> = (0..signer.num_layers())
            .map(|layer| signer.layer_values(layer).to_vec())
            .collect();
        let per_sample = (max_batch == 1).then(|| {
            (0..eval.len())
                .map(|i| correct_in(signer, &values, eval, &[i]) == 1)
                .collect()
        });
        Oracle {
            values,
            per_sample,
            max_batch,
        }
    }

    fn check(
        &self,
        signer: &mut QuantizedModel,
        eval: &Dataset,
        plan: &SessionPlan,
        outcome: &ServeOutcome,
    ) -> Vec<String> {
        let samples = plan.schedule.sample_indices(eval.len());
        let mut failures = Vec::new();
        for (w, window) in outcome.windows.iter().enumerate() {
            let ids = &samples[window.start..window.end];
            let expected = match &self.per_sample {
                Some(per_sample) => ids.iter().filter(|&&i| per_sample[i]).count(),
                None if w % ORACLE_EVERY == 0 => ids
                    .chunks(self.max_batch)
                    .map(|batch| correct_in(signer, &self.values, eval, batch))
                    .sum(),
                None => continue,
            };
            if expected != window.correct {
                failures.push(format!(
                    "window {w}: served {} correct, oracle {expected}",
                    window.correct
                ));
            }
        }
        failures
    }
}

/// Correct predictions of one batch of evaluation samples.
fn correct_in(
    model: &mut QuantizedModel,
    values: &[Vec<i8>],
    eval: &Dataset,
    batch: &[usize],
) -> usize {
    let subset = eval.subset(batch);
    let logits = model.forward_with_values(values, subset.images());
    argmax_rows(&logits)
        .iter()
        .zip(subset.labels())
        .filter(|(p, l)| p == l)
        .count()
}

/// The end-to-end metrics of a run.
pub fn outcome(spec: &ServeSpec, run: &ServeRun) -> Outcome {
    let mut latency = LatencyHistogram::new();
    let (mut correct, mut total, mut completed) = (0usize, 0usize, 0usize);
    for o in &run.outcomes {
        latency.merge(&o.latency);
        completed += o.requests;
        for w in &o.windows {
            correct += w.correct;
            total += w.total;
        }
    }
    let rps: Vec<f64> = run.outcomes.iter().map(|o| o.throughput_rps).collect();
    let mut result = Outcome::new(run.submitted as u64, run.failures.clone());
    result.failed = run.submitted.saturating_sub(completed) as u64;
    result.metric("setup_s", median(&run.setup_secs));
    result.metric("ops_per_s", median(&rps));
    result.metric("op_p50_ms", latency.quantile_ns(0.5) / 1e6);
    result.metric("op_p95_ms", latency.quantile_ns(0.95) / 1e6);
    result.metric("correct_pct", 100.0 * correct as f64 / total.max(1) as f64);
    result.extra("latency_samples", latency.count() as f64, "count", false);
    result.extra(
        "min_window_accuracy_pct",
        run.outcomes
            .iter()
            .map(ServeOutcome::min_window_percent)
            .fold(100.0, f64::min),
        "%",
        true,
    );
    if spec.strikes > 0 {
        let ttd = run
            .outcomes
            .iter()
            .map(|o| {
                o.time_to_detect
                    .map_or(f64::INFINITY, |t| t.requests as f64)
            })
            .fold(0.0, f64::max);
        result.extra("ttd_requests", ttd, "count", true);
        let zeroed: usize = run.outcomes.iter().map(|o| o.recovery.groups_zeroed).sum();
        result.extra("groups_zeroed", zeroed as f64, "count", true);
        let epochs: usize = run
            .outcomes
            .iter()
            .map(ServeOutcome::epochs_published)
            .sum();
        result.extra("epochs_published", epochs as f64, "count", true);
    }
    result
}
