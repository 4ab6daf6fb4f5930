//! The online-serving benchmark: RADAR against live traffic.
//!
//! Four scenarios replay the same deterministic, seeded traffic against the prepared
//! model, differing only in the attack timeline and which detection paths are armed:
//!
//! | Scenario | In-path verify | Scrub sweeps | Attack |
//! |---|---|---|---|
//! | `clean` | on | on | none |
//! | `attack_inpath` | on | on | PBFA profile mounted mid-service |
//! | `attack_scrub_only` | off | on | same strike |
//! | `unprotected` | off | off | same strike |
//!
//! Each scenario runs through [`radar_serve::serve`] — bounded queue, a batcher that
//! mounts the scripted strikes and scrubs between batches, worker pool with
//! verified fetch — and the
//! telemetry lands in `artifacts/results/BENCH_serve.json` plus a human-readable
//! table. See the `run_serve` binary (`--smoke` for the CI-sized timeline).

use std::path::PathBuf;

use radar_attack::AttackProfile;
use radar_core::{RadarConfig, RadarProtection};
use radar_memsim::{AttackTimeline, DramGeometry, MountEvent, RowhammerInjector, WeightDram};
use radar_obs::{chrome_trace, validate_chrome_trace, JsonValue, ObsLevel};
use radar_serve::{serve, ServeConfig, ServeOutcome, TrafficSchedule};

use crate::harness::{fresh_model, pbfa_profiles, write_artifact, Prepared};
use crate::report::Report;

/// Sizing of one serving benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeBenchParams {
    /// Requests replayed per scenario.
    pub requests: usize,
    /// Served-accuracy window, in requests.
    pub window: usize,
    /// Seed of the shared traffic schedule.
    pub traffic_seed: u64,
}

impl ServeBenchParams {
    /// The default (paper-sized) run: enough traffic for several windows on each side
    /// of the strike.
    pub fn default_run() -> Self {
        ServeBenchParams {
            requests: 512,
            window: 64,
            traffic_seed: 0x5E1A_11FE,
        }
    }

    /// The CI smoke run: a short timeline that still crosses the strike and at least
    /// one full scrub cycle.
    pub fn smoke() -> Self {
        ServeBenchParams {
            requests: 96,
            window: 16,
            traffic_seed: 0x5E1A_11FE,
        }
    }
}

/// One executed serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// Scenario name (`clean` / `attack_inpath` / `attack_scrub_only` / `unprotected`).
    pub name: &'static str,
    /// Whether workers verified layers in the fetch path.
    pub inpath_verify: bool,
    /// Whether scrub sweeps were armed.
    pub scrub: bool,
    /// Whether any protection was present at all.
    pub protected: bool,
    /// The engine telemetry.
    pub outcome: ServeOutcome,
}

/// The full serving benchmark: scenarios plus run-level context.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchOutcome {
    /// Model identifier.
    pub model: String,
    /// Clean test accuracy of the prepared model, in percent.
    pub clean_accuracy: f64,
    /// The engine configuration shared by every scenario.
    pub config: ServeConfig,
    /// Group size of the RADAR defense.
    pub group_size: usize,
    /// Flips in the mounted profile.
    pub n_flips: usize,
    /// Batch offset of the strike in the attacked scenarios.
    pub attack_at_batch: usize,
    /// Per-scenario results.
    pub scenarios: Vec<ServeScenario>,
}

/// Truncates the strongest cached PBFA profile to `n` flips.
fn attack_profile(prepared: &mut Prepared, n: usize) -> AttackProfile {
    let profiles = pbfa_profiles(prepared);
    let profile = profiles.first().expect("at least one PBFA profile");
    AttackProfile {
        flips: profile.flips[..n.min(profile.flips.len())].to_vec(),
        loss_before: profile.loss_before,
        loss_after: profile.loss_after,
    }
}

/// Runs the four serving scenarios and returns the aggregated outcome.
///
/// The engine configuration starts from [`ServeConfig::default`] (workers and batch
/// size overridable through `RADAR_SERVE_WORKERS` / `RADAR_SERVE_BATCH`), with
/// strict batching enabled so batch composition — and with it every logical outcome —
/// is a pure function of the seeds.
pub fn run(prepared: &mut Prepared, params: &ServeBenchParams) -> ServeBenchOutcome {
    let kind = prepared.kind;
    let budget = prepared.budget;
    let group_size = kind.table3_groups()[kind.table3_groups().len() / 2];

    let signer = fresh_model(kind, budget);
    let num_layers = signer.num_layers();
    let config = ServeConfig {
        strict_batching: true,
        window: params.window,
        // One full image sweep every ~5 scrub steps.
        scrub_layers: num_layers.div_ceil(5),
        ..ServeConfig::default()
    }
    .from_env();

    let total_batches = params.requests.div_ceil(config.max_batch);
    // Keep the strike strictly inside the timeline (a strike at an offset the run
    // never dispatches would silently not fire); a single-batch run degenerates to a
    // strike before any service.
    let attack_at_batch = (total_batches / 3).clamp(
        usize::from(total_batches > 1),
        total_batches.saturating_sub(1),
    );
    let profile = attack_profile(prepared, budget.n_bits);
    let n_flips = profile.flips.len();
    let schedule = TrafficSchedule::new(params.traffic_seed, params.requests);
    let eval = prepared.eval_set();

    let strike = |seed: u64| {
        AttackTimeline::new(vec![MountEvent {
            at_batch: attack_at_batch,
            injector: RowhammerInjector::default(),
            profile: profile.clone(),
            seed,
        }])
    };

    let mut scenarios = Vec::new();
    let specs: [(&'static str, bool, bool, bool); 4] = [
        ("clean", true, true, true),
        ("attack_inpath", true, true, true),
        ("attack_scrub_only", false, true, true),
        ("unprotected", false, false, false),
    ];
    for (name, inpath_verify, scrub, protected) in specs {
        let mut cfg = config;
        cfg.inpath_verify = inpath_verify;
        if !scrub {
            cfg.scrub_every = 0;
        }
        let models = radar_serve::replicas(cfg.workers, || fresh_model(kind, budget));
        let protection = protected
            .then(|| RadarProtection::new(&signer, RadarConfig::paper_default(group_size)));
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let timeline = if name == "clean" {
            AttackTimeline::empty()
        } else {
            strike(0xA77A_C000 + attack_at_batch as u64)
        };
        eprintln!(
            "[serve] scenario {name}: {} requests, {} workers, batch {}, strike at {}",
            params.requests,
            cfg.workers,
            cfg.max_batch,
            if name == "clean" {
                "-".to_owned()
            } else {
                attack_at_batch.to_string()
            }
        );
        let outcome = serve(models, protection, dram, &eval, &schedule, timeline, &cfg);
        scenarios.push(ServeScenario {
            name,
            inpath_verify,
            scrub,
            protected,
            outcome,
        });
    }

    ServeBenchOutcome {
        model: kind.id().to_owned(),
        clean_accuracy: f64::from(prepared.clean_accuracy),
        config,
        group_size,
        n_flips,
        attack_at_batch,
        scenarios,
    }
}

/// Runs one fully-traced serving scenario — the PBFA strike mounted mid-service
/// with the rotation task armed and [`ObsLevel::Full`] spans on — and writes the
/// Chrome `trace_event` export to `artifacts/results/TRACE_serve.json`.
///
/// The emitted trace is validated before this returns: it must parse, and it must
/// carry at least one span per inference worker plus at least one `scrub_sweep`,
/// one `rotation_tick` and one `strike_mount` span on the batcher row. A trace
/// that fails validation is a bug, so this panics (CI runs it via
/// `run_serve --trace` and the panic fails the job).
pub fn trace(prepared: &mut Prepared, params: &ServeBenchParams) -> PathBuf {
    let kind = prepared.kind;
    let budget = prepared.budget;
    let group_size = kind.table3_groups()[kind.table3_groups().len() / 2];

    let signer = fresh_model(kind, budget);
    let num_layers = signer.num_layers();
    let mut cfg = ServeConfig {
        strict_batching: true,
        window: params.window,
        scrub_layers: num_layers.div_ceil(5),
        ..ServeConfig::default()
    }
    .from_env()
    .with_obs(ObsLevel::Full);
    // Arm key rotation so the batcher row shows rotation ticks next to its scrub
    // sweeps and the strike mount.
    cfg.rotate_every = 2;

    let total_batches = params.requests.div_ceil(cfg.max_batch);
    let attack_at_batch = (total_batches / 3).clamp(
        usize::from(total_batches > 1),
        total_batches.saturating_sub(1),
    );
    let profile = attack_profile(prepared, budget.n_bits);
    let schedule = TrafficSchedule::new(params.traffic_seed, params.requests);
    let eval = prepared.eval_set();

    let models = radar_serve::replicas(cfg.workers, || fresh_model(kind, budget));
    let protection = RadarProtection::new(&signer, RadarConfig::paper_default(group_size));
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let timeline = AttackTimeline::new(vec![MountEvent {
        at_batch: attack_at_batch,
        injector: RowhammerInjector::default(),
        profile,
        seed: 0xA77A_C000 + attack_at_batch as u64,
    }]);
    eprintln!(
        "[serve] traced scenario: {} requests, {} workers, strike at batch {attack_at_batch}, rotate_every {}",
        params.requests, cfg.workers, cfg.rotate_every
    );
    let outcome = serve(
        models,
        Some(protection),
        dram,
        &eval,
        &schedule,
        timeline,
        &cfg,
    );

    let trace = chrome_trace(&outcome.obs, "radar-serve traced");
    let summary = validate_chrome_trace(&trace.render()).expect("own trace export must validate");
    for w in 0..cfg.workers {
        let row = format!("worker-{w}");
        assert!(
            summary.spans_on(&row) >= 1,
            "trace is missing spans on {row} ({} spans total)",
            summary.total_spans
        );
    }
    for span in ["scrub_sweep", "rotation_tick", "strike_mount"] {
        assert!(
            summary.spans_named("batcher", span) >= 1,
            "trace is missing a {span} span on the batcher row ({} spans total)",
            summary.total_spans
        );
    }

    eprintln!(
        "[serve] trace: {} spans, {} instants",
        summary.total_spans, summary.total_instants
    );
    write_artifact("TRACE_serve.json", &trace)
}

impl ServeBenchOutcome {
    /// Renders the serving campaign as a human-readable table.
    pub fn report(&self) -> Report {
        let mut report = Report::new(&format!(
            "Online serving — {} scenarios on {} ({} req/scenario, {} workers, batch {}, clean {:.2}%)",
            self.scenarios.len(),
            self.model,
            self.scenarios.first().map_or(0, |s| s.outcome.requests),
            self.config.workers,
            self.config.max_batch,
            self.clean_accuracy
        ));
        report.row(&[
            "scenario".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "rps".into(),
            "ttd batches".into(),
            "ttd req".into(),
            "zeroed".into(),
            "acc %".into(),
            "min win %".into(),
            "last win %".into(),
        ]);
        for s in &self.scenarios {
            let o = &s.outcome;
            let (ttd_b, ttd_r) = o.time_to_detect.map_or(("-".into(), "-".into()), |t| {
                (t.batches.to_string(), t.requests.to_string())
            });
            report.row(&[
                s.name.into(),
                format!("{:.2}", o.latency.quantile_ns(0.5) / 1e6),
                format!("{:.2}", o.latency.quantile_ns(0.99) / 1e6),
                format!("{:.1}", o.throughput_rps),
                ttd_b,
                ttd_r,
                o.recovery.groups_zeroed.to_string(),
                format!("{:.2}", o.overall_percent()),
                format!("{:.2}", o.min_window_percent()),
                format!("{:.2}", o.final_window_percent()),
            ]);
        }
        report.line(format!(
            "strike at batch {} ({} flips, G={})",
            self.attack_at_batch, self.n_flips, self.group_size
        ));
        report
    }

    /// The serving campaign as the `BENCH_serve.json` document.
    pub fn to_json(&self) -> JsonValue {
        let scenarios: Vec<JsonValue> = self
            .scenarios
            .iter()
            .map(|s| {
                let o = &s.outcome;
                let ms = |q: f64| o.latency.quantile_ns(q) / 1e6;
                let attack = o.attack.as_ref().map(|a| {
                    JsonValue::object()
                        .with("strikes", a.strikes)
                        .with("first_batch", a.first_batch)
                        .with("flips_attempted", a.mount.flips_attempted())
                        .with("flips_landed", a.mount.flips_landed)
                        .with("rows_hammered", a.mount.rows_hammered)
                });
                let ttd = o.time_to_detect.map(|t| {
                    JsonValue::object()
                        .with("batches", t.batches)
                        .with("requests", t.requests)
                        .with("seconds", t.seconds)
                        .with("via_scrub", t.via_scrub)
                });
                let windows: Vec<JsonValue> = o
                    .windows
                    .iter()
                    .map(|w| {
                        JsonValue::object()
                            .with("start", w.start)
                            .with("end", w.end)
                            .with("accuracy_percent", w.percent())
                    })
                    .collect();
                JsonValue::object()
                    .with("name", s.name)
                    .with("inpath_verify", s.inpath_verify)
                    .with("scrub", s.scrub)
                    .with("protected", s.protected)
                    .with("requests", o.requests)
                    .with("batches", o.batches)
                    .with("wall_seconds", o.wall_seconds)
                    .with("throughput_rps", o.throughput_rps)
                    .with(
                        "latency_ms",
                        JsonValue::object()
                            .with("p50", ms(0.5))
                            .with("p90", ms(0.9))
                            .with("p99", ms(0.99))
                            .with("mean", o.latency.mean_ns() / 1e6)
                            .with("max", o.latency.max_ns() as f64 / 1e6),
                    )
                    .with("verify_duty", o.verify_duty)
                    .with("scrub_duty", o.scrub_duty)
                    .with("attack", attack)
                    .with("time_to_detect", ttd)
                    .with(
                        "recovery",
                        JsonValue::object()
                            .with("groups_zeroed", o.recovery.groups_zeroed)
                            .with("weights_zeroed", o.recovery.weights_zeroed),
                    )
                    .with("served_accuracy_percent", o.overall_percent())
                    .with("min_window_accuracy_percent", o.min_window_percent())
                    .with("final_window_accuracy_percent", o.final_window_percent())
                    .with("served_accuracy_windows", windows)
            })
            .collect();
        JsonValue::object()
            .with("model", self.model.as_str())
            .with("clean_accuracy_percent", self.clean_accuracy)
            .with("workers", self.config.workers)
            .with("max_batch", self.config.max_batch)
            .with("queue_capacity", self.config.queue_capacity)
            .with("scrub_every", self.config.scrub_every)
            .with("scrub_layers", self.config.scrub_layers)
            .with("window_requests", self.config.window)
            .with("group_size", self.group_size)
            .with("n_flips", self.n_flips)
            .with("attack_at_batch", self.attack_at_batch)
            .with("scenarios", scenarios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets_are_sane() {
        let run = ServeBenchParams::default_run();
        let smoke = ServeBenchParams::smoke();
        assert!(run.requests > smoke.requests);
        assert!(run.window > 0 && smoke.window > 0);
        assert_eq!(run.traffic_seed, smoke.traffic_seed, "same traffic stream");
        assert!(
            smoke.requests / smoke.window >= 4,
            "several windows in smoke"
        );
    }
}
