//! The traced run behind `--trace 1`: per-layer metrics for one workload.
//!
//! 1. Every session of the workload runs at `ObsLevel::Off` and again at `Full` on
//!    the same seed, back to back. Their logical outcomes must be identical (for
//!    serving: byte-identical journals), and the median paired throughput
//!    difference is `obs.trace_overhead_pct`. The engine's own spans and counters
//!    are read from the `Full` sessions' `ServeOutcome::obs`. The audit serves
//!    nothing, so its traced run adds a four-batch serving probe of the audited
//!    model (a strike, a scrub and a rotation tick included) for the engine's
//!    numbers at ResNet-18 scale.
//! 2. The workload's first batches (serving) or rounds (audit) are replayed
//!    single-threaded through each crate's public functions, with a
//!    benchmark-side span (name, start, end, parent, batch) around every call.
//!    Layer calls the workload itself never makes (a clean run recovers nothing,
//!    only the attack workload re-keys, the audit runs no forward) are timed once
//!    as probes at the end, so every layer reports on every workload's model.
//!
//! Both span sets are written to `TRACE_<workload>.json` as a Chrome trace, which
//! must pass `radar_obs::validate_chrome_trace`.

use std::fmt::Write as _;

use radar_attack::AttackProfile;
use radar_core::{DetectionReport, RadarConfig, RadarProtection, VERIFY_SWEEPS};
use radar_memsim::{DramGeometry, RowhammerInjector, WeightDram};
use radar_obs::{set_global_level, validate_chrome_trace, ObsLevel, Span, Stopwatch};
use radar_quant::QuantizedModel;
use radar_serve::{metric, recover_in_dram, ServeOutcome, TrafficSchedule};
use radar_tensor::{GEMM_CALLS, GEMM_PANELS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::audit;
use crate::outcome::Outcome;
use crate::registry::Workload;
use crate::serve::{self, ServeSpec, Served, SessionPlan};
use crate::setup::{mix, ModelSource, Setting, WORKERS};
use crate::stats::median;

/// The chrome-trace row (`tid`) of the replay spans; engine rows use
/// `radar_obs::Tid` ordinals, which stay below this.
const REPLAY_TID: u32 = 900;

/// One benchmark-side span of the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSpan {
    /// The layer call (`crate.function`).
    pub name: &'static str,
    /// Start, in ns since the replay began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The batch (serving) or round (audit) the call served: the request id its
    /// spans share.
    pub unit: u64,
    /// The layer index for per-layer calls.
    pub layer: Option<usize>,
}

/// Collects nested spans on one thread.
struct Recorder {
    clock: Stopwatch,
    spans: Vec<BenchSpan>,
    stack: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one; close it with
    /// [`close`](Self::close).
    fn open(&mut self, name: &'static str, unit: u64, layer: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(BenchSpan {
            name,
            start_ns: self.clock.elapsed_ns(),
            dur_ns: 0,
            parent: self.stack.last().copied(),
            unit,
            layer,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, `id`.
    fn close(&mut self, id: usize) {
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        let span = &mut self.spans[id];
        span.dur_ns = self.clock.elapsed_ns().saturating_sub(span.start_ns);
    }

    /// Runs `f` inside a span; spans opened inside `f` become its children.
    fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        layer: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.open(name, unit, layer);
        let result = f(self);
        self.close(id);
        result
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a BenchSpan> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans called `name`, in ms (0 when there are none).
    fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .named(name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        total as f64 / n.max(1) as f64 / 1e6
    }

    /// Total duration of the spans called `name`, in seconds.
    fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9
    }
}

/// Self time of every span: its duration minus the part of it its children cover.
pub fn self_times(spans: &[BenchSpan]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.start_ns + span.dur_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.start_ns + span.dur_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns - covered.min(span.dur_ns)
        })
        .collect()
}

/// Per-layer counters of a replay.
#[derive(Debug, Default)]
struct Counts {
    passes: u64,
    sweeps: u64,
    forwards: u64,
    gemm_calls: u64,
    gemm_panels: u64,
    bytes_per_pass: usize,
}

/// The state a replay drives: one build, timed call by call.
struct Replay {
    rec: Recorder,
    model: QuantizedModel,
    protection: RadarProtection,
    dram: WeightDram,
    snapshot: Vec<Vec<i8>>,
    copy: Vec<Vec<i8>>,
    acc: Vec<i32>,
    counts: Counts,
    recovered: bool,
}

impl Replay {
    /// Builds the model, its protection and its DRAM image under setup spans, and
    /// arms the kernels' global counters.
    fn build(source: &ModelSource, group_size: usize) -> Result<Replay, String> {
        set_global_level(ObsLevel::Full);
        let mut rec = Recorder::new();
        let float = rec.span("nn.load", 0, None, |_| source.float_model())?;
        let model = rec.span("quant.quantize", 0, None, |_| {
            QuantizedModel::new(Box::new(float))
        });
        let protection = rec.span("core.sign", 0, None, |_| {
            RadarProtection::new(&model, RadarConfig::paper_default(group_size))
        });
        let dram = rec.span("memsim.load", 0, None, |_| {
            WeightDram::load(&model, DramGeometry::default())
        });
        let layers = dram.num_layers();
        Ok(Replay {
            rec,
            counts: Counts {
                bytes_per_pass: dram.weight_bytes(),
                ..Counts::default()
            },
            model,
            protection,
            dram,
            snapshot: vec![Vec::new(); layers],
            copy: vec![Vec::new(); layers],
            acc: Vec::new(),
            recovered: false,
        })
    }

    fn mount(&mut self, unit: u64, profile: &AttackProfile, seed: u64) {
        let dram = &mut self.dram;
        self.rec.span("memsim.mount", unit, None, |_| {
            RowhammerInjector::default().mount(dram, profile, &mut StdRng::seed_from_u64(seed))
        });
    }

    /// A copy-only pass (the ceiling for the fused pass) and a fused fetch+verify
    /// pass with one child span per layer; recovers whatever the pass flags.
    fn fetch(&mut self, unit: u64) {
        let Replay {
            rec,
            protection,
            dram,
            snapshot,
            copy,
            acc,
            counts,
            ..
        } = self;
        rec.span("memsim.fetch", unit, None, |_| {
            for (layer, buf) in copy.iter_mut().enumerate() {
                dram.read_layer_into(layer, buf);
            }
        });
        let sweeps = VERIFY_SWEEPS.get();
        let epoch = protection.current_epoch();
        let report = rec.span("core.fetch_verify", unit, None, |rec| {
            let mut report = DetectionReport::default();
            for (layer, buf) in snapshot.iter_mut().enumerate() {
                rec.span("core.fetch_verify_layer", unit, Some(layer), |_| {
                    report.merge(&protection.fetch_verify_layer_at_epoch_with_scratch(
                        epoch,
                        layer,
                        dram.layer_bytes(layer),
                        buf,
                        acc,
                    ));
                });
            }
            report
        });
        counts.sweeps += VERIFY_SWEEPS.get() - sweeps;
        counts.passes += 1;
        if report.attack_detected() {
            rec.span("core.recover", unit, None, |_| {
                recover_in_dram(protection, dram, &report);
            });
            for (layer, buf) in snapshot.iter_mut().enumerate() {
                dram.read_layer_into(layer, buf);
            }
            self.recovered = true;
        }
    }

    fn forward(&mut self, unit: u64, eval: &radar_data::Dataset, batch: &[usize]) {
        let subset = eval.subset(batch);
        let (calls, panels) = (GEMM_CALLS.get(), GEMM_PANELS.get());
        let Replay {
            rec,
            model,
            snapshot,
            counts,
            ..
        } = self;
        rec.span("quant.forward", unit, None, |_| {
            model.forward_with_values(snapshot, subset.images())
        });
        counts.forwards += 1;
        counts.gemm_calls += GEMM_CALLS.get() - calls;
        counts.gemm_panels += GEMM_PANELS.get() - panels;
    }

    /// One full key roll: begin, verify-then-re-sign every layer, publish, retire.
    fn roll(&mut self, unit: u64) {
        let Replay {
            rec,
            protection,
            dram,
            copy,
            acc,
            ..
        } = self;
        rec.span("core.resign", unit, None, |_| {
            protection.begin_rotation();
            while let Some(layer) = protection.next_unsigned_layer() {
                dram.read_layer_into(layer, &mut copy[layer]);
                let report = protection.verify_layer_values_with_scratch(layer, &copy[layer], acc);
                debug_assert!(!report.attack_detected(), "re-signing a flagged layer");
                protection.resign_layer(layer, &copy[layer]);
            }
            protection.publish_epoch();
            protection.retire_previous();
        });
    }
}

/// Replays a serving workload's first batches (session 0's traffic and strikes).
fn replay_serve(served: &Served<'_>, plan: &SessionPlan, batches: usize) -> Result<Replay, String> {
    let mut replay = Replay::build(served.model, served.group_size)?;
    let samples = plan.schedule.sample_indices(served.eval.len());
    for (b, batch) in samples
        .chunks(served.spec.max_batch)
        .take(batches)
        .enumerate()
    {
        let unit = b as u64;
        let root = replay.rec.open("batch", unit, None);
        for &(_, seed) in plan.strikes.iter().filter(|(at, _)| *at == b) {
            replay.mount(unit, served.strike, seed);
        }
        replay.fetch(unit);
        replay.forward(unit, served.eval, batch);
        replay.rec.close(root);
    }
    let end = batches as u64;
    if !replay.recovered {
        replay.mount(end, served.strike, mix(plan.schedule.seed, end));
        replay.fetch(end);
    }
    replay.roll(end);
    Ok(replay)
}

/// Replays the audit's first rounds (session 0's profiles, drawn against the
/// replay's own model); returns the replay and the rounds.
fn replay_audit(setting: &Setting, seed: u64) -> Result<(Replay, Vec<audit::Round>), String> {
    let mut replay = Replay::build(&setting.audit_model, setting.audit_group)?;
    let rounds = audit::plan_rounds(&mut replay.model, seed, 0, setting.sizing.replay);
    for (r, round) in rounds.iter().enumerate() {
        let unit = r as u64;
        let root = replay.rec.open("round", unit, None);
        replay.mount(unit, &round.profile, round.mount_seed);
        replay.fetch(unit);
        replay.rec.close(root);
    }
    let end = rounds.len() as u64;
    replay.roll(end);
    // The audit serves nothing; one batch of its probe traffic times the forward.
    let batch: Vec<usize> = (0..setting.audit_eval.len().min(8)).collect();
    replay.forward(end, &setting.audit_eval, &batch);
    Ok((replay, rounds))
}

/// The engine-side numbers of a `Full` run.
fn engine_metrics(out: &mut Outcome, outcomes: &[ServeOutcome]) {
    let spans: Vec<&Span> = outcomes.iter().flat_map(|o| o.obs.spans.iter()).collect();
    let mean_ms = |name: &str| {
        let (n, total) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        (n > 0).then(|| total as f64 / n as f64 / 1e6)
    };
    let ticket_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "ticket_wait")
        .map(|s| s.dur_ns)
        .sum();
    let worker_ns: f64 = outcomes
        .iter()
        .map(|o| o.wall_seconds * 1e9 * WORKERS as f64)
        .sum();
    let counter = |name: &str| -> f64 {
        outcomes
            .iter()
            .map(|o| o.obs.registry.counter_sum(name) as f64)
            .sum()
    };
    let (requests, batches) = outcomes
        .iter()
        .fold((0, 0), |(r, b), o| (r + o.requests, b + o.batches));
    out.metric("serve.ticket_wait_share", ticket_ns as f64 / worker_ns);
    out.metric(
        "serve.snapshot_build_ms",
        mean_ms("snapshot_build").unwrap_or(f64::NAN),
    );
    out.metric("serve.infer_ms", mean_ms("infer").unwrap_or(f64::NAN));
    out.metric("serve.scrub_ms", mean_ms("scrub_sweep").unwrap_or(f64::NAN));
    out.metric(
        "serve.batch_size_mean",
        requests as f64 / batches.max(1) as f64,
    );
    out.metric(
        "serve.snapshot_reclaim_ratio",
        counter(metric::SNAPSHOT_RECLAIMS) / counter(metric::SNAPSHOT_PUBLISHES),
    );
    out.metric(
        "serve.verify_duty_pct",
        100.0 * counter(metric::VERIFY_NS) / counter(metric::INFER_NS),
    );
    for (name, span) in [
        ("serve.rotation_tick_ms", "rotation_tick"),
        ("serve.strike_mount_ms", "strike_mount"),
    ] {
        if let Some(ms) = mean_ms(span) {
            out.extra(name, ms, "ms", false);
        }
    }
}

/// The replay's numbers.
fn replay_metrics(out: &mut Outcome, replay: &Replay) {
    let rec = &replay.rec;
    let c = &replay.counts;
    let bytes = c.bytes_per_pass as f64;
    for (name, span) in [
        ("nn.load_ms", "nn.load"),
        ("quant.quantize_ms", "quant.quantize"),
        ("core.sign_ms", "core.sign"),
        ("memsim.load_ms", "memsim.load"),
        ("core.fetch_verify_ms", "core.fetch_verify"),
        ("core.recover_ms", "core.recover"),
        ("core.resign_ms", "core.resign"),
        ("memsim.mount_ms", "memsim.mount"),
        ("quant.forward_ms", "quant.forward"),
    ] {
        out.metric(name, rec.mean_ms(span));
    }
    let passes = c.passes.max(1) as f64;
    out.metric(
        "core.verify_gbps",
        bytes * passes / rec.total_secs("core.fetch_verify") / 1e9,
    );
    out.metric(
        "memsim.fetch_gbps",
        bytes * passes / rec.total_secs("memsim.fetch") / 1e9,
    );
    out.metric("core.verify_sweeps", c.sweeps as f64 / passes);
    let forwards = c.forwards.max(1) as f64;
    out.metric("tensor.gemm_calls", c.gemm_calls as f64 / forwards);
    out.metric("tensor.gemm_panels", c.gemm_panels as f64 / forwards);
}

/// Renders engine spans and replay spans as one Chrome trace.
fn chrome_trace(title: &str, engine: &[Span], replay: &[BenchSpan]) -> String {
    let mut events = vec![format!(
        r#"{{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{{"name":"{title} engine (Full)"}}}}"#
    )];
    let mut rows: Vec<_> = engine.iter().map(|s| s.tid).collect();
    rows.sort();
    rows.dedup();
    for tid in rows {
        events.push(format!(
            r#"{{"ph":"M","pid":1,"tid":{},"name":"thread_name","args":{{"name":"{}"}}}}"#,
            tid.ordinal(),
            tid.name()
        ));
    }
    for s in engine {
        events.push(format!(
            r#"{{"ph":"X","pid":1,"tid":{},"name":"{}","ts":{:.3},"dur":{:.3},"args":{{"batch":{}}}}}"#,
            s.tid.ordinal(),
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.batch
        ));
    }
    events.push(format!(
        r#"{{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{{"name":"{title} replay"}}}}"#
    ));
    events.push(format!(
        r#"{{"ph":"M","pid":2,"tid":{REPLAY_TID},"name":"thread_name","args":{{"name":"replay"}}}}"#
    ));
    let self_ns = self_times(replay);
    for (id, s) in replay.iter().enumerate() {
        let mut args = format!(
            r#""id":{id},"batch":{},"self_us":{:.3}"#,
            s.unit,
            self_ns[id] as f64 / 1e3
        );
        if let Some(parent) = s.parent {
            let _ = write!(args, r#","parent":{parent}"#);
        }
        if let Some(layer) = s.layer {
            let _ = write!(args, r#","layer":{layer}"#);
        }
        events.push(format!(
            r#"{{"ph":"X","pid":2,"tid":{REPLAY_TID},"name":"{}","ts":{:.3},"dur":{:.3},"args":{{{args}}}}}"#,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
        events.join(",\n")
    )
}

/// Writes and validates the trace; returns the validation failures, if any.
fn write_trace(
    setting: &Setting,
    workload: Workload,
    engine: &[Span],
    replay: &[BenchSpan],
) -> Result<Vec<String>, String> {
    let text = chrome_trace(workload.name(), engine, replay);
    let mut failures = Vec::new();
    match validate_chrome_trace(&text) {
        Ok(summary) => {
            let workers: usize = summary
                .spans_by_thread
                .iter()
                .filter(|(row, _)| row.starts_with("worker-"))
                .map(|(_, n)| n)
                .sum();
            if workers == 0 || summary.spans_on("replay") != replay.len() {
                failures.push(format!(
                    "trace lacks spans: {workers} on workers, {} of {} on the replay row",
                    summary.spans_on("replay"),
                    replay.len()
                ));
            }
        }
        Err(e) => failures.push(format!("trace does not validate: {e}")),
    }
    std::fs::create_dir_all(&setting.trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", setting.trace_dir.display()))?;
    let path = setting.trace_dir.join(format!("TRACE_{workload}.json"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace {}", path.display());
    Ok(failures)
}

/// A workload measured at `ObsLevel::Off` and at `Full`, session by session.
struct Paired {
    /// The `Off` run.
    off: Outcome,
    /// The `Full` run; its failures include any logical disagreement with `Off`.
    full: Outcome,
    /// Each session's throughput at `Off` and at `Full`.
    rates: Vec<(f64, f64)>,
    /// The `Full` run's serving sessions (the engine's spans and counters).
    engine: Vec<ServeOutcome>,
}

/// Serves `plans` at Off and at Full, interleaved; the journals must agree.
fn serve_paired(served: &Served<'_>, plans: &[SessionPlan]) -> Result<Paired, String> {
    let mut runs = serve::run(served, plans, &[ObsLevel::Off, ObsLevel::Full])?;
    let full = runs.pop().expect("one run per level");
    let off = runs.pop().expect("one run per level");
    let mut full_outcome = serve::outcome(&served.spec, &full);
    for (i, (a, b)) in off.outcomes.iter().zip(&full.outcomes).enumerate() {
        if a.obs.journal.logical_jsonl() != b.obs.journal.logical_jsonl() {
            full_outcome
                .failures
                .push(format!("session {i}: Off and Full journals differ"));
        }
    }
    Ok(Paired {
        off: serve::outcome(&served.spec, &off),
        full: full_outcome,
        rates: off
            .outcomes
            .iter()
            .zip(&full.outcomes)
            .map(|(a, b)| (a.throughput_rps, b.throughput_rps))
            .collect(),
        engine: full.outcomes,
    })
}

/// Audits at Off and at Full, interleaved; the flagged groups must agree. The
/// engine numbers come from a four-batch serving probe of the audited model.
fn audit_paired(
    setting: &Setting,
    seed: u64,
    probe_strike: &AttackProfile,
) -> Result<Paired, String> {
    let mut runs = audit::run(setting, seed, &[ObsLevel::Off, ObsLevel::Full])?;
    let full_run = runs.pop().expect("one run per level");
    let off_run = runs.pop().expect("one run per level");
    let mut full = audit::outcome(&full_run);
    if off_run.flagged != full_run.flagged {
        full.failures
            .push("Off and Full audits flagged different groups".into());
    }
    let probe = Served {
        spec: ServeSpec {
            max_batch: 8,
            scrub_every: 1,
            rotate_every: 1,
            strikes: 1,
        },
        model: &setting.audit_model,
        group_size: setting.audit_group,
        eval: &setting.audit_eval,
        strike: probe_strike,
    };
    // Four batches: enough for a retired snapshot to be reclaimed.
    let plans = [SessionPlan {
        schedule: TrafficSchedule::new(mix(seed, u64::MAX), 32),
        strikes: vec![(1, mix(seed, 1))],
    }];
    let served = serve_paired(&probe, &plans)?;
    absorb(&mut full, served.off);
    absorb(&mut full, served.full);
    Ok(Paired {
        off: audit::outcome(&off_run),
        full,
        rates: off_run
            .session_rate
            .iter()
            .copied()
            .zip(full_run.session_rate.iter().copied())
            .collect(),
        engine: served.engine,
    })
}

/// Folds a measured run's attempts and failures into `out`.
fn absorb(out: &mut Outcome, run: Outcome) {
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.failures.extend(run.failures);
}

/// The traced run of `workload`.
pub fn run(workload: Workload, setting: &Setting, seed: u64) -> Result<Outcome, String> {
    let (paired, replay) = if workload == Workload::AuditR18 {
        let (replay, rounds) = replay_audit(setting, seed)?;
        (audit_paired(setting, seed, &rounds[0].profile)?, replay)
    } else {
        let served = Served::of(workload, setting);
        let plans = SessionPlan::for_run(
            &served.spec,
            setting.sizing.requests,
            setting.sizing.sessions,
            seed,
        );
        let paired = serve_paired(&served, &plans)?;
        (
            paired,
            replay_serve(&served, &plans[0], setting.sizing.replay)?,
        )
    };
    let Paired {
        off,
        full,
        rates,
        engine,
    } = paired;
    let mut out = Outcome::default();
    set_global_level(ObsLevel::Off);
    // Each session ran at Off and then at Full back to back; the median of the
    // paired slowdowns is the tracing cost, with host drift between sessions
    // cancelled.
    let slowdowns: Vec<f64> = rates.iter().map(|(off, full)| 1.0 - full / off).collect();
    out.metric("obs.trace_overhead_pct", 100.0 * median(&slowdowns));
    absorb(&mut out, off);
    absorb(&mut out, full);
    engine_metrics(&mut out, &engine);
    replay_metrics(&mut out, &replay);

    let spans: &[Span] = engine.first().map_or(&[], |o| &o.obs.spans);
    let failures = write_trace(setting, workload, spans, &replay.rec.spans)?;
    out.failures.extend(failures);
    let self_ns = self_times(&replay.rec.spans);
    let mut by_name: Vec<(&'static str, u64)> = Vec::new();
    for (span, ns) in replay.rec.spans.iter().zip(self_ns) {
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += ns,
            None => by_name.push((span.name, ns)),
        }
    }
    for (name, ns) in by_name {
        println!("self {name} {} ms", ns as f64 / 1e6);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, dur_ns: u64, parent: Option<usize>) -> BenchSpan {
        BenchSpan {
            name: "s",
            start_ns,
            dur_ns,
            parent,
            unit: 0,
            layer: None,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(25, 15, Some(0)), // overlaps the first child by 5
            span(12, 5, Some(1)),
            span(200, 10, None),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 15, 5, 10]);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let value = rec.span("outer", 3, None, |rec| {
            rec.span("inner", 3, Some(1), |_| 7) + 1
        });
        assert_eq!(value, 8);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].dur_ns >= rec.spans[1].dur_ns);
        assert_eq!(rec.named("inner").count(), 1);
    }
}
