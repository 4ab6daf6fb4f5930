//! The `audit_r18` workload: integrity-audit rounds over the paper-width ResNet-18
//! (the paper's Table IV setting). No inference runs; every round
//!
//! 1. mounts a seeded 10-flip MSB profile on the DRAM image through
//!    `RowhammerInjector`,
//! 2. runs a full-image fused fetch+verify, and
//! 3. recovers the flagged groups in DRAM with `recover_in_dram`.
//!
//! The timed round is those three steps. After it, untimed, the recovered image
//! must re-verify clean, and before the first round the clean image must verify
//! clean.

use radar_attack::{AttackProfile, RandomBitFlip};
use radar_core::{DetectionReport, RadarProtection};
use radar_memsim::{RowhammerInjector, WeightDram};
use radar_obs::{set_global_level, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;
use radar_serve::recover_in_dram;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::outcome::Outcome;
use crate::setup::{mix, Build, Setting};
use crate::stats::{median, nearest_rank};

/// Flips mounted per round.
pub const FLIPS_PER_ROUND: usize = 10;

/// One round's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// The flips to mount.
    pub profile: AttackProfile,
    /// Seed of the injector's RNG.
    pub mount_seed: u64,
}

/// Draws `rounds` seeded MSB profiles for session `session` against `model`
/// (which is flipped and flipped back, so it ends unchanged).
pub fn plan_rounds(
    model: &mut QuantizedModel,
    seed: u64,
    session: usize,
    rounds: usize,
) -> Vec<Round> {
    let attack = RandomBitFlip::new(FLIPS_PER_ROUND).msb_only();
    (0..rounds)
        .map(|r| {
            let stream = mix(mix(seed, session as u64), r as u64);
            let profile = attack.attack(model, &mut StdRng::seed_from_u64(stream));
            profile.apply(model);
            Round {
                profile,
                mount_seed: mix(stream, 1),
            }
        })
        .collect()
}

/// One full fused fetch+verify sweep of the image under the current epoch.
pub fn sweep(
    protection: &RadarProtection,
    dram: &WeightDram,
    buffers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let epoch = protection.current_epoch();
    let mut report = DetectionReport::default();
    for (layer, buf) in buffers.iter_mut().enumerate() {
        report.merge(&protection.fetch_verify_layer_at_epoch_with_scratch(
            epoch,
            layer,
            dram.layer_bytes(layer),
            buf,
            acc,
        ));
    }
    report
}

/// Whether every layer `report` flagged verifies clean after recovery. The other
/// layers verified clean in the same sweep and recovery writes only flagged
/// layers, so this is a re-verification of the whole image.
fn reverifies_clean(
    protection: &RadarProtection,
    dram: &WeightDram,
    report: &DetectionReport,
    buffers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> bool {
    let epoch = protection.current_epoch();
    let mut layers: Vec<usize> = report.flagged.iter().map(|f| f.layer).collect();
    layers.dedup();
    layers.into_iter().all(|layer| {
        !protection
            .fetch_verify_layer_at_epoch_with_scratch(
                epoch,
                layer,
                dram.layer_bytes(layer),
                &mut buffers[layer],
                acc,
            )
            .attack_detected()
    })
}

/// The measurements of one run at one observability level.
#[derive(Default)]
pub struct AuditRun {
    /// Wall time of each session's set-up.
    pub setup_secs: Vec<f64>,
    /// Every round's duration, in seconds.
    pub round_secs: Vec<f64>,
    /// Rounds per second of each session.
    pub session_rate: Vec<f64>,
    /// Injected flips whose group was flagged.
    pub detected: usize,
    /// Injected flips.
    pub flips: usize,
    /// Rounds whose recovered image did not re-verify clean.
    pub failed_rounds: usize,
    /// Weight bytes one sweep reads.
    pub image_bytes: usize,
    /// Correctness gates that failed.
    pub failures: Vec<String>,
    /// Per-round flagged-group counts, the run's logical outcome.
    pub flagged: Vec<usize>,
}

/// Runs every session of the audit once at each of `levels` (the level gates the
/// verify-sweep counter), interleaved session by session; returns one run per
/// level.
pub fn run(setting: &Setting, seed: u64, levels: &[ObsLevel]) -> Result<Vec<AuditRun>, String> {
    let mut runs: Vec<AuditRun> = levels.iter().map(|_| AuditRun::default()).collect();
    for session in 0..setting.sizing.sessions {
        for (&level, run) in levels.iter().zip(&mut runs) {
            set_global_level(level);
            run_session(setting, seed, session, run)?;
        }
    }
    Ok(runs)
}

fn run_session(
    setting: &Setting,
    seed: u64,
    session: usize,
    run: &mut AuditRun,
) -> Result<(), String> {
    let (mut build, secs) = Build::timed(&setting.audit_model, setting.audit_group, 0)?;
    run.setup_secs.push(secs);
    let rounds = plan_rounds(&mut build.signer, seed, session, setting.sizing.rounds);
    let Build {
        mut protection,
        mut dram,
        ..
    } = build;
    run.image_bytes = dram.weight_bytes();
    let mut buffers = vec![Vec::new(); dram.num_layers()];
    let mut acc = Vec::new();
    if sweep(&protection, &dram, &mut buffers, &mut acc).attack_detected() {
        run.failures
            .push(format!("session {session}: the clean image was flagged"));
    }
    let injector = RowhammerInjector::default();
    let mut session_secs = 0.0;
    for round in &rounds {
        let clock = Stopwatch::start();
        injector.mount(
            &mut dram,
            &round.profile,
            &mut StdRng::seed_from_u64(round.mount_seed),
        );
        let report = sweep(&protection, &dram, &mut buffers, &mut acc);
        recover_in_dram(&mut protection, &mut dram, &report);
        let secs = clock.elapsed_secs();
        session_secs += secs;
        run.round_secs.push(secs);

        let locations: Vec<(usize, usize)> = round
            .profile
            .flips
            .iter()
            .map(|f| (f.layer, f.weight))
            .collect();
        run.detected += protection.count_covered(&report, &locations);
        run.flips += locations.len();
        run.flagged.push(report.num_flagged());
        if !reverifies_clean(&protection, &dram, &report, &mut buffers, &mut acc) {
            run.failed_rounds += 1;
        }
    }
    run.session_rate
        .push(rounds.len() as f64 / session_secs.max(f64::MIN_POSITIVE));
    Ok(())
}

/// The end-to-end metrics of a run.
pub fn outcome(run: &AuditRun) -> Outcome {
    let mut sorted = run.round_secs.clone();
    sorted.sort_by(f64::total_cmp);
    let total_secs: f64 = run.round_secs.iter().sum();
    let mut result = Outcome::new(sorted.len() as u64, run.failures.clone());
    result.failed = run.failed_rounds as u64;
    result.metric("setup_s", median(&run.setup_secs));
    result.metric("ops_per_s", median(&run.session_rate));
    result.metric("op_p50_ms", nearest_rank(&sorted, 0.5) * 1e3);
    result.metric("op_p95_ms", nearest_rank(&sorted, 0.95) * 1e3);
    result.metric(
        "correct_pct",
        100.0 * run.detected as f64 / run.flips.max(1) as f64,
    );
    result.extra(
        "audit_gbps",
        (run.image_bytes * sorted.len()) as f64 / total_secs / 1e9,
        "GB/s",
        false,
    );
    result.extra("round_samples", sorted.len() as f64, "count", false);
    result.extra("detected_flips", run.detected as f64, "count", true);
    result.extra(
        "failed_pct",
        100.0 * run.failed_rounds as f64 / sorted.len().max(1) as f64,
        "%",
        true,
    );
    result
}
