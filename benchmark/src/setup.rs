//! What a run is made of: the model it protects, the inputs its seed generates, and
//! the set-up every session pays (the `setup_s` metric).

use std::path::{Path, PathBuf};

use radar_attack::AttackProfile;
use radar_core::{RadarConfig, RadarProtection};
use radar_data::{Dataset, SyntheticSpec};
use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{load_params, resnet18, resnet20, ResNetConfig, Sequential};
use radar_obs::Stopwatch;
use radar_quant::QuantizedModel;

use crate::fixtures::{self, Fixtures};
use crate::registry::Workload;

/// Inference workers of every serving session.
pub const WORKERS: usize = 2;
/// Sessions per run; each pays one timed set-up, so `setup_s` is a median of this
/// many builds.
pub const SESSIONS: usize = 5;
/// Evaluation samples the serving traffic draws from.
const EVAL_SAMPLES: usize = 400;
/// Group size protecting the ResNet-20 (the paper's CIFAR-10 setting).
const SERVE_GROUP: usize = 16;
/// Group size protecting the ResNet-18 (the paper's Table IV setting).
const AUDIT_GROUP: usize = 512;

/// The model architectures the benchmark builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The CIFAR-style ResNet-20.
    ResNet20,
    /// The ImageNet-style ResNet-18.
    ResNet18,
}

/// Where a model's float weights come from.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSource {
    /// Architecture.
    pub arch: Arch,
    /// Widths, classes and init seed.
    pub config: ResNetConfig,
    /// A trained checkpoint to load over the initial weights (`None`: untrained).
    pub checkpoint: Option<PathBuf>,
}

impl ModelSource {
    /// Builds the float model, loading the checkpoint when there is one.
    pub fn float_model(&self) -> Result<Sequential, String> {
        let mut model = match self.arch {
            Arch::ResNet20 => resnet20(&self.config),
            Arch::ResNet18 => resnet18(&self.config),
        };
        if let Some(path) = &self.checkpoint {
            load_params(&mut model, path)
                .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        }
        Ok(model)
    }

    /// Builds and quantizes the model.
    pub fn quantized(&self) -> Result<QuantizedModel, String> {
        Ok(QuantizedModel::new(Box::new(self.float_model()?)))
    }
}

/// One session's set-up: the signed model, its protection, its DRAM image and
/// the worker replicas.
pub struct Build {
    /// The model that was signed; its values are the clean weights.
    pub signer: QuantizedModel,
    /// Golden signatures of the clean weights.
    pub protection: RadarProtection,
    /// The weight image in the simulated DRAM.
    pub dram: WeightDram,
    /// One model replica per serving worker (empty for the audit).
    pub replicas: Vec<QuantizedModel>,
}

impl Build {
    /// Load (or initialize) → quantize → sign → load into DRAM → replicas,
    /// returning the build and its wall time in seconds.
    pub fn timed(
        source: &ModelSource,
        group_size: usize,
        replicas: usize,
    ) -> Result<(Build, f64), String> {
        let clock = Stopwatch::start();
        let signer = source.quantized()?;
        let protection = RadarProtection::new(&signer, RadarConfig::paper_default(group_size));
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let mut models = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            models.push(source.quantized()?);
        }
        let build = Build {
            signer,
            protection,
            dram,
            replicas: models,
        };
        Ok((build, clock.elapsed_secs()))
    }
}

/// How much work one run does. The sizes are fixed functions of `--seconds` (never
/// of elapsed time), so every logical outcome is a function of the seed and the
/// run length alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Sessions per run.
    pub sessions: usize,
    /// Requests per serving session.
    pub requests: usize,
    /// Rounds per audit session.
    pub rounds: usize,
    /// Batches (serving) or rounds (audit) the traced run replays layer by layer.
    pub replay: usize,
}

impl Sizing {
    /// The sizing of a benchmark run of `seconds`: the nominal rate of each
    /// workload on a 2-core x86-64 host times the run length.
    pub fn for_run(workload: Workload, seconds: u64) -> Sizing {
        let per_second = match workload {
            Workload::ServeB8 => 1_152,
            Workload::ServeB1 => 640,
            Workload::AttackRotate => 1_024,
            Workload::AuditR18 => 40,
        };
        let total = per_second * seconds.max(1) as usize;
        let per_session = total / SESSIONS;
        Sizing {
            sessions: SESSIONS,
            // Whole accuracy windows, so every window the oracle checks is full.
            requests: (per_session / 64).max(1) * 64,
            rounds: per_session.max(1),
            replay: match workload {
                Workload::AuditR18 => 100,
                _ => 256,
            },
        }
    }
}

/// Everything a run needs besides its seed: models, data and sizes.
pub struct Setting {
    /// The served model (the trained ResNet-20 fixture).
    pub serve_model: ModelSource,
    /// Group size protecting the served model.
    pub serve_group: usize,
    /// The evaluation pool the traffic draws from.
    pub eval: Dataset,
    /// The profile the attack workload strikes with (the PBFA fixture).
    pub strike: AttackProfile,
    /// The audited model (the untrained paper-width ResNet-18).
    pub audit_model: ModelSource,
    /// Group size protecting the audited model.
    pub audit_group: usize,
    /// Inputs for the traced run's probes of the audited model.
    pub audit_eval: Dataset,
    /// Sizes.
    pub sizing: Sizing,
    /// Where traced runs write their Chrome trace.
    pub trace_dir: PathBuf,
}

impl Setting {
    /// The benchmark's setting for `workload` over `seconds`.
    pub fn benchmark(fixtures: &Fixtures, workload: Workload, seconds: u64) -> Setting {
        let (_, test) = fixtures::cifar_spec().generate();
        let (_, audit_eval) = SyntheticSpec::imagenet_like().with_sizes(1, 16).generate();
        Setting {
            serve_model: ModelSource {
                arch: Arch::ResNet20,
                config: fixtures::resnet20_config(),
                checkpoint: Some(fixtures.checkpoint.clone()),
            },
            serve_group: SERVE_GROUP,
            eval: test.head(EVAL_SAMPLES),
            strike: fixtures.profile.clone(),
            audit_model: ModelSource {
                arch: Arch::ResNet18,
                config: ResNetConfig::resnet18_paper(SyntheticSpec::imagenet_like().num_classes),
                checkpoint: None,
            },
            audit_group: AUDIT_GROUP,
            audit_eval,
            sizing: Sizing::for_run(workload, seconds),
            trace_dir: Path::new("artifacts/benchmark").to_path_buf(),
        }
    }

    /// A toy-scale setting (tiny untrained models, a handful of requests) for the
    /// smoke tests.
    #[cfg(test)]
    pub fn toy(trace_dir: &Path) -> Setting {
        let spec = SyntheticSpec::tiny();
        let (_, test) = spec.generate();
        let tiny = ResNetConfig::tiny(spec.num_classes);
        // Single MSB flips in distinct layers: each is certain to be detected.
        let strike = AttackProfile {
            flips: (0..3)
                .map(|layer| radar_attack::BitFlip {
                    layer,
                    weight: 1,
                    bit: radar_quant::MSB,
                    direction: radar_attack::FlipDirection::ZeroToOne,
                    weight_before: 0,
                })
                .collect(),
            loss_before: 0.0,
            loss_after: 0.0,
        };
        Setting {
            serve_model: ModelSource {
                arch: Arch::ResNet20,
                config: tiny,
                checkpoint: None,
            },
            serve_group: SERVE_GROUP,
            eval: test.clone(),
            strike,
            audit_model: ModelSource {
                arch: Arch::ResNet18,
                config: tiny,
                checkpoint: None,
            },
            audit_group: 16,
            audit_eval: test,
            // One session of 64 requests: eight batches at batch 8, so the
            // scrubber (every fourth batch) runs.
            sizing: Sizing {
                sessions: 1,
                requests: 64,
                rounds: 4,
                replay: 4,
            },
            trace_dir: trace_dir.to_path_buf(),
        }
    }
}

/// Derives an independent stream seed from the run seed (SplitMix64 finalizer), so
/// sessions, strikes and rounds each get their own reproducible stream.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_scales_with_seconds_in_whole_windows() {
        let short = Sizing::for_run(Workload::ServeB8, 1);
        let long = Sizing::for_run(Workload::ServeB8, 15);
        assert_eq!(short.sessions, SESSIONS);
        assert!(long.requests > short.requests);
        assert_eq!(long.requests % 64, 0);
        assert!(Sizing::for_run(Workload::AuditR18, 15).rounds >= 100);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
