//! Observability contracts of the serve engine: the deterministic event journal
//! replays byte-identically per seed (including across a full rotation roll), and
//! scripted strikes the run never reached surface as a structured journal event
//! plus a counter instead of disappearing into stderr.

use std::time::Duration;

use radar_attack::{AttackProfile, BitFlip, FlipDirection};
use radar_core::{RadarConfig, RadarProtection};
use radar_memsim::{AttackTimeline, DramGeometry, MountEvent, RowhammerInjector, WeightDram};
use radar_nn::{resnet20, ResNetConfig};
use radar_quant::{QuantizedModel, MSB};
use radar_serve::{metric, replicas, serve, ServeConfig, ServeOutcome, TrafficSchedule};
use radar_tensor::Tensor;

fn tiny_model() -> QuantizedModel {
    QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))))
}

fn eval_set(samples: usize) -> radar_data::Dataset {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let images = Tensor::rand_normal(&mut rng, &[samples, 3, 8, 8], 0.0, 1.0);
    let labels = (0..samples).map(|i| i % 4).collect();
    radar_data::Dataset::new(images, labels).expect("label count matches")
}

fn profile(flips: &[(usize, usize)]) -> AttackProfile {
    AttackProfile {
        flips: flips
            .iter()
            .map(|&(layer, weight)| BitFlip {
                layer,
                weight,
                bit: MSB,
                direction: FlipDirection::ZeroToOne,
                weight_before: 0,
            })
            .collect(),
        loss_before: 0.0,
        loss_after: 0.0,
    }
}

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(200),
        strict_batching: true,
        queue_capacity: 16,
        inpath_verify: true,
        scrub_every: 3,
        scrub_layers: 5,
        rotate_every: 0,
        window: 8,
        ..ServeConfig::default()
    }
}

fn attacked_run(cfg: &ServeConfig, at_batch: usize) -> ServeOutcome {
    let signer = tiny_model();
    let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let eval = eval_set(16);
    let timeline = AttackTimeline::new(vec![MountEvent {
        at_batch,
        injector: RowhammerInjector::default(),
        profile: profile(&[(2, 5), (7, 0)]),
        seed: 1,
    }]);
    serve(
        replicas(cfg.workers, tiny_model),
        Some(protection),
        dram,
        &eval,
        &TrafficSchedule::new(7, 64),
        timeline,
        cfg,
    )
}

/// Two same-seed runs produce **byte-identical** logical journals — the strongest
/// replay statement the engine makes: every fetch, verify, detect, recover and
/// strike event lands at the same `(batch, track)` with the same payload,
/// regardless of how the OS scheduled the worker threads.
#[test]
fn same_seed_runs_replay_byte_identical_journals() {
    let cfg = engine_config();
    let a = attacked_run(&cfg, 4);
    let b = attacked_run(&cfg, 4);

    assert!(!a.obs.journal.is_empty(), "an attacked run journals events");
    let jsonl = a.obs.journal.logical_jsonl();
    assert_eq!(
        jsonl,
        b.obs.journal.logical_jsonl(),
        "replay must be byte-identical"
    );
    assert!(a.obs.journal.diff(&b.obs.journal).is_empty());
    // Every batch built and consumed one shared snapshot.
    for metric in [metric::SNAPSHOT_PUBLISHES, metric::SNAPSHOT_HITS] {
        assert_eq!(
            a.obs.registry.counter_sum(metric),
            a.batches as u64,
            "{metric}"
        );
    }

    // The journal is the run's logical record: the strike, its in-path detection
    // and the recovery all appear, keyed by batch — never by wall clock.
    assert!(jsonl.contains(r#""event":"strike""#));
    assert!(jsonl.contains(r#""event":"detect""#));
    assert!(jsonl.contains(r#""event":"recover""#));
    assert!(
        !jsonl.contains("at_seconds"),
        "logical lines carry no wall clock"
    );
}

/// Replay equality holds through a full online key roll: begin, every layer
/// re-signed, publish, retire — the rotation track journals the whole state
/// machine and two same-seed runs still agree byte-for-byte.
#[test]
fn full_rotation_roll_replays_byte_identical_journals() {
    let num_layers = tiny_model().num_layers();
    let run = || {
        let signer = tiny_model();
        let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let eval = eval_set(16);
        let cfg = engine_config().with_rotation(1);
        let requests = (num_layers + 8) * cfg.max_batch;
        let timeline = AttackTimeline::new(vec![MountEvent {
            at_batch: 4,
            injector: RowhammerInjector::default(),
            profile: profile(&[(2, 5), (7, 0)]),
            seed: 1,
        }]);
        serve(
            replicas(cfg.workers, tiny_model),
            Some(protection),
            dram,
            &eval,
            &TrafficSchedule::new(7, requests),
            timeline,
            &cfg,
        )
    };

    let a = run();
    let b = run();
    let jsonl = a.obs.journal.logical_jsonl();
    assert_eq!(jsonl, b.obs.journal.logical_jsonl());

    // The full epoch state machine is journaled on the rotate track.
    assert!(jsonl.contains(r#""event":"rotation.began","epoch":1"#));
    assert!(jsonl.contains(r#""event":"rotation.published","epoch":1"#));
    assert!(jsonl.contains(r#""event":"rotation.retired","epoch":0"#));
    let resigns = jsonl.matches(r#""event":"rotation.resigned""#).count();
    assert!(
        resigns >= num_layers,
        "every layer re-signed at least once ({resigns} < {num_layers})"
    );
}

/// A scripted strike whose batch offset the run never reaches is not silently
/// swallowed: service ends with a structured `strike_never_fired` journal event
/// and a counter naming how many mounts were left on the table — the test-design
/// smell (an attack script that never actually ran) is machine-checkable.
#[test]
fn unreached_scripted_strike_is_journaled_and_counted() {
    let cfg = engine_config();
    // 64 requests in batches of 4 → 16 batches; batch 1000 never arrives.
    let outcome = attacked_run(&cfg, 1000);

    assert!(outcome.attack.is_none(), "the strike must not have fired");
    assert!(outcome.detections.is_empty());
    assert_eq!(
        outcome
            .obs
            .registry
            .counter_sum(metric::STRIKES_NEVER_FIRED),
        1,
        "one scripted mount was never reached"
    );
    let jsonl = outcome.obs.journal.logical_jsonl();
    assert!(
        jsonl.contains(r#""event":"strike_never_fired","remaining":1"#),
        "journal must record the unfired strike; got:\n{jsonl}"
    );

    // A run that does reach its strike reports nothing on this channel.
    let fired = attacked_run(&cfg, 4);
    assert!(fired.attack.is_some());
    assert_eq!(
        fired.obs.registry.counter_sum(metric::STRIKES_NEVER_FIRED),
        0
    );
    assert!(!fired
        .obs
        .journal
        .logical_jsonl()
        .contains("strike_never_fired"));
}
