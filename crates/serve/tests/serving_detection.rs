//! Serving-time detection properties: flips that land *between* the layer fetches of
//! one inference are caught no later than the next scrub sweep, recovery stays
//! idempotent when the scrubber and the in-path check race on the same corruption,
//! the full engine replays its logical outcomes deterministically, and every served
//! answer matches a float-forward replay of the weights that batch must have seen.

use std::sync::RwLock;
use std::time::Duration;

use radar_attack::{AttackProfile, BitFlip, FlipDirection};
use radar_core::{DetectionReport, RadarConfig, RadarProtection};
use radar_memsim::{AttackTimeline, DramGeometry, MountEvent, RowhammerInjector, WeightDram};
use radar_nn::{argmax_rows, resnet20, ResNetConfig};
use radar_quant::{QuantizedModel, MSB};
use radar_serve::{recover_in_dram, replicas, serve, AccuracyWindow, ServeConfig, TrafficSchedule};
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

/// A flip that lands in a layer that was already fetched (and verified) this inference
/// escapes the in-path check of that inference, but the next scrub sweep over the
/// image catches and recovers it.
#[test]
fn mid_inference_flip_is_caught_by_the_next_scrub_sweep() {
    let mut model = tiny_model();
    let mut radar = RadarProtection::new(&model, RadarConfig::paper_default(32));
    let mut dram = WeightDram::load(&model, DramGeometry::default());
    let num_layers = model.num_layers();
    let victim = (2usize, 5usize);

    // One inference's layer-by-layer verified fetch, with the flip landing after the
    // victim layer's bytes already left DRAM.
    let mut inpath = DetectionReport::default();
    let mut acc = Vec::new();
    for layer in 0..num_layers {
        if layer == victim.0 + 3 {
            dram.flip_bit(dram.offset_of(victim.0, victim.1), MSB);
        }
        dram.fetch_layer_into(&mut model, layer);
        inpath.merge(&radar.verify_layer_values_with_scratch(
            layer,
            model.layer_values(layer),
            &mut acc,
        ));
    }
    assert!(
        !inpath.attack_detected(),
        "the in-path check of this inference ran before the flip landed"
    );

    // Background scrub: sweep the whole image in 4-layer steps; the sweep step that
    // covers the victim layer must flag and recover it.
    let mut buf = Vec::new();
    let mut caught = false;
    let mut cursor = 0usize;
    while cursor < num_layers {
        let mut sweep = DetectionReport::default();
        for layer in cursor..(cursor + 4).min(num_layers) {
            dram.read_layer_into(layer, &mut buf);
            sweep.merge(&radar.verify_layer_values_with_scratch(layer, &buf, &mut acc));
        }
        if sweep.attack_detected() {
            assert!(sweep.contains(victim.0, radar.group_of(victim.0, victim.1)));
            let recovery = recover_in_dram(&mut radar, &mut dram, &sweep);
            assert_eq!(recovery.groups_zeroed, 1);
            caught = true;
        }
        cursor += 4;
    }
    assert!(caught, "one full scrub cycle must cover every layer");

    // The image is clean again: the next inference's fetch verifies clean and
    // consumes the zeroed (recovered) weights.
    dram.fetch_into(&mut model);
    assert!(!radar.detect(&model).attack_detected());
    assert_eq!(model.layer_values(victim.0)[victim.1], 0);
}

/// The scrubber and an in-path detector race on the same corruption: both hold stale
/// reports naming the same groups, both attempt recovery — exactly one performs it.
#[test]
fn recovery_is_idempotent_under_concurrent_scrub_and_inpath_detection() {
    let model = tiny_model();
    let radar = RadarProtection::new(&model, RadarConfig::paper_default(16));
    let mut dram = WeightDram::load(&model, DramGeometry::default());
    let victim = (3usize, 11usize);
    dram.flip_bit(dram.offset_of(victim.0, victim.1), MSB);

    // Both detectors observe the corruption independently, before any recovery.
    let mut buf = Vec::new();
    dram.read_layer_into(victim.0, &mut buf);
    let scrub_report = radar.verify_layer_values_with_scratch(victim.0, &buf, &mut Vec::new());
    let inpath_report = scrub_report.clone();
    assert!(scrub_report.attack_detected());

    let radar = RwLock::new(radar);
    let dram = RwLock::new(dram);
    let totals: Vec<_> = std::thread::scope(|scope| {
        [scrub_report, inpath_report]
            .into_iter()
            .map(|report| {
                let (radar, dram) = (&radar, &dram);
                scope.spawn(move || {
                    let mut dram = dram.write().expect("dram lock");
                    let mut radar = radar.write().expect("radar lock");
                    recover_in_dram(&mut radar, &mut dram, &report)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("recovery thread panicked"))
            .collect()
    });

    let groups: usize = totals.iter().map(|r| r.groups_zeroed).sum();
    assert_eq!(groups, 1, "exactly one racer performs the recovery");
    let mut model = tiny_model();
    let dram = dram.into_inner().expect("dram lock");
    let radar = radar.into_inner().expect("radar lock");
    dram.fetch_into(&mut model);
    assert!(!radar.detect(&model).attack_detected());
    assert_eq!(model.layer_values(victim.0)[victim.1], 0);
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

/// In-path serving detects a mid-service strike at the very batch it lands before
/// (zero corrupted requests served), recovers in the DRAM image, and keeps serving.
#[test]
fn engine_detects_and_recovers_mid_service_strike_in_path() {
    let signer = tiny_model();
    let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let eval = eval_set(16);
    let cfg = engine_config();
    let timeline = AttackTimeline::new(vec![MountEvent {
        at_batch: 4,
        injector: RowhammerInjector::default(),
        profile: profile(&[(2, 5), (7, 0)]),
        seed: 1,
    }]);

    let outcome = serve(
        replicas(cfg.workers, tiny_model),
        Some(protection),
        dram,
        &eval,
        &TrafficSchedule::new(7, 64),
        timeline,
        &cfg,
    );

    assert_eq!(outcome.requests, 64);
    assert_eq!(outcome.batches, 16, "64 requests in full batches of 4");
    let attack = outcome.attack.as_ref().expect("strike mounted");
    assert_eq!(attack.first_batch, 4);
    assert_eq!(attack.mount.flips_landed, 2);
    let ttd = outcome.time_to_detect.expect("in-path detection");
    assert_eq!(ttd.batches, 0, "detected at the strike batch itself");
    assert_eq!(ttd.requests, 0, "no request served on corrupted weights");
    assert!(!ttd.via_scrub);
    assert!(outcome.recovery.groups_zeroed >= 1);
    assert!(outcome.latency.count() == 64);
    assert!(outcome.verify_seconds > 0.0);
}

/// With the fetch-path check disabled, the scrubber alone detects within one full
/// sweep cycle, and the run's logical outcome replays identically.
#[test]
fn engine_scrub_only_detects_within_a_cycle_and_replays_deterministically() {
    let run = || {
        let signer = tiny_model();
        let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
        let num_layers = signer.num_layers();
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let eval = eval_set(16);
        let cfg = engine_config().scrub_only();
        // The first sweep (at batch 3, layers 0..5) has already passed the victim layer
        // when the strike lands at batch 4, so detection must wait for the cursor to
        // wrap around — a genuinely delayed, scrub-paced detection.
        let timeline = AttackTimeline::new(vec![MountEvent {
            at_batch: 4,
            injector: RowhammerInjector::default(),
            profile: profile(&[(2, 5)]),
            seed: 2,
        }]);
        let outcome = serve(
            replicas(cfg.workers, tiny_model),
            Some(protection),
            dram,
            &eval,
            &TrafficSchedule::new(9, 96),
            timeline,
            &cfg,
        );
        (outcome, num_layers, cfg)
    };

    let (a, num_layers, cfg) = run();
    let ttd = a.time_to_detect.expect("scrubber detection");
    assert!(ttd.via_scrub);
    assert!(ttd.batches > 0, "scrub-only detection cannot be instant");
    let sweeps_per_cycle = num_layers.div_ceil(cfg.scrub_layers);
    let max_batches = cfg.scrub_every * (sweeps_per_cycle + 1);
    assert!(
        ttd.batches <= max_batches,
        "detected after {} batches; one cycle is at most {max_batches}",
        ttd.batches
    );
    assert!(a.recovery.groups_zeroed >= 1);
    assert!(a.scrub_seconds > 0.0);

    // Logical outcomes replay bit-identically; only wall-clock telemetry may differ.
    let (b, _, _) = run();
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.windows, b.windows);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(
        a.detections
            .iter()
            .map(|d| (d.batch, d.via_scrub, d.groups_flagged))
            .collect::<Vec<_>>(),
        b.detections
            .iter()
            .map(|d| (d.batch, d.via_scrub, d.groups_flagged))
            .collect::<Vec<_>>()
    );
    let logical_ttd =
        |o: &radar_serve::ServeOutcome| o.time_to_detect.map(|t| (t.batches, t.requests));
    assert_eq!(logical_ttd(&a), logical_ttd(&b));
}

/// The float-forward oracle lives here, not in the engine: every served batch is
/// replayed through `QuantizedModel::forward_float` on a replica holding the bytes
/// that batch must have seen — the clean image before the strike, and from the
/// strike batch on the image recovered offline (same mount seed, then a full
/// verify and `recover_in_dram`). Every served-accuracy window must match, for a
/// clean run and for an `attack_inpath` run. (The integer and float paths differ
/// only in where the scale rounding lands, which never moves an argmax on this
/// seeded traffic.)
///
/// The strike is one MSB flip in the classifier, chosen so the clean, corrupted
/// and recovered images each serve different window counts: a run that served the
/// strike batch before its recovery, or kept serving pre-strike bytes, fails here.
#[test]
fn served_windows_match_a_float_replay_of_the_expected_weights() {
    let classifier = tiny_model().num_layers() - 1;
    let strike = MountEvent {
        at_batch: 4,
        injector: RowhammerInjector::default(),
        profile: profile(&[(classifier, 0)]),
        seed: 1,
    };
    let cfg = engine_config();
    let eval = eval_set(16);
    let schedule = TrafficSchedule::new(7, 64);
    for strike in [None, Some(strike)] {
        let signer = tiny_model();
        let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let mut clean = tiny_model();
        dram.fetch_into(&mut clean);
        let recovered = strike.as_ref().map(|event| {
            let (mut radar, mut image) = (protection.clone(), dram.clone());
            assert!(event.mount(&mut image).flips_landed > 0);
            let mut replica = tiny_model();
            image.fetch_into(&mut replica);
            let report = radar.detect(&replica);
            assert!(report.attack_detected());
            recover_in_dram(&mut radar, &mut image, &report);
            image.fetch_into(&mut replica);
            (event.at_batch, replica)
        });
        let timeline = AttackTimeline::new(strike.into_iter().collect());
        let outcome = serve(
            replicas(cfg.workers, tiny_model),
            Some(protection),
            dram,
            &eval,
            &schedule,
            timeline,
            &cfg,
        );
        assert_eq!(outcome.attack.is_some(), recovered.is_some());

        let mut replays = (clean, recovered);
        let mut correct = Vec::new();
        let samples = schedule.sample_indices(eval.len());
        for (batch, ids) in samples.chunks(cfg.max_batch).enumerate() {
            let model = match &mut replays {
                (_, Some((at_batch, recovered))) if batch >= *at_batch => recovered,
                (clean, _) => clean,
            };
            let subset = eval.subset(ids);
            let predictions = argmax_rows(&model.forward_float(subset.images()));
            correct.extend(
                predictions
                    .iter()
                    .zip(subset.labels())
                    .map(|(prediction, label)| prediction == label),
            );
        }
        let expected: Vec<AccuracyWindow> = correct
            .chunks(cfg.window)
            .enumerate()
            .map(|(i, chunk)| AccuracyWindow {
                start: i * cfg.window,
                end: i * cfg.window + chunk.len(),
                correct: chunk.iter().filter(|&&c| c).count(),
                total: chunk.len(),
            })
            .collect();
        assert_eq!(outcome.windows, expected, "strike: {}", replays.1.is_some());
    }
}

/// With online key rotation armed, the engine completes a full epoch roll under live
/// seeded traffic — begin, every layer re-signed in order, publish, retire — while a
/// mid-roll strike is still caught at its own batch (zero requests served on
/// corrupted weights), and the whole rotation event stream replays deterministically.
#[test]
fn engine_completes_a_full_key_roll_under_live_traffic() {
    use radar_core::KeyEpoch;
    use radar_serve::RotationEventKind;

    let num_layers = tiny_model().num_layers();
    let run = || {
        let signer = tiny_model();
        let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let eval = eval_set(16);
        // One rotation action per batch: a full roll needs `num_layers + 3` ticks,
        // so size the traffic to cross the publish with slack on both sides.
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

    let outcome = run();
    assert_eq!(outcome.epochs_published(), 1, "exactly one roll completes");
    assert_eq!(outcome.last_published_epoch(), Some(KeyEpoch::new(1)));

    // The event stream is the epoch state machine, in order: begin, every layer
    // re-signed 0..L, publish, retire — one event per batch starting at batch 1.
    let kinds: Vec<_> = outcome.rotations.iter().map(|e| e.kind).collect();
    assert!(kinds.len() >= num_layers + 3);
    assert_eq!(kinds[0], RotationEventKind::Began(KeyEpoch::new(1)));
    assert_eq!(outcome.rotations[0].batch, 1);
    for (i, kind) in kinds.iter().skip(1).take(num_layers).enumerate() {
        assert!(
            matches!(kind, RotationEventKind::Resigned { layer, .. } if *layer == i),
            "tick {} should re-sign layer {i}, got {kind:?}",
            i + 1
        );
    }
    assert_eq!(
        kinds[1 + num_layers],
        RotationEventKind::Published(KeyEpoch::new(1))
    );
    assert_eq!(
        kinds[2 + num_layers],
        RotationEventKind::Retired(KeyEpoch::ZERO)
    );

    // The mid-roll strike is still detected at its own batch: no request is ever
    // served on corrupted weights, and recovery covers both flipped groups.
    let ttd = outcome.time_to_detect.expect("strike detected mid-roll");
    assert_eq!(ttd.batches, 0);
    assert_eq!(ttd.requests, 0, "zero requests served on corrupted weights");
    assert!(outcome.recovery.groups_zeroed >= 2);

    // Per-seed determinism extends to the rotation stream and all logical telemetry.
    let replay = run();
    assert_eq!(outcome.rotations, replay.rotations);
    assert_eq!(outcome.windows, replay.windows);
    assert_eq!(outcome.recovery, replay.recovery);
    assert_eq!(
        outcome
            .detections
            .iter()
            .map(|d| (d.batch, d.via_scrub, d.groups_flagged))
            .collect::<Vec<_>>(),
        replay
            .detections
            .iter()
            .map(|d| (d.batch, d.via_scrub, d.groups_flagged))
            .collect::<Vec<_>>()
    );
}

/// The unprotected baseline never detects or recovers: the corruption persists in the
/// image until the end of service.
#[test]
fn engine_unprotected_baseline_never_recovers() {
    let signer = tiny_model();
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let eval = eval_set(16);
    let cfg = engine_config().unprotected();
    let timeline = AttackTimeline::new(vec![MountEvent {
        at_batch: 2,
        injector: RowhammerInjector::default(),
        profile: profile(&[(1, 3)]),
        seed: 3,
    }]);

    let outcome = serve(
        replicas(cfg.workers, tiny_model),
        None,
        dram,
        &eval,
        &TrafficSchedule::new(11, 40),
        timeline,
        &cfg,
    );

    assert_eq!(outcome.requests, 40);
    assert!(outcome.attack.is_some());
    assert!(outcome.detections.is_empty());
    assert!(outcome.time_to_detect.is_none());
    assert_eq!(outcome.recovery.groups_zeroed, 0);
    assert_eq!(outcome.verify_seconds, 0.0);
    assert_eq!(outcome.scrub_seconds, 0.0);
}

/// A worker that panics fails the run instead of hanging it. Replicas whose
/// classifier does not match the DRAM image make every worker panic on its first
/// batch; `serve` must re-raise that panic within seconds, with and without scrub
/// steps between batches.
#[test]
fn a_panicking_worker_fails_the_run_instead_of_hanging_it() {
    for scrub_every in [0, 3] {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let signer = tiny_model();
            let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
            let dram = WeightDram::load(&signer, DramGeometry::default());
            let cfg = ServeConfig {
                scrub_every,
                ..engine_config()
            };
            let mismatched = || QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(5))));
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve(
                    replicas(cfg.workers, mismatched),
                    Some(protection),
                    dram,
                    &eval_set(16),
                    &TrafficSchedule::new(7, 64),
                    AttackTimeline::empty(),
                    &cfg,
                )
            }));
            let _ = done_tx.send(served.is_err());
        });
        let panicked = done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| {
                panic!("scrub_every {scrub_every}: serve still running after 10 s")
            });
        assert!(
            panicked,
            "scrub_every {scrub_every}: serve must re-raise the worker panic"
        );
        runner.join().expect("the runner catches the serve panic");
    }
}

/// A clean run: no strikes, no detections, flat service.
#[test]
fn engine_clean_run_raises_no_flags() {
    let signer = tiny_model();
    let protection = RadarProtection::new(&signer, RadarConfig::paper_default(32));
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let eval = eval_set(16);
    let cfg = engine_config();

    let outcome = serve(
        replicas(cfg.workers, tiny_model),
        Some(protection),
        dram,
        &eval,
        &TrafficSchedule::new(13, 32),
        AttackTimeline::empty(),
        &cfg,
    );

    assert_eq!(outcome.requests, 32);
    assert!(outcome.attack.is_none());
    assert!(outcome.detections.is_empty());
    assert!(outcome.time_to_detect.is_none());
    assert_eq!(outcome.recovery.groups_zeroed, 0);
    assert_eq!(outcome.windows.len(), 4);
    assert!(outcome.throughput_rps > 0.0);
}
