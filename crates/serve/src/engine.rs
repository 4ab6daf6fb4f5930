use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Mutex;
use std::time::Duration;

use radar_core::{KeyEpoch, RadarProtection};
use radar_data::Dataset;
use radar_memsim::{AttackTimeline, WeightDram};
use radar_nn::argmax_rows;
use radar_obs::{set_global_level, EventKind, Labels, Stopwatch, Tid, Track};
use radar_quant::QuantizedModel;

use crate::config::ServeConfig;
use crate::recovery::recover_in_dram;
use crate::steps::{build_snapshot, refresh_layers, rotation_step, scrub_sweep};
use crate::sync::lock;
use crate::telemetry::{metric, RequestRecord, RotationEvent, ServeOutcome, Telemetry};
use crate::traffic::{Batch, Request, TrafficSchedule};

/// A verified weight image: one `i8` buffer per layer, built by the batcher for one
/// batch and read by the worker that serves it.
type Image = Vec<Vec<i8>>;

/// Runs one complete serving session and returns its telemetry.
///
/// Components: the calling thread plus scoped threads (no async runtime), joined by
/// three channels — the bounded request queue, the batch dispatch and the image
/// return:
///
/// * a **traffic driver** thread submitting `schedule`'s requests into the queue;
/// * the **batcher** (the calling thread), the only thread that touches the
///   [`WeightDram`] and the [`RadarProtection`]. It coalesces up to `max_batch`
///   requests (waiting at most `max_wait` for stragglers) and owns the logical clock
///   (the dispatched-batch count). Before it dispatches batch `b` it mounts
///   `timeline`'s rowhammer strikes scripted for `b`, sweeps `scrub_layers` layers
///   of the DRAM image every `scrub_every` batches (recovering whatever the sweep
///   flags), and, when [`rotate_every`](ServeConfig::rotate_every) is set, performs
///   one re-keying action every `rotate_every` batches — begin a roll, re-sign one
///   layer under the next [`KeyEpoch`], publish, retire. It then builds `b`'s
///   weight image in *one* fused fetch-and-verify pass at the current epoch — each
///   layer's bytes are copied out of DRAM row by row, and each row is added to the
///   group sums while still in L1 (when `inpath_verify` is on) — recovers flagged
///   groups in DRAM, refreshes the recovered layers in the image, and dispatches
///   the batch with its image;
/// * `workers` **inference worker** threads, each owning one model replica in
///   `models`. A worker runs `forward_with_values` straight off the image's `&[i8]`
///   slices and sends the image back for the batcher to refill. At most
///   `workers + 1` images exist: one per worker and the one being filled, so a
///   worker never waits for a build while the batcher is one batch ahead.
///
/// Every step that reads or writes the stored weights or their keys runs on one
/// thread in batch order, so every logical outcome — which batches served corrupted
/// weights, the detecting batch, recovery counts, per-window served accuracy — is a
/// pure function of `(models, schedule, timeline, config)`, independent of thread
/// scheduling and of the worker count, provided batch composition itself is
/// deterministic: either run with [`strict_batching`](ServeConfig::strict_batching)
/// (the benchmark scenarios do), or accept that a driver descheduled for longer
/// than `max_wait` may split a batch. Wall-clock latency telemetry is genuinely
/// measured, and only it varies between replays.
///
/// # Observability
///
/// Every thread records through its own [`radar_obs::ObsShard`], flushed once per
/// batch. Every journal event comes from the batcher — the fetch, strike, scrub and
/// rotate tracks alike — so the journal's canonical order (a stable sort by
/// `(batch, track)`) is its emission order. At [`radar_obs::ObsLevel::Full`] the hot
/// sections additionally record spans for the Chrome trace exporter: image builds,
/// scrub sweeps, rotation ticks and strike mounts on the batcher's row, inference
/// on each worker's.
///
/// Strikes scripted at batch offsets the run never reaches do not fire; the batcher
/// journals a `strike_never_fired` event (and bumps the
/// [`metric::STRIKES_NEVER_FIRED`] counter) for whatever is left over when service
/// ends.
///
/// # Panics
///
/// Panics if `models` does not provide exactly `config.workers` replicas, `eval` is
/// empty, the configuration is invalid, or in-path verification / scrubbing /
/// rotation is requested without a `protection`. A panicking worker fails the run:
/// once every worker is gone the batcher stops, the driver's next submission fails,
/// and the scope re-raises the worker's panic.
pub fn serve(
    models: Vec<QuantizedModel>,
    mut protection: Option<RadarProtection>,
    mut dram: WeightDram,
    eval: &Dataset,
    schedule: &TrafficSchedule,
    timeline: AttackTimeline,
    config: &ServeConfig,
) -> ServeOutcome {
    config.validate();
    assert_eq!(
        models.len(),
        config.workers,
        "one model replica per worker is required"
    );
    assert!(!eval.is_empty(), "evaluation pool must be non-empty");
    assert!(
        protection.is_some() || !config.inpath_verify,
        "in-path verification requires a protection"
    );
    assert!(
        protection.is_some() || config.scrub_every == 0,
        "scrubbing requires a protection"
    );
    assert!(
        protection.is_some() || config.rotate_every == 0,
        "key rotation requires a protection"
    );

    // Arm the process-global gate so `GlobalCounter` kernels instrumented deeper in
    // the stack (gemm panels, verify sweeps) follow this run's level.
    set_global_level(config.obs.level);

    let samples = schedule.sample_indices(eval.len());
    let num_layers = dram.num_layers();
    let scrub_step = match config.scrub_layers {
        0 => num_layers,
        layers => layers.min(num_layers),
    };
    let telemetry = Telemetry::with_config(config.obs);
    let pool = config.workers + 1;

    let (req_tx, req_rx) = sync_channel::<Request>(config.queue_capacity);
    // Sized to the image pool, so a dispatch never blocks: the batcher waits only on
    // the request queue and the image return, which disconnects once every worker
    // is gone.
    let (batch_tx, batch_rx) = sync_channel::<(Batch, Image)>(pool);
    let batch_rx = Mutex::new(batch_rx);
    let (image_tx, image_rx) = channel::<Image>();

    let mut batches = 0usize;
    std::thread::scope(|scope| {
        // Traffic driver: submits the scheduled requests as fast as the bounded queue
        // accepts them (open-loop at the queue, closed-loop at the service rate).
        scope.spawn(move || {
            for (id, &sample) in samples.iter().enumerate() {
                let request = Request {
                    id,
                    sample,
                    submitted: Stopwatch::start(),
                };
                if req_tx.send(request).is_err() {
                    break;
                }
            }
        });

        // Inference workers: one model replica each. Inference runs the integer GEMM
        // (i8×i8 products, i32 accumulation, requantization epilogue) on this
        // thread, straight off the batch's verified image: the workers are the one
        // source of inference parallelism. The replica contributes only its
        // structure, scales and float-only layers; its stored weights are never
        // written.
        for (w, mut model) in models.into_iter().enumerate() {
            let telemetry = &telemetry;
            let batch_rx = &batch_rx;
            let image_tx = image_tx.clone();
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Worker(w as u16));
                let worker_labels = Labels::none().worker(w as u32);
                loop {
                    let received = lock(batch_rx).recv();
                    let Ok((batch, image)) = received else { break };
                    let sample_ids: Vec<usize> = batch.requests.iter().map(|r| r.sample).collect();
                    let subset = eval.subset(&sample_ids);
                    let started = Stopwatch::start();
                    let timer = shard.span_start();
                    let logits = model.forward_with_values(&image, subset.images());
                    shard.span_end(timer, "infer", batch.index as u64);
                    shard.force_add(
                        metric::INFER_NS,
                        worker_labels.clone(),
                        started.elapsed_ns(),
                    );
                    // The batcher holds the return open until every worker is done.
                    let _ = image_tx.send(image);
                    let predictions = argmax_rows(&logits);
                    for (request, (prediction, &label)) in batch
                        .requests
                        .iter()
                        .zip(predictions.iter().zip(subset.labels()))
                    {
                        telemetry.complete(
                            &mut shard,
                            RequestRecord {
                                id: request.id,
                                batch: batch.index,
                                correct: *prediction == label,
                                latency_ns: request.submitted.elapsed_ns(),
                            },
                        );
                    }
                    // One flush per batch — never per sample.
                    telemetry.flush(&mut shard);
                }
                telemetry.flush(&mut shard);
            });
        }
        drop(image_tx);

        // Batcher (this thread): coalesce, run the steps due before this batch,
        // build and verify its image, dispatch. Everything that touches DRAM or the
        // protection runs here, in batch order.
        let mut shard = telemetry.shard(Tid::Batcher);
        let mut timeline = timeline;
        // The batch the last strike fired at (where unfired strikes are journaled).
        let mut last_strike = 0usize;
        let mut scrub_cursor = 0usize;
        let mut images = 0usize;
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        while let Ok(first) = req_rx.recv() {
            let mut requests = vec![first];
            let waited = Stopwatch::start();
            while requests.len() < config.max_batch {
                if config.strict_batching {
                    // Deterministic-replay mode: only the end of the request stream
                    // produces a partial batch, never a scheduling hiccup.
                    match req_rx.recv() {
                        Ok(request) => requests.push(request),
                        Err(_) => break,
                    }
                } else {
                    let remaining = config.max_wait.saturating_sub(waited.elapsed_duration());
                    match req_rx.recv_timeout(remaining) {
                        Ok(request) => requests.push(request),
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                            break
                        }
                    }
                }
            }
            let index = batches as u64;
            let due = |every: usize| every > 0 && batches > 0 && batches % every == 0;
            // Scripted strikes due before this batch is dispatched.
            while let Some(event) = timeline.pop_due(batches) {
                let timer = shard.span_start();
                let mount = event.mount(&mut dram);
                shard.span_end(timer, "strike_mount", index);
                Telemetry::strike(&mut shard, batches, mount);
                last_strike = batches;
            }
            // Scrub cadence: one sweep step every `scrub_every` batches, verifying
            // the stored bytes straight from DRAM (no model replica involved).
            if let (true, Some(prot)) = (due(config.scrub_every), protection.as_mut()) {
                let started = Stopwatch::start();
                let timer = shard.span_start();
                let flagged =
                    scrub_sweep(&dram, prot, scrub_cursor, scrub_step, &mut buf, &mut acc);
                shard.span_end(timer, "scrub_sweep", index);
                scrub_cursor = (scrub_cursor + scrub_step) % num_layers;
                if flagged.attack_detected() {
                    Telemetry::detection(&mut shard, batches, true, flagged.num_flagged());
                    let recovery = recover_in_dram(prot, &mut dram, &flagged);
                    Telemetry::recovered(&mut shard, batches, Track::Scrub, recovery);
                }
                shard.force_add(metric::SCRUB_NS, Labels::none(), started.elapsed_ns());
            }
            // Rotation cadence: one re-keying action every `rotate_every` batches,
            // after any scrub step, so a tick's pre-sign check sees the sweep's
            // recoveries, never the reverse. Recovery work done by the pre-sign check
            // folds into the run totals.
            if let (true, Some(prot)) = (due(config.rotate_every), protection.as_mut()) {
                let timer = shard.span_start();
                let (kind, recovered) = rotation_step(&mut dram, prot, &mut buf, &mut acc);
                shard.span_end(timer, "rotation_tick", index);
                if recovered.groups_zeroed > 0 {
                    Telemetry::recovered(&mut shard, batches, Track::Rotate, recovered);
                }
                Telemetry::rotation(
                    &mut shard,
                    RotationEvent {
                        batch: batches,
                        kind,
                    },
                );
            }

            let Some(mut image) = next_image(&image_rx, &mut images, pool) else {
                break;
            };
            if !image.is_empty() {
                shard.force_add(metric::SNAPSHOT_RECLAIMS, Labels::none(), 1);
            }
            // One fused pass per batch: bytes copied out of DRAM once and the
            // cache-hot copy verified (a plain copy when in-path verification is off).
            let epoch = protection
                .as_ref()
                .map_or(KeyEpoch::ZERO, RadarProtection::current_epoch);
            let verifier = protection.as_ref().filter(|_| config.inpath_verify);
            let timer = shard.span_start();
            let mut checking = Duration::ZERO;
            let flagged = build_snapshot(
                &dram,
                verifier.map(|prot| (prot, epoch)),
                &mut image,
                &mut acc,
                &mut checking,
            );
            shard.span_end(timer, "snapshot_build", index);
            shard.force_add(metric::SNAPSHOT_PUBLISHES, Labels::none(), 1);
            shard.event(
                index,
                Track::Fetch,
                EventKind::Fetch {
                    epoch: epoch.index(),
                },
            );
            if verifier.is_some() {
                shard.force_add(
                    metric::VERIFY_NS,
                    Labels::none(),
                    checking.as_nanos() as u64,
                );
                shard.event(
                    index,
                    Track::Fetch,
                    EventKind::Verify {
                        groups_flagged: flagged.num_flagged() as u64,
                    },
                );
            }
            if flagged.attack_detected() {
                Telemetry::detection(&mut shard, batches, false, flagged.num_flagged());
                // In-path flags imply a protection was configured; the `if let`
                // (rather than an `expect`) keeps the batcher free of panicking
                // accessors, per the `no-unwrap-worker` lint.
                if let Some(prot) = protection.as_mut() {
                    let recovery = recover_in_dram(prot, &mut dram, &flagged);
                    Telemetry::recovered(&mut shard, batches, Track::Fetch, recovery);
                    // Refresh the recovered layers in the image, so inference
                    // consumes the zeroed (not corrupted) weights.
                    refresh_layers(&dram, &flagged, &mut image);
                }
            }
            let batch = Batch {
                index: batches,
                requests,
            };
            if batch_tx.send((batch, image)).is_err() {
                break;
            }
            batches += 1;
            telemetry.flush(&mut shard);
        }
        drop(batch_tx);
        // A batcher that stopped early (every worker gone) unblocks the driver.
        drop(req_rx);
        if timeline.remaining() > 0 {
            // Scripted strikes whose batch offsets the run never reached: a
            // structured journal event + counter, so harnesses can assert on it
            // instead of scraping stderr.
            Telemetry::strike_never_fired(&mut shard, last_strike, timeline.remaining());
        }
        telemetry.flush(&mut shard);
    });

    telemetry.finish(batches, config.workers, config.window)
}

/// The image the batcher fills next: one a worker has handed back, else a new one
/// while fewer than `pool` exist, else the next one a worker hands back. `None`
/// once every worker is gone.
fn next_image(returned: &Receiver<Image>, images: &mut usize, pool: usize) -> Option<Image> {
    match returned.try_recv() {
        Ok(image) => Some(image),
        Err(TryRecvError::Empty) if *images < pool => {
            *images += 1;
            Some(Image::new())
        }
        Err(TryRecvError::Empty) => returned.recv().ok(),
        Err(TryRecvError::Disconnected) => None,
    }
}

/// Builds the per-worker model replicas the engine consumes, by draining a
/// caller-provided factory — a convenience for tests and harnesses that clone from a
/// checkpoint.
pub fn replicas(count: usize, mut factory: impl FnMut() -> QuantizedModel) -> Vec<QuantizedModel> {
    (0..count).map(|_| factory()).collect()
}

// Workers share one dispatch receiver behind a mutex; that only compiles into a sound
// program if the wrapped receiver is `Send` (making the mutex `Sync`).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Mutex<Receiver<(Batch, Image)>>>();
};
