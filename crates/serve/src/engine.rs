use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Mutex, RwLock};
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
use crate::sync::{lock, read_lock, write_lock, FetchTicket};
use crate::telemetry::{metric, RequestRecord, RotationEvent, ServeOutcome, Telemetry};
use crate::traffic::{Batch, Request, TrafficSchedule};

/// Runs one complete serving session and returns its telemetry.
///
/// Components: the calling thread plus scoped threads (no async runtime), joined by
/// two channels — the bounded request queue and the batch dispatch:
///
/// * a **traffic driver** thread submitting `schedule`'s requests into the queue;
/// * the **batcher** (the calling thread) coalescing up to `max_batch` requests
///   (waiting at most `max_wait` for stragglers) and dispatching batches to the
///   workers. It owns the logical clock (the dispatched-batch count) and runs every
///   step between two batches itself: it mounts `timeline`'s rowhammer strikes at
///   their scripted batch offsets, sweeps `scrub_layers` layers of the DRAM image
///   every `scrub_every` batches through
///   [`RadarProtection::fetch_verify_layer_at_epoch_with_scratch`] (recovering
///   whatever the sweep flags), and, when [`rotate_every`](ServeConfig::rotate_every) is set,
///   performs one re-keying action every `rotate_every` batches — begin a roll,
///   re-sign one layer under the next [`KeyEpoch`], publish, retire;
/// * `workers` **inference worker** threads, each owning one model replica in
///   `models` and one weight image. Holding the batch's fetch ticket, a worker
///   rebuilds its image in *one* fused fetch-and-verify pass — each layer's bytes
///   are copied out of the shared [`WeightDram`] row by row, and each row is added
///   to the group sums while still in L1 (when `inpath_verify` is on) — and recovers flagged groups in DRAM
///   and in its image before it releases the ticket. Inference then runs
///   `forward_with_values` straight off the image's `&[i8]` slices. Each worker pins
///   the key epoch it observed at its ticket and the protection accepts
///   `{current, previous}`, so a rotation publish never strands an in-flight
///   verification.
///
/// Weight fetches are ticketed in batch order through a `FetchTicket` (batch
/// `b + 1` cannot fetch before batch `b` has fetched and recovered), and the
/// batcher runs its strike, scrub and rotation steps only at a fetch barrier
/// (every dispatched batch has fetched); inference itself overlaps freely.
/// Consequently every logical outcome — which batches served corrupted weights, the
/// detecting batch, recovery counts, per-window served accuracy — is a pure function
/// of `(models, schedule, timeline, config)`, independent of thread scheduling,
/// provided batch composition itself is deterministic: either run with
/// [`strict_batching`](ServeConfig::strict_batching) (the benchmark scenarios do), or
/// accept that a driver descheduled for longer than `max_wait` may split a batch.
/// Wall-clock latency telemetry is genuinely measured, and only it varies between
/// replays. The deterministic schedule model-checker in [`crate::schedule`]
/// exhaustively verifies this protocol for small configurations, and a watchdog in
/// the `sync` module turns any ticket/barrier stall into a loud panic with the stuck
/// ticket state instead of a hung job.
///
/// # Observability
///
/// Every thread records through its own [`radar_obs::ObsShard`], flushed at the
/// barrier points that already order the run (workers once per batch after the
/// ticket publish, the batcher once when service ends). Journal events for each
/// `(batch, track)` key are emitted by exactly one thread — the ticket-holding
/// worker for the fetch track, the batcher for the strike, scrub and rotate
/// tracks — which is what makes the journal's canonical order (a stable sort by
/// `(batch, track)`) independent of flush interleaving. At
/// [`radar_obs::ObsLevel::Full`] the hot sections additionally record spans for the
/// Chrome trace exporter: ticket wait, image build and inference on each worker's
/// row; scrub sweeps, rotation ticks and strike mounts on the batcher's.
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
/// rotation is requested without a `protection`.
pub fn serve(
    models: Vec<QuantizedModel>,
    protection: Option<RadarProtection>,
    dram: WeightDram,
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
    let dram = RwLock::new(dram);
    let protection = protection.map(RwLock::new);
    let telemetry = Telemetry::with_config(config.obs);
    // Batches whose weight fetch (and any in-path recovery) has completed; doubles as
    // the fetch ticket: the worker holding batch `fetched` is the one allowed to fetch.
    let fetched = FetchTicket::new();

    let (req_tx, req_rx) = sync_channel::<Request>(config.queue_capacity);
    let (batch_tx, batch_rx) = sync_channel::<Batch>(config.workers);
    let batch_rx = Mutex::new(batch_rx);

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

        // Inference workers: one model replica and one weight image each, verified
        // fetch in batch order, overlapped inference. The ticket holder rebuilds its
        // image in one fused fetch-and-verify pass and recovers and refreshes it
        // before releasing the ticket; inference runs the integer GEMM (i8×i8
        // products, i32 accumulation, requantization epilogue) on this thread,
        // straight off the image's slices: the workers are the one source of
        // inference parallelism. The replica contributes only its structure, scales
        // and float-only layers; its stored weights are never written.
        for (w, mut model) in models.into_iter().enumerate() {
            let dram = &dram;
            let protection = protection.as_ref();
            let verifier = protection.filter(|_| config.inpath_verify);
            let telemetry = &telemetry;
            let fetched = &fetched;
            let batch_rx = &batch_rx;
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Worker(w as u16));
                let worker_labels = Labels::none().worker(w as u32);
                // The weights this worker serves, rebuilt in place for every batch.
                let mut image: Vec<Vec<i8>> = Vec::new();
                let mut acc: Vec<i32> = Vec::new();
                loop {
                    let received = lock(batch_rx).recv();
                    let Ok(batch) = received else { break };
                    let index = batch.index as u64;
                    // Wait for this batch's fetch ticket.
                    let timer = shard.span_start();
                    fetched.wait_for(batch.index);
                    shard.span_end(timer, "ticket_wait", index);
                    // Pin the epoch this batch verifies under, with its own short
                    // read lock *before* the fetch takes the main locks. A rotation
                    // publish landing in the pin→fetch window moves the pinned epoch
                    // into the protection's `{current, previous}` acceptance window,
                    // so the fetch below still verifies against a retained store.
                    let mut pinned = KeyEpoch::ZERO;
                    if let Some(prot) = protection {
                        pinned = read_lock(prot).current_epoch();
                    }
                    if !image.is_empty() {
                        shard.force_add(metric::SNAPSHOT_RECLAIMS, worker_labels.clone(), 1);
                    }
                    // One fused pass per batch: bytes copied out of DRAM once and
                    // the cache-hot copy verified (a plain copy when in-path
                    // verification is off).
                    let timer = shard.span_start();
                    let mut checking = Duration::ZERO;
                    let flagged = {
                        let dram = read_lock(dram);
                        let prot = verifier.map(read_lock);
                        build_snapshot(
                            &dram,
                            prot.as_deref().map(|prot| (prot, pinned)),
                            &mut image,
                            &mut acc,
                            &mut checking,
                        )
                    };
                    shard.span_end(timer, "snapshot_build", index);
                    shard.force_add(metric::SNAPSHOT_PUBLISHES, worker_labels.clone(), 1);
                    // The fetch track's journal events: emitted only by the
                    // ticket-holding worker (exactly one per batch), so the track's
                    // canonical order is flush-independent. Logical fields only.
                    shard.event(
                        index,
                        Track::Fetch,
                        EventKind::Fetch {
                            epoch: pinned.index(),
                        },
                    );
                    if verifier.is_some() {
                        shard.force_add(
                            metric::VERIFY_NS,
                            worker_labels.clone(),
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
                        Telemetry::detection(&mut shard, batch.index, false, flagged.num_flagged());
                        // In-path flags imply a protection was configured; the `if
                        // let` (rather than an `expect`) keeps the worker loop free
                        // of panicking accessors, per the `no-unwrap-worker` lint.
                        if let Some(prot) = protection {
                            let mut dram = write_lock(dram);
                            let mut prot = write_lock(prot);
                            let recovery = recover_in_dram(&mut prot, &mut dram, &flagged);
                            Telemetry::recovered(&mut shard, batch.index, Track::Fetch, recovery);
                            // Refresh the recovered layers in the image, so inference
                            // consumes the zeroed (not corrupted) weights.
                            refresh_layers(&dram, &flagged, &mut image);
                        }
                    }
                    // Release the ticket only now, so the next batch's fetch and the
                    // batcher's next step see this batch's recovery. The image is
                    // this worker's own: inference reads it with no further
                    // synchronization while the next batch fetches.
                    fetched.publish(batch.index + 1);

                    let sample_ids: Vec<usize> = batch.requests.iter().map(|r| r.sample).collect();
                    let subset = eval.subset(&sample_ids);
                    let started = Stopwatch::start();
                    let timer = shard.span_start();
                    let logits = model.forward_with_values(&image, subset.images());
                    shard.span_end(timer, "infer", index);
                    shard.force_add(
                        metric::INFER_NS,
                        worker_labels.clone(),
                        started.elapsed_ns(),
                    );
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
                    // One flush per batch, at the barrier cadence the engine already
                    // has — never per sample.
                    telemetry.flush(&mut shard);
                }
                telemetry.flush(&mut shard);
            });
        }

        // Batcher (this thread): coalesce, run the steps due between batches,
        // dispatch. Each step first takes the fetch barrier, so it lands between two
        // batches' fetches and every journal event it emits is ordered by the
        // logical clock alone.
        let mut shard = telemetry.shard(Tid::Batcher);
        let mut timeline = timeline;
        // The batch the last strike fired at (where unfired strikes are journaled).
        let mut last_strike = 0usize;
        let mut scrub_cursor = 0usize;
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
                fetched.wait_at_least(batches);
                let timer = shard.span_start();
                let mount = event.mount(&mut write_lock(&dram));
                shard.span_end(timer, "strike_mount", index);
                Telemetry::strike(&mut shard, batches, mount);
                last_strike = batches;
            }
            // Scrub cadence: one sweep step every `scrub_every` batches, verifying
            // the stored bytes straight from DRAM (no model replica involved).
            if let (true, Some(prot)) = (due(config.scrub_every), protection.as_ref()) {
                fetched.wait_at_least(batches);
                let started = Stopwatch::start();
                let timer = shard.span_start();
                let flagged = {
                    let dram = read_lock(&dram);
                    let prot = read_lock(prot);
                    scrub_sweep(&dram, &prot, scrub_cursor, scrub_step, &mut buf, &mut acc)
                };
                shard.span_end(timer, "scrub_sweep", index);
                scrub_cursor = (scrub_cursor + scrub_step) % num_layers;
                if flagged.attack_detected() {
                    Telemetry::detection(&mut shard, batches, true, flagged.num_flagged());
                    let mut dram = write_lock(&dram);
                    let mut prot = write_lock(prot);
                    let recovery = recover_in_dram(&mut prot, &mut dram, &flagged);
                    Telemetry::recovered(&mut shard, batches, Track::Scrub, recovery);
                }
                shard.force_add(metric::SCRUB_NS, Labels::none(), started.elapsed_ns());
            }
            // Rotation cadence: one re-keying action every `rotate_every` batches,
            // after any scrub step, so a tick's pre-sign check sees the sweep's
            // recoveries, never the reverse. Recovery work done by the pre-sign check
            // folds into the run totals.
            if let (true, Some(prot)) = (due(config.rotate_every), protection.as_ref()) {
                fetched.wait_at_least(batches);
                let timer = shard.span_start();
                let (kind, recovered) = {
                    let mut dram = write_lock(&dram);
                    let mut prot = write_lock(prot);
                    rotation_step(&mut dram, &mut prot, &mut buf, &mut acc, |_, _| {})
                };
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
            if batch_tx
                .send(Batch {
                    index: batches,
                    requests,
                })
                .is_err()
            {
                break;
            }
            batches += 1;
        }
        drop(batch_tx);
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
    assert_sync::<Mutex<Receiver<Batch>>>();
};
