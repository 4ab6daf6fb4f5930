use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError};
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
use crate::steps::{build_snapshot, refresh_layers, rotation_step, scrub_sweep, RotationAction};
use crate::sync::{lock, read_lock, write_lock, FetchTicket, SnapshotSlot, VerifiedSnapshot};
use crate::telemetry::{
    metric, RequestRecord, RotationEvent, RotationEventKind, ServeOutcome, Telemetry,
};
use crate::traffic::{Batch, Request, TrafficSchedule};

/// Runs one complete serving session and returns its telemetry.
///
/// Components, all scoped threads (no async runtime):
///
/// * a **traffic driver** submitting `schedule`'s requests into a bounded queue;
/// * a **batcher** coalescing up to `max_batch` requests (waiting at most `max_wait`
///   for stragglers) and dispatching batches to the workers — it owns the logical
///   clock (the dispatched-batch count) that the adversary and scrubber key off;
/// * `workers` **inference workers**, each owning one model replica in `models`.
///   The batch's ticket holder runs *one* fused fetch-and-verify pass — each
///   layer's bytes are copied out of the shared [`WeightDram`] once and the
///   still-cache-hot copy is verified (when `inpath_verify` is on) — recovers
///   flagged groups in the image and in the snapshot before anyone reads it, and
///   publishes the result as an epoch- and batch-stamped `Arc<VerifiedSnapshot>`.
///   Inference runs `forward_with_values` straight off the shared `&[i8]` slices,
///   with no worker-side mutation;
/// * a background **scrubber** sweeping `scrub_layers` layers of the DRAM image every
///   `scrub_every` batches through
///   [`RadarProtection::verify_layer_values_with_scratch`], merging its findings
///   into the shared recovery path;
/// * a background **re-keying task** (when [`rotate_every`](ServeConfig::rotate_every)
///   is set) performing one rotation action every `rotate_every` batches — begin a
///   roll, re-sign one layer under the next [`KeyEpoch`], publish, retire the
///   previous epoch — while workers keep serving; each worker pins the epoch it
///   observed at its fetch ticket and the protection accepts `{current, previous}`,
///   so a publish never strands an in-flight verification;
/// * an **adversary** mounting `timeline`'s rowhammer strikes at their scripted batch
///   offsets.
///
/// Weight fetches are ticketed in batch order through a `FetchTicket` (batch
/// `b + 1` cannot fetch before batch `b` has fetched and recovered), and the
/// adversary/scrubber only run at a fetch barrier; inference itself overlaps freely.
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
/// ticket publish, the background tasks once per tick). Journal events for each
/// `(batch, track)` key are emitted by exactly one thread — the ticket-holding
/// worker for the fetch track, the single scrubber / rotation / adversary thread
/// for theirs — which is what makes the journal's canonical order (a stable sort
/// by `(batch, track)`) independent of flush interleaving. At
/// [`radar_obs::ObsLevel::Full`] the hot sections additionally record spans
/// (ticket wait, verified fetch, inference, scrub sweeps, rotation ticks, strike
/// mounts) for the Chrome trace exporter.
///
/// Strikes scripted at batch offsets the run never reaches do not fire; the adversary
/// journals a `strike_never_fired` event (and bumps the
/// [`metric::STRIKES_NEVER_FIRED`] counter) for whatever is left over when service
/// ends.
///
/// # Panics
///
/// Panics if `models` does not provide exactly `config.workers` replicas, `eval` is
/// empty, the configuration is invalid, or in-path verification / scrubbing is
/// requested without a `protection`.
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
    let scrub_enabled = config.scrub_every > 0;
    let rotation_enabled = config.rotate_every > 0;

    // Arm the process-global gate so `GlobalCounter` kernels instrumented deeper in
    // the stack (gemm panels, verify sweeps) follow this run's level.
    set_global_level(config.obs.level);

    let samples = schedule.sample_indices(eval.len());
    let event_offsets = timeline.batch_offsets();
    let dram = RwLock::new(dram);
    let protection = protection.map(RwLock::new);
    let telemetry = Telemetry::with_config(config.obs);
    // Batches whose weight fetch (and any in-path recovery) has completed; doubles as
    // the fetch ticket: the worker holding batch `fetched` is the one allowed to fetch.
    let fetched = FetchTicket::new();
    // The shared-snapshot publish/consume slot: the ticket holder publishes each
    // batch's verified image here *before* releasing the ticket, and retired images
    // donate their buffers back to later builds.
    let snapshots = SnapshotSlot::new();

    let (req_tx, req_rx) = sync_channel::<Request>(config.queue_capacity);
    let (batch_tx, batch_rx) = sync_channel::<Batch>(config.workers);
    let batch_rx = Mutex::new(batch_rx);
    let (scrub_tx, scrub_rx) = channel::<usize>();
    let (scrub_ack_tx, scrub_ack_rx) = channel::<()>();
    let (rot_tx, rot_rx) = channel::<usize>();
    let (rot_ack_tx, rot_ack_rx) = channel::<()>();
    let (adv_tx, adv_rx) = channel::<usize>();
    let (adv_ack_tx, adv_ack_rx) = channel::<()>();

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

        // Adversary driver: owns the timeline, strikes when the batcher's logical
        // clock reaches each scripted offset.
        {
            let dram = &dram;
            let telemetry = &telemetry;
            let mut timeline = timeline;
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Adversary);
                let mut last_batch = 0usize;
                for batch in adv_rx {
                    last_batch = batch;
                    while let Some(event) = timeline.pop_due(batch) {
                        let timer = shard.span_start();
                        let mount = {
                            let mut dram = write_lock(dram);
                            event.mount(&mut dram)
                        };
                        shard.span_end(timer, "strike_mount", batch as u64);
                        telemetry.strike(batch, mount);
                    }
                    if adv_ack_tx.send(()).is_err() {
                        break;
                    }
                }
                if timeline.remaining() > 0 {
                    // Scripted strikes whose batch offsets the run never reached: a
                    // structured journal event + counter, so harnesses can assert on
                    // it instead of scraping stderr.
                    telemetry.strike_never_fired(last_batch, timeline.remaining());
                }
                telemetry.flush(&mut shard);
            });
        }

        // Background scrubber: verifies a rotating slice of the DRAM image between
        // batches, straight from the stored bytes (no model replica involved).
        if let (true, Some(prot)) = (scrub_enabled, protection.as_ref()) {
            let dram = &dram;
            let telemetry = &telemetry;
            let scrub_layers = config.scrub_layers;
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Scrubber);
                let num_layers = read_lock(dram).num_layers();
                let step = if scrub_layers == 0 {
                    num_layers
                } else {
                    scrub_layers.min(num_layers)
                };
                let mut cursor = 0usize;
                let mut buf: Vec<i8> = Vec::new();
                let mut acc: Vec<i32> = Vec::new();
                for batch in scrub_rx {
                    let started = Stopwatch::start();
                    let timer = shard.span_start();
                    let flagged = {
                        let dram = read_lock(dram);
                        let prot = read_lock(prot);
                        scrub_sweep(&dram, &prot, cursor, step, &mut buf, &mut acc)
                    };
                    shard.span_end(timer, "scrub_sweep", batch as u64);
                    cursor = (cursor + step) % num_layers;
                    if flagged.attack_detected() {
                        telemetry.detection(batch, true, flagged.num_flagged());
                        let mut dram = write_lock(dram);
                        let mut prot = write_lock(prot);
                        telemetry.recovered(
                            batch,
                            Track::Scrub,
                            recover_in_dram(&mut prot, &mut dram, &flagged),
                        );
                    }
                    shard.force_add(metric::SCRUB_NS, Labels::none(), started.elapsed_ns());
                    telemetry.flush(&mut shard);
                    if scrub_ack_tx.send(()).is_err() {
                        break;
                    }
                }
                telemetry.flush(&mut shard);
            });
        }

        // Background re-keying task: one rotation action per tick of its cadence,
        // driving the protection's epoch state machine (begin → re-sign each layer →
        // publish → retire) under the write locks while workers keep serving between
        // ticks. Recovery work done by the pre-sign check folds into the run totals;
        // the tick itself is reported as a logical rotation event.
        if let (true, Some(prot)) = (rotation_enabled, protection.as_ref()) {
            let dram = &dram;
            let telemetry = &telemetry;
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Rotation);
                let mut buf: Vec<i8> = Vec::new();
                let mut acc: Vec<i32> = Vec::new();
                for batch in rot_rx {
                    let timer = shard.span_start();
                    let action = {
                        let mut dram = write_lock(dram);
                        let mut prot = write_lock(prot);
                        rotation_step(&mut dram, &mut prot, &mut buf, &mut acc, |_, _| {})
                    };
                    shard.span_end(timer, "rotation_tick", batch as u64);
                    let kind = match action {
                        RotationAction::Began(epoch) => RotationEventKind::Began(epoch),
                        RotationAction::Resigned { layer, recovered } => {
                            if recovered.groups_zeroed > 0 {
                                telemetry.recovered(batch, Track::Rotate, recovered);
                            }
                            RotationEventKind::Resigned {
                                layer,
                                groups_recovered: recovered.groups_zeroed,
                            }
                        }
                        RotationAction::Published(epoch) => RotationEventKind::Published(epoch),
                        RotationAction::Retired(epoch) => RotationEventKind::Retired(epoch),
                    };
                    telemetry.rotation(RotationEvent { batch, kind });
                    telemetry.flush(&mut shard);
                    if rot_ack_tx.send(()).is_err() {
                        break;
                    }
                }
                telemetry.flush(&mut shard);
            });
        }

        // Inference workers: one model replica each, verified fetch in batch order,
        // overlapped inference. The ticket holder builds the batch's snapshot in one
        // fused fetch-and-verify pass, recovers and refreshes before publishing it,
        // and inference runs the integer GEMM (i8×i8 products, i32 accumulation,
        // requantization epilogue; GEMM-level threading stays at the
        // RADAR_GEMM_THREADS default so worker parallelism composes predictably)
        // straight off the snapshot's slices. The replica contributes only its
        // structure, scales and float-only layers; its stored weights are never
        // written.
        for (w, mut model) in models.into_iter().enumerate() {
            let dram = &dram;
            let protection = protection.as_ref();
            let verifier = protection.filter(|_| config.inpath_verify);
            let telemetry = &telemetry;
            let fetched = &fetched;
            let batch_rx = &batch_rx;
            let snapshots = &snapshots;
            scope.spawn(move || {
                let mut shard = telemetry.shard(Tid::Worker(w as u16));
                let worker_labels = Labels::none().worker(w as u32);
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
                    // The buffers this batch's fused build fills, recycled from a
                    // retired snapshot when one has fully drained.
                    let mut build: Vec<Vec<i8>> = Vec::new();
                    if let Some(buffers) = snapshots.acquire_buffers() {
                        build = buffers;
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
                            &mut build,
                            &mut acc,
                            &mut checking,
                        )
                    };
                    shard.span_end(timer, "snapshot_build", index);
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
                        shard.force_add(metric::DETECTIONS, Labels::none(), 1);
                        shard.event(
                            index,
                            Track::Fetch,
                            EventKind::Detect {
                                via_scrub: false,
                                groups_flagged: flagged.num_flagged() as u64,
                            },
                        );
                        // In-path flags imply a protection was configured; the `if
                        // let` (rather than an `expect`) keeps the worker loop free
                        // of panicking accessors, per the `no-unwrap-worker` lint.
                        if let Some(prot) = protection {
                            let mut dram = write_lock(dram);
                            let mut prot = write_lock(prot);
                            let recovery = recover_in_dram(&mut prot, &mut dram, &flagged);
                            shard.event(
                                index,
                                Track::Fetch,
                                EventKind::Recover {
                                    groups_zeroed: recovery.groups_zeroed as u64,
                                    weights_zeroed: recovery.weights_zeroed as u64,
                                },
                            );
                            // Refresh the recovered layers in the snapshot about to be
                            // published, so inference consumes the zeroed (not
                            // corrupted) weights. This happens strictly before
                            // publish: consumers never observe pre-recovery bytes.
                            refresh_layers(&dram, &flagged, &mut build);
                        }
                    }
                    // Publish the batch's verified snapshot *before* releasing the
                    // fetch ticket: the ticket's Release store is the happens-before
                    // edge every consumer rides. The consume happens while this
                    // thread still holds the ticket — the slot cannot be republished
                    // until the next batch's builder acquires the ticket — so the
                    // stamps must name this batch and its pinned epoch. (Consuming
                    // after the ticket release could observe a *newer* snapshot;
                    // consuming before publish would observe a stale one — the
                    // hazard the schedule model-checker's `StaleSnapshot` mutation
                    // seeds.)
                    snapshots.publish(VerifiedSnapshot::new(batch.index, pinned, build));
                    shard.force_add(metric::SNAPSHOT_PUBLISHES, worker_labels.clone(), 1);
                    let Some(snapshot) = snapshots
                        .latest()
                        .filter(|snap| snap.batch() == batch.index && snap.epoch() == pinned)
                    else {
                        panic!(
                            "stale snapshot consumed while serving batch {} (epoch {})",
                            batch.index,
                            pinned.index()
                        );
                    };
                    fetched.publish(batch.index + 1);

                    let sample_ids: Vec<usize> = batch.requests.iter().map(|r| r.sample).collect();
                    let subset = eval.subset(&sample_ids);
                    let started = Stopwatch::start();
                    let timer = shard.span_start();
                    shard.force_add(metric::SNAPSHOT_HITS, worker_labels.clone(), 1);
                    let logits = model.forward_with_values(snapshot.layers(), subset.images());
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
                        telemetry.complete(RequestRecord {
                            id: request.id,
                            batch: batch.index,
                            correct: *prediction == label,
                            latency_ns: request.submitted.elapsed_ns(),
                        });
                    }
                    // One flush per batch, at the barrier cadence the engine already
                    // has — never per sample.
                    telemetry.flush(&mut shard);
                }
                telemetry.flush(&mut shard);
            });
        }

        // Batcher (this thread): coalesce, run the logical clock, dispatch.
        let mut next_event = event_offsets.iter().peekable();
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
            // Scripted strikes due before this batch is dispatched.
            while next_event.peek().is_some_and(|&&offset| offset <= batches) {
                next_event.next();
                fetched.wait_at_least(batches);
                if adv_tx.send(batches).is_ok() {
                    let _ = adv_ack_rx.recv();
                }
            }
            // Scrub cadence: one sweep step between batches, every `scrub_every`.
            if scrub_enabled && batches > 0 && batches % config.scrub_every == 0 {
                fetched.wait_at_least(batches);
                if scrub_tx.send(batches).is_ok() {
                    let _ = scrub_ack_rx.recv();
                }
            }
            // Rotation cadence: one re-keying action between batches, every
            // `rotate_every` (after any scrub step, so a tick's pre-sign check sees
            // the scrubber's recoveries, never the reverse).
            if rotation_enabled && batches > 0 && batches % config.rotate_every == 0 {
                fetched.wait_at_least(batches);
                if rot_tx.send(batches).is_ok() {
                    let _ = rot_ack_rx.recv();
                }
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
        drop(scrub_tx);
        drop(rot_tx);
        drop(adv_tx);
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
