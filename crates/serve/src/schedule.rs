//! A deterministic schedule model-checker for the serve/detect concurrency core — a
//! mini-loom over the engine's own protocol steps.
//!
//! [`serve`](crate::serve) claims its logical outcomes are a pure function of
//! `(models, schedule, timeline, config)`, independent of thread scheduling, because
//! weight fetches are ticketed in batch order and the adversary/scrubber only run at
//! fetch barriers. The OS scheduler only ever samples a handful of interleavings per
//! test run; this module instead **exhaustively enumerates every interleaving** of
//! the protocol's atomic steps for small configurations (2 workers, 2–3 layers) and
//! checks, in every reachable ordering:
//!
//! * **no lost detection** — if a strike landed flips, every terminal state has a
//!   detection event and a verification-clean DRAM image;
//! * **recovery idempotence** — `groups_zeroed` equals the number of distinct groups
//!   actually zeroed, no matter which racing detector recovers first;
//! * **no ticket/barrier deadlock** — every non-terminal state has an enabled step;
//! * **schedule determinism** — all interleavings converge to one terminal outcome
//!   (asserted for the full barrier protocol, where it must hold);
//! * **no corrupted traffic served** under in-path verification with barriers.
//!
//! The checker runs the *same code* the engine runs — the `steps` module's
//! `build_snapshot`/`refresh_layers`/`scrub_sweep` and the `recovery` module's re-checking
//! recovery operate on a real [`WeightDram`] and [`RadarProtection`] — only the
//! scheduling differs: instead of OS threads, a memoized depth-first search forks
//! the whole state at every enabled step. [`Mutation`] seeds deliberately broken
//! protocol variants (skip the recovery re-check, publish the fetch ticket before
//! recovering, drop the ticket wait, drop the previous-epoch window, publish the
//! snapshot before its refresh) and the test suite demonstrates the
//! checker catches each one — the "teeth" that justify trusting a green run.

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use radar_core::{DetectionReport, KeyEpoch, RadarConfig, RadarProtection, RecoveryReport};
use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{Linear, Sequential};
use radar_quant::{QuantizedModel, MSB};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::recovery::recover_in_dram_traced;
use crate::steps::{build_snapshot, refresh_layers, rotation_step, scrub_sweep, RotationAction};

/// Cap on recorded violations; exploration continues (for accurate state/schedule
/// counts) but further violations are dropped once this many are recorded.
const MAX_VIOLATIONS: usize = 8;

/// A deliberately broken protocol variant, used to prove the checker has teeth: each
/// mutation corresponds to a plausible "simplification" of the engine, and for each
/// one the exhaustive search must find an interleaving that violates an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The shipped protocol, unmodified.
    #[default]
    None,
    /// Recovery skips the re-check against the current image and zeroes whatever the
    /// (possibly stale) detection report names. Racing detectors then double-zero and
    /// double-count the same groups — violating recovery idempotence.
    NoRecheck,
    /// The worker publishes its fetch ticket *before* performing in-path recovery,
    /// letting the next batch fetch corrupted bytes mid-recovery. Outcomes then
    /// depend on the interleaving — violating schedule determinism.
    PublishBeforeRecover,
    /// Workers skip the ticket wait and fetch as soon as their batch is dispatched;
    /// the raw `publish` store then moves the ticket backwards under out-of-order
    /// completion, and barrier waits (`fetched >= offset`) can strand the adversary
    /// forever — a ticket/barrier deadlock the checker must find.
    NoTicket,
    /// The `{current, previous}` acceptance window is dropped: an epoch publish
    /// retires the previous epoch immediately, and a worker whose pinned epoch is no
    /// longer accepted "assumes clean" instead of verifying. A publish landing in the
    /// pin→fetch window then lets a struck batch serve corrupted bytes unverified —
    /// a corrupt-served violation the checker must find.
    NoPreviousEpoch,
    /// The worker publishes its batch's snapshot to the shared slot *before* in-path
    /// recovery refreshes the flagged layers, then consumes and serves those stale
    /// bytes. The batch and epoch stamps still match — only the build→refresh→publish
    /// ordering is broken — so the stamp asserts cannot save the run and the
    /// pre-recovery corruption reaches traffic: a corrupt-served violation the
    /// checker must find.
    StaleSnapshot,
}

/// A scripted strike: MSB flips applied to the DRAM image when the batcher's logical
/// clock reaches `at_batch` (before that batch is dispatched).
#[derive(Debug, Clone)]
pub struct StrikeSpec {
    /// Batch offset the strike fires at; must be below the scenario's batch count.
    pub at_batch: usize,
    /// `(layer, weight)` positions whose most-significant bit is flipped.
    pub flips: Vec<(usize, usize)>,
}

/// One model-checking scenario: a real signed model in a real DRAM image, a worker
/// pool size, a traffic length in batches, the scrub cadence, one optional scripted
/// strike, and the protocol variant to check.
#[derive(Debug, Clone)]
pub struct Scenario {
    protection: RadarProtection,
    dram: WeightDram,
    /// Pristine per-layer weight bytes, for corrupt-served accounting.
    clean: Vec<Vec<i8>>,
    num_layers: usize,
    /// Inference workers (batch `b` is processed by worker `b % workers`).
    pub workers: usize,
    /// Total batches served.
    pub batches: usize,
    /// Whether workers verify each layer in the fetch path.
    pub inpath_verify: bool,
    /// Scrub sweep cadence in batches (`0` disables scrubbing).
    pub scrub_every: usize,
    /// Layers verified per sweep step (`0` means the whole image).
    pub scrub_layers: usize,
    /// Key-rotation cadence in batches (`0` disables rotation). Each due tick
    /// performs exactly one rotation action — begin, re-sign one layer, publish,
    /// retire — mirroring the engine's re-keying task.
    pub rotate_every: usize,
    /// The scripted strike, if any.
    pub strike: Option<StrikeSpec>,
    /// When set, the adversary and scrubber are *not* held at the fetch barrier:
    /// they may interleave with in-flight fetches and pending recoveries. The full
    /// engine protocol never does this — the relaxation exists to expose the racing
    /// recovery window and prove the re-check keeps it safe.
    pub relax_barrier: bool,
    /// The protocol variant under check.
    pub mutation: Mutation,
    /// Require all interleavings to converge to a single terminal outcome.
    pub require_determinism: bool,
    /// Require that no batch ever serves corrupted (non-recovered) weight bytes.
    pub require_no_corrupt_served: bool,
}

impl Scenario {
    /// Builds the standard small scenario: a 3-layer linear stack (16 weights per
    /// layer, 8-weight groups) signed under the paper-default 2-bit configuration,
    /// `workers` workers and `batches` batches, in-path verification on, a scrub
    /// sweep of 2 layers every 2 batches, barriers enforced, no strike.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `batches` is zero.
    pub fn small(workers: usize, batches: usize) -> Self {
        assert!(workers > 0 && batches > 0, "degenerate scenario");
        let mut rng = StdRng::seed_from_u64(0x5EED_5CED);
        let mut stack = Sequential::new();
        stack.push(Linear::new(&mut rng, 4, 4));
        stack.push(Linear::new(&mut rng, 4, 4));
        stack.push(Linear::new(&mut rng, 4, 4));
        let model = QuantizedModel::new(Box::new(stack));
        let protection = RadarProtection::new(&model, RadarConfig::paper_default(8));
        let dram = WeightDram::load(&model, DramGeometry::default());
        let num_layers = dram.num_layers();
        let clean = (0..num_layers)
            .map(|layer| {
                let mut buf = Vec::new();
                dram.read_layer_into(layer, &mut buf);
                buf
            })
            .collect();
        Scenario {
            protection,
            dram,
            clean,
            num_layers,
            workers,
            batches,
            inpath_verify: true,
            scrub_every: 2,
            scrub_layers: 2,
            rotate_every: 0,
            strike: None,
            relax_barrier: false,
            mutation: Mutation::None,
            require_determinism: true,
            require_no_corrupt_served: true,
        }
    }

    /// Batch offsets at which scrub sweeps fire (between batches, engine cadence).
    fn sweep_offsets(&self) -> Vec<usize> {
        if self.scrub_every == 0 {
            return Vec::new();
        }
        (1..self.batches)
            .filter(|b| b % self.scrub_every == 0)
            .collect()
    }

    /// Batch offsets at which rotation ticks fire (same cadence shape as sweeps).
    fn rotation_offsets(&self) -> Vec<usize> {
        if self.rotate_every == 0 {
            return Vec::new();
        }
        (1..self.batches)
            .filter(|b| b % self.rotate_every == 0)
            .collect()
    }

    fn scrub_step(&self) -> usize {
        if self.scrub_layers == 0 {
            self.num_layers
        } else {
            self.scrub_layers.min(self.num_layers)
        }
    }
}

/// One atomic protocol step, attributed to the actor that performs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// The batcher dispatches the next batch.
    Dispatch,
    /// The adversary mounts the scripted strike.
    Strike,
    /// Worker `w` takes its fetch ticket and pins the epoch it will verify under —
    /// the engine's short pre-fetch read lock on the protection.
    WorkerPin(usize),
    /// Worker `w` fetches (and in-path verifies, at its pinned epoch) its next
    /// batch's weights.
    WorkerFetch(usize),
    /// Worker `w` recovers any flagged groups and publishes the fetch ticket.
    WorkerPublish(usize),
    /// Worker `w` completes a recovery deferred by [`Mutation::PublishBeforeRecover`].
    WorkerRecover(usize),
    /// Worker `w` runs inference and serves its batch — concurrent with the next
    /// batch's fetch, exactly as in the engine (the ticket is already published).
    WorkerServe(usize),
    /// The scrubber verifies its due sweep slice of the DRAM image.
    ScrubVerify,
    /// The scrubber recovers what its sweep flagged and acknowledges the batcher.
    ScrubRecover,
    /// The re-keying task performs its due rotation tick (one action of the epoch
    /// state machine: begin / re-sign one layer / publish / retire).
    Rotate,
}

/// An invariant violation found on some interleaving.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
    /// The schedule (sequence of steps) that reaches the violating state.
    pub trace: Vec<Op>,
}

/// The logical outcome of one terminal state — everything a serving run's telemetry
/// would report, minus wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Outcome {
    /// Detection events as `(via_scrub, batch, groups_flagged)`, in occurrence order.
    pub detections: Vec<(bool, usize, usize)>,
    /// Total groups reported zeroed by all recovery passes.
    pub groups_zeroed: usize,
    /// Total weights reported zeroed by all recovery passes.
    pub weights_zeroed: usize,
    /// Distinct `(layer, group)` pairs actually zeroed in the image.
    pub zeroed: Vec<(usize, usize)>,
    /// Batches that served corrupted (neither clean nor recovered-zero) bytes, as
    /// `(batch, corrupted_byte_count)`.
    pub corrupt_served: Vec<(usize, usize)>,
    /// Whether a full verification of the final DRAM image flags nothing.
    pub final_dram_clean: bool,
    /// Index of the current [`KeyEpoch`] at the terminal state.
    pub final_epoch: u32,
    /// Epochs published by rotation ticks during the run.
    pub epochs_published: usize,
    /// Groups recovered by rotation ticks' pre-sign checks (detections the engine
    /// reports as rotation events rather than detection events).
    pub rotation_recovered_groups: usize,
}

/// What one exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct protocol states visited.
    pub states: usize,
    /// Distinct complete interleavings (schedules) — counted exactly via memoized
    /// path counting, even though each state is only expanded once.
    pub schedules: u128,
    /// Distinct terminal outcomes observed.
    pub terminal_outcomes: usize,
    /// A representative terminal outcome (the first one reached), if any.
    pub outcome: Option<Outcome>,
    /// Every invariant violation found (capped at an internal limit).
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Whether every interleaving satisfied every checked invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Idle,
    /// Ticket taken, verification epoch pinned, fetch not yet performed — the
    /// engine's pin→fetch window a rotation publish may land in.
    Pinned {
        batch: usize,
        epoch: KeyEpoch,
    },
    Verified {
        batch: usize,
        report: DetectionReport,
        layers: Vec<Vec<i8>>,
    },
    Recovering {
        batch: usize,
        report: DetectionReport,
        layers: Vec<Vec<i8>>,
    },
    Serving {
        batch: usize,
        layers: Vec<Vec<i8>>,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct WorkerState {
    next_batch: usize,
    phase: Phase,
}

#[derive(Debug, Clone)]
struct State {
    dram: WeightDram,
    prot: RadarProtection,
    /// The raw fetch-ticket value, exactly as the engine's atomic would hold it.
    fetched: usize,
    /// Batches handed to the worker pool.
    dispatched: usize,
    /// Batches fully processed (publish + serve) — models channel backpressure.
    completed: usize,
    workers: Vec<WorkerState>,
    /// The shared snapshot slot: the latest published `(batch, layers)` — the
    /// model of `SnapshotSlot::publish`/`latest` (stamps minus the epoch, which
    /// the engine asserts against the pin it already holds).
    slot: Option<(usize, Vec<Vec<i8>>)>,
    strike_fired: bool,
    sweeps_done: usize,
    scrub_cursor: usize,
    scrub_inflight: Option<DetectionReport>,
    zeroed: BTreeSet<(usize, usize)>,
    detections: Vec<(bool, usize, usize)>,
    recovery: RecoveryReport,
    corrupt_served: Vec<(usize, usize)>,
    rotations_done: usize,
    epochs_published: usize,
    /// Groups the rotation ticks' pre-sign checks recovered (a silent detector:
    /// the engine reports these as rotation events, not detection events).
    rotation_recovered_groups: usize,
}

/// The batch offsets at which the batcher releases each background task's ticks.
struct Cadence {
    sweeps: Vec<usize>,
    rotations: Vec<usize>,
}

impl State {
    fn new(sc: &Scenario) -> Self {
        State {
            dram: sc.dram.clone(),
            prot: sc.protection.clone(),
            fetched: 0,
            dispatched: 0,
            completed: 0,
            workers: (0..sc.workers)
                .map(|w| WorkerState {
                    next_batch: w,
                    phase: Phase::Idle,
                })
                .collect(),
            slot: None,
            strike_fired: false,
            sweeps_done: 0,
            scrub_cursor: 0,
            scrub_inflight: None,
            zeroed: BTreeSet::new(),
            detections: Vec::new(),
            recovery: RecoveryReport::default(),
            corrupt_served: Vec::new(),
            rotations_done: 0,
            epochs_published: 0,
            rotation_recovered_groups: 0,
        }
    }

    /// A strike is scripted at or before the current dispatch point but has not
    /// fired — the batcher may not dispatch past it.
    fn strike_blocking(&self, sc: &Scenario) -> bool {
        sc.strike
            .as_ref()
            .is_some_and(|s| !self.strike_fired && s.at_batch <= self.dispatched)
    }

    /// The next scrub sweep is due at or before the current dispatch point.
    fn sweep_due(&self, cadence: &Cadence) -> bool {
        self.sweeps_done < cadence.sweeps.len()
            && cadence.sweeps[self.sweeps_done] <= self.dispatched
    }

    /// The next rotation tick is due at or before the current dispatch point.
    fn rotation_due(&self, cadence: &Cadence) -> bool {
        self.rotations_done < cadence.rotations.len()
            && cadence.rotations[self.rotations_done] <= self.dispatched
    }

    fn enabled(&self, sc: &Scenario, cadence: &Cadence) -> Vec<Op> {
        let mut ops = Vec::new();
        let strike_blocking = self.strike_blocking(sc);
        let sweep_due = self.sweep_due(cadence);
        let rotation_due = self.rotation_due(cadence);
        // Batcher: dispatch the next batch once due events have fired, the due sweep
        // and rotation tick have completed, and the (modeled) bounded batch channel
        // has room.
        if self.dispatched < sc.batches
            && !strike_blocking
            && !sweep_due
            && !rotation_due
            && self.scrub_inflight.is_none()
            && self.dispatched < self.completed + sc.workers
        {
            ops.push(Op::Dispatch);
        }
        // Adversary: strikes when the logical clock reaches its offset, held at the
        // fetch barrier unless the scenario relaxes it.
        if let Some(strike) = &sc.strike {
            if !self.strike_fired
                && self.dispatched == strike.at_batch
                && (sc.relax_barrier || self.fetched >= strike.at_batch)
            {
                ops.push(Op::Strike);
            }
        }
        // Scrubber: sweeps at its cadence, after due strikes, held at the barrier
        // unless relaxed; recovery of a verified sweep is a separate step so other
        // actors may interleave between them when the barrier is relaxed.
        if sweep_due
            && self.scrub_inflight.is_none()
            && !strike_blocking
            && (sc.relax_barrier || self.fetched >= cadence.sweeps[self.sweeps_done])
        {
            ops.push(Op::ScrubVerify);
        }
        if self.scrub_inflight.is_some() {
            ops.push(Op::ScrubRecover);
        }
        // Re-keying task: one rotation tick at its cadence, after due strikes and
        // the due sweep (the engine's batcher releases scrub before rotation at the
        // same offset), held at the fetch barrier unless relaxed.
        if rotation_due
            && !strike_blocking
            && !sweep_due
            && self.scrub_inflight.is_none()
            && (sc.relax_barrier || self.fetched >= cadence.rotations[self.rotations_done])
        {
            ops.push(Op::Rotate);
        }
        // Workers.
        for (w, worker) in self.workers.iter().enumerate() {
            match &worker.phase {
                Phase::Idle => {
                    let b = worker.next_batch;
                    if b < sc.batches
                        && b < self.dispatched
                        && (sc.mutation == Mutation::NoTicket || self.fetched == b)
                    {
                        ops.push(Op::WorkerPin(w));
                    }
                }
                Phase::Pinned { .. } => ops.push(Op::WorkerFetch(w)),
                Phase::Verified { .. } => ops.push(Op::WorkerPublish(w)),
                Phase::Recovering { .. } => ops.push(Op::WorkerRecover(w)),
                Phase::Serving { .. } => ops.push(Op::WorkerServe(w)),
            }
        }
        ops
    }

    fn is_terminal(&self, sc: &Scenario, cadence: &Cadence) -> bool {
        self.dispatched == sc.batches
            && self.completed == sc.batches
            && self.sweeps_done == cadence.sweeps.len()
            && self.rotations_done == cadence.rotations.len()
            && self.scrub_inflight.is_none()
            && self
                .workers
                .iter()
                .all(|w| matches!(w.phase, Phase::Idle) && w.next_batch >= sc.batches)
    }

    /// Recovery as the protocol under check performs it: the shipped re-checking
    /// recovery, or the [`Mutation::NoRecheck`] variant that trusts a stale report.
    fn recover(&mut self, sc: &Scenario, report: &DetectionReport) {
        let State {
            dram, prot, zeroed, ..
        } = self;
        let recovered = if sc.mutation == Mutation::NoRecheck {
            let rec = prot.recover_in(report, |layer, members| {
                for &member in members {
                    dram.write(dram.offset_of(layer, member), 0);
                }
            });
            for flagged in &report.flagged {
                zeroed.insert((flagged.layer, flagged.group));
            }
            rec
        } else {
            recover_in_dram_traced(prot, dram, report, |layer, group| {
                zeroed.insert((layer, group));
            })
        };
        self.recovery.groups_zeroed += recovered.groups_zeroed;
        self.recovery.weights_zeroed += recovered.weights_zeroed;
    }

    /// Accounts what batch `batch` serves: every snapshot byte must be either the
    /// clean value or zero-with-its-group-recovered; anything else is corrupted
    /// traffic.
    fn account_serving(&mut self, sc: &Scenario, batch: usize, layers: &[Vec<i8>]) {
        let mut corrupt = 0usize;
        for (layer, bytes) in layers.iter().enumerate() {
            for (i, &value) in bytes.iter().enumerate() {
                if value == sc.clean[layer][i] {
                    continue;
                }
                let group = sc.protection.group_of(layer, i);
                if value == 0 && self.zeroed.contains(&(layer, group)) {
                    continue; // recovered weight
                }
                corrupt += 1;
            }
        }
        if corrupt > 0 {
            self.corrupt_served.push((batch, corrupt));
        }
    }

    /// Finishes a worker's pre-serve work: recovery (if flagged), snapshot refresh,
    /// snapshot publish/consume and ticket publish, in the order the protocol
    /// variant prescribes. The worker then serves its (now fixed) snapshot as a
    /// separate, concurrent step.
    fn finish_batch(
        &mut self,
        sc: &Scenario,
        w: usize,
        batch: usize,
        report: &DetectionReport,
        mut layers: Vec<Vec<i8>>,
        publish: bool,
    ) {
        if sc.mutation == Mutation::StaleSnapshot {
            // The seeded bug: publish the snapshot before recovery refreshes it.
            // The batch stamp is correct — only the ordering is broken.
            self.slot = Some((batch, layers.clone()));
        }
        if report.attack_detected() {
            self.recover(sc, report);
            refresh_layers(&self.dram, report, &mut layers);
        }
        if sc.mutation != Mutation::StaleSnapshot {
            // The shipped ordering: build → recover → refresh → publish.
            self.slot = Some((batch, layers));
        }
        // Consume `latest()` while still holding the fetch ticket, asserting the
        // stamp exactly as the engine does. Under `StaleSnapshot` the stamp still
        // matches — the assert cannot catch the broken ordering, which is the
        // point: the corrupt-served invariant has to.
        let (stamp, layers) = self
            .slot
            .clone()
            .expect("the ticket holder published a snapshot");
        assert_eq!(stamp, batch, "stale snapshot consumed");
        if publish {
            self.fetched = batch + 1;
        }
        self.workers[w].phase = Phase::Serving { batch, layers };
    }

    fn apply(&mut self, sc: &Scenario, cadence: &Cadence, op: Op) {
        match op {
            Op::Dispatch => self.dispatched += 1,
            Op::Strike => {
                let strike = sc.strike.as_ref().expect("strike op requires a strike");
                for &(layer, weight) in &strike.flips {
                    let offset = self.dram.offset_of(layer, weight);
                    self.dram.flip_bit(offset, MSB);
                }
                self.strike_fired = true;
            }
            Op::WorkerPin(w) => {
                let batch = self.workers[w].next_batch;
                let epoch = self.prot.current_epoch();
                self.workers[w].phase = Phase::Pinned { batch, epoch };
            }
            Op::WorkerFetch(w) => {
                let phase = std::mem::replace(&mut self.workers[w].phase, Phase::Idle);
                let Phase::Pinned { batch, epoch } = phase else {
                    unreachable!("fetch requires a pinned epoch");
                };
                let (mut layers, mut acc) = (Vec::new(), Vec::new());
                let mut unused = Duration::ZERO;
                // The seeded NoPreviousEpoch bug: a pin the (prematurely retired)
                // protection no longer accepts is "assumed clean" instead of
                // verified. The shipped protocol always verifies — an unknown epoch
                // falls back to the current store, which fails closed.
                let skip_verify =
                    sc.mutation == Mutation::NoPreviousEpoch && !self.prot.accepts_epoch(epoch);
                let prot = (sc.inpath_verify && !skip_verify).then_some((&self.prot, epoch));
                let report = build_snapshot(&self.dram, prot, &mut layers, &mut acc, &mut unused);
                self.workers[w].phase = Phase::Verified {
                    batch,
                    report,
                    layers,
                };
            }
            Op::WorkerPublish(w) => {
                let phase = std::mem::replace(&mut self.workers[w].phase, Phase::Idle);
                let Phase::Verified {
                    batch,
                    report,
                    layers,
                } = phase
                else {
                    unreachable!("publish requires a verified fetch");
                };
                if report.attack_detected() {
                    self.detections.push((false, batch, report.num_flagged()));
                    if sc.mutation == Mutation::PublishBeforeRecover {
                        // The seeded bug: release the next batch's fetch before the
                        // corrupted groups are recovered.
                        self.fetched = batch + 1;
                        self.workers[w].phase = Phase::Recovering {
                            batch,
                            report,
                            layers,
                        };
                        return;
                    }
                }
                self.finish_batch(sc, w, batch, &report, layers, true);
            }
            Op::WorkerRecover(w) => {
                let phase = std::mem::replace(&mut self.workers[w].phase, Phase::Idle);
                let Phase::Recovering {
                    batch,
                    report,
                    layers,
                } = phase
                else {
                    unreachable!("deferred recovery requires a recovering worker");
                };
                // Ticket already (wrongly) published by the mutated publish step.
                self.finish_batch(sc, w, batch, &report, layers, false);
            }
            Op::WorkerServe(w) => {
                let phase = std::mem::replace(&mut self.workers[w].phase, Phase::Idle);
                let Phase::Serving { batch, layers } = phase else {
                    unreachable!("serve requires a published batch");
                };
                self.completed += 1;
                self.account_serving(sc, batch, &layers);
                let worker = &mut self.workers[w];
                worker.next_batch += sc.workers;
                worker.phase = Phase::Idle;
            }
            Op::ScrubVerify => {
                let (mut buf, mut acc) = (Vec::new(), Vec::new());
                let report = scrub_sweep(
                    &self.dram,
                    &self.prot,
                    self.scrub_cursor,
                    sc.scrub_step(),
                    &mut buf,
                    &mut acc,
                );
                self.scrub_cursor = (self.scrub_cursor + sc.scrub_step()) % sc.num_layers;
                self.scrub_inflight = Some(report);
            }
            Op::ScrubRecover => {
                let report = self
                    .scrub_inflight
                    .take()
                    .expect("scrub recover requires a verified sweep");
                if report.attack_detected() {
                    let at = cadence.sweeps[self.sweeps_done];
                    self.detections.push((true, at, report.num_flagged()));
                    self.recover(sc, &report);
                }
                self.sweeps_done += 1;
            }
            Op::Rotate => {
                let (mut buf, mut acc) = (Vec::new(), Vec::new());
                let State {
                    dram, prot, zeroed, ..
                } = self;
                let action = rotation_step(dram, prot, &mut buf, &mut acc, |layer, group| {
                    zeroed.insert((layer, group));
                });
                match action {
                    RotationAction::Resigned { recovered, .. } => {
                        self.recovery.groups_zeroed += recovered.groups_zeroed;
                        self.recovery.weights_zeroed += recovered.weights_zeroed;
                        self.rotation_recovered_groups += recovered.groups_zeroed;
                    }
                    RotationAction::Published(_) => {
                        self.epochs_published += 1;
                        if sc.mutation == Mutation::NoPreviousEpoch {
                            // The seeded bug: close the acceptance window at once.
                            self.prot.retire_previous();
                        }
                    }
                    RotationAction::Began(_) | RotationAction::Retired(_) => {}
                }
                self.rotations_done += 1;
            }
        }
    }

    fn outcome(&self, sc: &Scenario) -> Outcome {
        // Full-image verification against the current (re-signed) protection: clean
        // means every corruption was recovered and nothing re-flags.
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        let final_report =
            scrub_sweep(&self.dram, &self.prot, 0, sc.num_layers, &mut buf, &mut acc);
        Outcome {
            detections: self.detections.clone(),
            groups_zeroed: self.recovery.groups_zeroed,
            weights_zeroed: self.recovery.weights_zeroed,
            zeroed: self.zeroed.iter().copied().collect(),
            corrupt_served: self.corrupt_served.clone(),
            final_dram_clean: !final_report.attack_detected(),
            final_epoch: self.prot.current_epoch().index(),
            epochs_published: self.epochs_published,
            rotation_recovered_groups: self.rotation_recovered_groups,
        }
    }

    fn fingerprint(&self, sc: &Scenario) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut buf = Vec::new();
        for layer in 0..sc.num_layers {
            self.dram.read_layer_into(layer, &mut buf);
            buf.hash(&mut h);
        }
        self.fetched.hash(&mut h);
        self.dispatched.hash(&mut h);
        self.completed.hash(&mut h);
        self.strike_fired.hash(&mut h);
        self.sweeps_done.hash(&mut h);
        self.scrub_cursor.hash(&mut h);
        // Epoch state: the stores themselves are a deterministic function of the
        // (hashed) image, zeroed set and these indices, so hashing the indices and
        // the re-sign progress is sound for memoization.
        self.rotations_done.hash(&mut h);
        self.epochs_published.hash(&mut h);
        self.rotation_recovered_groups.hash(&mut h);
        self.prot.current_epoch().index().hash(&mut h);
        self.prot.previous_epoch().map(KeyEpoch::index).hash(&mut h);
        self.prot
            .pending_progress()
            .map(|(epoch, resigned)| (epoch.index(), resigned))
            .hash(&mut h);
        for worker in &self.workers {
            worker.next_batch.hash(&mut h);
            match &worker.phase {
                Phase::Idle => 0u8.hash(&mut h),
                Phase::Pinned { batch, epoch } => {
                    4u8.hash(&mut h);
                    batch.hash(&mut h);
                    epoch.index().hash(&mut h);
                }
                Phase::Verified {
                    batch,
                    report,
                    layers,
                } => {
                    1u8.hash(&mut h);
                    batch.hash(&mut h);
                    report.flagged.hash(&mut h);
                    layers.hash(&mut h);
                }
                Phase::Recovering {
                    batch,
                    report,
                    layers,
                } => {
                    2u8.hash(&mut h);
                    batch.hash(&mut h);
                    report.flagged.hash(&mut h);
                    layers.hash(&mut h);
                }
                Phase::Serving { batch, layers } => {
                    3u8.hash(&mut h);
                    batch.hash(&mut h);
                    layers.hash(&mut h);
                }
            }
        }
        match &self.scrub_inflight {
            None => 0u8.hash(&mut h),
            Some(report) => {
                1u8.hash(&mut h);
                report.flagged.hash(&mut h);
            }
        }
        match &self.slot {
            None => 0u8.hash(&mut h),
            Some((batch, layers)) => {
                1u8.hash(&mut h);
                batch.hash(&mut h);
                layers.hash(&mut h);
            }
        }
        self.zeroed.hash(&mut h);
        self.detections.hash(&mut h);
        self.recovery.groups_zeroed.hash(&mut h);
        self.recovery.weights_zeroed.hash(&mut h);
        self.corrupt_served.hash(&mut h);
        h.finish()
    }
}

struct Explorer<'a> {
    sc: &'a Scenario,
    cadence: Cadence,
    /// fingerprint → number of complete schedules reachable from that state.
    visited: HashMap<u64, u128>,
    terminals: HashMap<u64, Outcome>,
    violations: Vec<Violation>,
    states: usize,
    first_outcome: Option<Outcome>,
}

impl Explorer<'_> {
    fn violate(&mut self, invariant: &'static str, detail: String, path: &[Op]) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                invariant,
                detail,
                trace: path.to_vec(),
            });
        }
    }

    fn check_terminal(&mut self, outcome: &Outcome, path: &[Op]) {
        let sc = self.sc;
        let struck = sc
            .strike
            .as_ref()
            .is_some_and(|s| !s.flips.is_empty() && (sc.inpath_verify || sc.scrub_every > 0));
        if struck && outcome.detections.is_empty() && outcome.rotation_recovered_groups == 0 {
            self.violate(
                "lost-detection",
                "a strike landed flips but no detector ever flagged them".to_string(),
                path,
            );
        }
        if struck && !outcome.final_dram_clean {
            self.violate(
                "lost-detection",
                "the final DRAM image still fails verification".to_string(),
                path,
            );
        }
        if outcome.groups_zeroed != outcome.zeroed.len() {
            self.violate(
                "double-recovery",
                format!(
                    "recovery reports {} group zeroings but only {} distinct groups were zeroed",
                    outcome.groups_zeroed,
                    outcome.zeroed.len()
                ),
                path,
            );
        }
        if sc.require_no_corrupt_served && !outcome.corrupt_served.is_empty() {
            self.violate(
                "corrupt-served",
                format!(
                    "batches served corrupted bytes: {:?}",
                    outcome.corrupt_served
                ),
                path,
            );
        }
    }

    fn dfs(&mut self, state: &State, path: &mut Vec<Op>) -> u128 {
        let fp = state.fingerprint(self.sc);
        if let Some(&count) = self.visited.get(&fp) {
            return count;
        }
        self.states += 1;
        let count = if state.is_terminal(self.sc, &self.cadence) {
            let outcome = state.outcome(self.sc);
            self.check_terminal(&outcome, path);
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            outcome.hash(&mut hasher);
            let outcome_fp = hasher.finish();
            if self.sc.require_determinism
                && !self.terminals.is_empty()
                && !self.terminals.contains_key(&outcome_fp)
            {
                let other = self
                    .terminals
                    .values()
                    .next()
                    .expect("a prior terminal outcome exists")
                    .clone();
                self.violate(
                    "determinism",
                    format!("divergent terminal outcomes:\n  {other:?}\nvs\n  {outcome:?}"),
                    path,
                );
            }
            self.terminals.entry(outcome_fp).or_insert_with(|| {
                if self.first_outcome.is_none() {
                    self.first_outcome = Some(outcome.clone());
                }
                outcome
            });
            1
        } else {
            let ops = state.enabled(self.sc, &self.cadence);
            if ops.is_empty() {
                self.violate(
                    "deadlock",
                    format!(
                        "no step enabled: fetched={}, dispatched={}, completed={}, \
                         sweeps_done={}, strike_fired={}",
                        state.fetched,
                        state.dispatched,
                        state.completed,
                        state.sweeps_done,
                        state.strike_fired
                    ),
                    path,
                );
                1 // a stuck schedule still counts as one (failed) interleaving
            } else {
                let mut total = 0u128;
                for op in ops {
                    path.push(op);
                    let mut next = state.clone();
                    next.apply(self.sc, &self.cadence, op);
                    total += self.dfs(&next, path);
                    path.pop();
                }
                total
            }
        };
        self.visited.insert(fp, count);
        count
    }
}

/// Exhaustively enumerates every interleaving of `scenario`'s protocol steps,
/// checking the serve/detect invariants in each, and returns what was found.
///
/// The search is exact: memoization collapses states reached by multiple schedules,
/// but the reported [`schedules`](ExploreReport::schedules) counts every distinct
/// complete interleaving.
///
/// # Panics
///
/// Panics if the scenario scripts a strike at or past its batch count (the engine
/// would warn and never fire it; the checker refuses to silently not check it).
pub fn explore(scenario: &Scenario) -> ExploreReport {
    if let Some(strike) = &scenario.strike {
        assert!(
            strike.at_batch < scenario.batches,
            "strike at batch {} never fires in a {}-batch run",
            strike.at_batch,
            scenario.batches
        );
    }
    let mut explorer = Explorer {
        sc: scenario,
        cadence: Cadence {
            sweeps: scenario.sweep_offsets(),
            rotations: scenario.rotation_offsets(),
        },
        visited: HashMap::new(),
        terminals: HashMap::new(),
        violations: Vec::new(),
        states: 0,
        first_outcome: None,
    };
    let mut path = Vec::new();
    let schedules = explorer.dfs(&State::new(scenario), &mut path);
    ExploreReport {
        states: explorer.states,
        schedules,
        terminal_outcomes: explorer.terminals.len(),
        outcome: explorer.first_outcome,
        violations: explorer.violations,
    }
}
