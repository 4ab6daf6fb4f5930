//! Exhaustive model-checking of the serve/detect sync protocol.
//!
//! Each test enumerates *every* interleaving of the protocol's atomic steps for a
//! small configuration (2 workers, 3-layer model) via [`radar_serve::schedule`] and
//! asserts the concurrency invariants hold on all of them — then seeds deliberately
//! broken protocol variants and asserts the checker catches each one, proving a
//! green run means something.

use radar_serve::schedule::{explore, Mutation, Scenario, StrikeSpec};

fn strike_at(batch: usize) -> Option<StrikeSpec> {
    // One MSB flip in layer 1 — covered by the first scrub sweep (layers 0..2) and
    // by every in-path fetch.
    Some(StrikeSpec {
        at_batch: batch,
        flips: vec![(1, 3)],
    })
}

#[test]
fn quiet_run_is_deterministic_and_serves_only_clean_traffic() {
    let report = explore(&Scenario::small(2, 4));
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert_eq!(report.terminal_outcomes, 1);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(outcome.detections.is_empty());
    assert_eq!(outcome.groups_zeroed, 0);
    assert!(outcome.corrupt_served.is_empty());
    assert!(outcome.final_dram_clean);
    // The enumeration is genuinely exhaustive, not a sampled handful of schedules.
    assert!(
        report.schedules > 100,
        "expected many interleavings, got {}",
        report.schedules
    );
}

#[test]
fn strike_is_detected_and_recovered_in_every_interleaving() {
    let mut scenario = Scenario::small(2, 4);
    scenario.strike = strike_at(2);
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    // Full barrier protocol: one logical outcome no matter the schedule.
    assert_eq!(report.terminal_outcomes, 1);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(!outcome.detections.is_empty());
    // In-path verification catches the flip before anything corrupted is served.
    assert!(outcome.corrupt_served.is_empty());
    assert!(outcome.final_dram_clean);
    assert_eq!(outcome.groups_zeroed, outcome.zeroed.len());
    assert!(outcome.groups_zeroed > 0);
}

#[test]
fn scrub_only_protection_still_catches_the_strike_everywhere() {
    let mut scenario = Scenario::small(2, 4);
    scenario.strike = strike_at(2);
    scenario.inpath_verify = false;
    // Without in-path checks, traffic between flip and sweep may be corrupted —
    // that window is the paper's detection-latency tradeoff, not a protocol bug.
    scenario.require_no_corrupt_served = false;
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(
        outcome
            .detections
            .iter()
            .all(|&(via_scrub, _, _)| via_scrub),
        "only the scrubber can detect here: {:?}",
        outcome.detections
    );
    assert!(!outcome.detections.is_empty());
    assert!(outcome.final_dram_clean);
}

#[test]
fn racing_recovery_with_relaxed_barrier_stays_safe() {
    // Drop the fetch barrier so the scrubber and in-path detector can both hold
    // stale reports for the same corruption — the racing-recovery window. The
    // shipped re-checking recovery must keep every ordering safe: each group is
    // zeroed and counted exactly once, and the image always converges to clean.
    let mut scenario = Scenario::small(2, 3);
    scenario.strike = strike_at(1);
    scenario.relax_barrier = true;
    // Who detects first now legitimately varies per schedule.
    scenario.require_determinism = false;
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(outcome.final_dram_clean);
    assert_eq!(outcome.groups_zeroed, outcome.zeroed.len());
}

#[test]
fn full_key_roll_under_strict_barriers_is_deterministic_and_loses_no_detection() {
    // Rotation tick every batch: over 8 batches the 3-layer model completes a full
    // roll (begin, 3 re-signs, publish, retire) and begins the next. A strike lands
    // mid-roll, at the offset where layer 1's re-sign tick is due — the pre-sign
    // check must catch and recover it before the layer is blessed into the next
    // epoch, and every interleaving must converge to the same outcome.
    let mut scenario = Scenario::small(2, 8);
    scenario.rotate_every = 1;
    scenario.strike = strike_at(3);
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert_eq!(report.terminal_outcomes, 1);
    let outcome = report.outcome.expect("at least one terminal");
    assert_eq!(outcome.epochs_published, 1);
    assert_eq!(outcome.final_epoch, 1);
    // Detection across the epoch boundary is never lost: either a verify pass
    // flagged the flip or a rotation pre-sign check recovered it.
    assert!(!outcome.detections.is_empty() || outcome.rotation_recovered_groups > 0);
    assert!(outcome.corrupt_served.is_empty());
    assert!(outcome.final_dram_clean);
    assert_eq!(outcome.groups_zeroed, outcome.zeroed.len());
    assert!(outcome.groups_zeroed > 0);
}

#[test]
fn epoch_publish_in_the_pin_window_stays_safe_with_relaxed_barriers() {
    // Drop the fetch barrier so rotation ticks can land *between* a worker pinning
    // its verification epoch and performing the fetch — the window the strict
    // protocol provably never opens. The `{current, previous}` acceptance must keep
    // every interleaving safe: the pinned verify still detects the strike against a
    // retained store, and nothing corrupted is ever served.
    let mut scenario = Scenario::small(2, 8);
    scenario.rotate_every = 1;
    scenario.strike = strike_at(5);
    scenario.relax_barrier = true;
    // Which detector fires first now varies per schedule.
    scenario.require_determinism = false;
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(outcome.final_dram_clean);
    assert_eq!(outcome.groups_zeroed, outcome.zeroed.len());
}

#[test]
fn quiet_rotation_completes_the_roll_without_deadlock_or_divergence() {
    let mut scenario = Scenario::small(2, 8);
    scenario.rotate_every = 1;
    let report = explore(&scenario);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert_eq!(report.terminal_outcomes, 1);
    let outcome = report.outcome.expect("at least one terminal");
    assert!(outcome.detections.is_empty());
    assert_eq!(outcome.groups_zeroed, 0);
    assert_eq!(outcome.epochs_published, 1);
    assert_eq!(outcome.final_epoch, 1);
    assert!(outcome.corrupt_served.is_empty());
    assert!(outcome.final_dram_clean);
}

#[test]
fn mutation_serving_the_pre_refresh_image_is_caught() {
    // Seeded bug: the worker serves its image as the fetch built it, before
    // recovery refreshes the flagged layers. Recovery still zeroes the groups in
    // DRAM, so the final image is clean — only the corrupt-served invariant can
    // flag the pre-recovery bytes that reached traffic.
    let mut scenario = Scenario::small(2, 3);
    scenario.strike = strike_at(1);
    scenario.mutation = Mutation::StaleSnapshot;
    let report = explore(&scenario);
    assert!(!report.passed(), "the checker must catch the seeded bug");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "corrupt-served"),
        "expected a corrupt-served violation, got: {:#?}",
        report.violations
    );
}

#[test]
fn mutation_dropping_the_previous_epoch_window_is_caught() {
    // Seeded bug: a publish retires the previous epoch immediately and a worker
    // whose pinned epoch is no longer accepted assumes its fetch is clean. With the
    // barrier relaxed, a publish can land inside a pin→fetch window right after a
    // strike — the unverified fetch then serves corrupted bytes.
    let mut scenario = Scenario::small(2, 8);
    scenario.rotate_every = 1;
    scenario.strike = strike_at(5);
    scenario.relax_barrier = true;
    scenario.require_determinism = false;
    scenario.mutation = Mutation::NoPreviousEpoch;
    let report = explore(&scenario);
    assert!(!report.passed(), "the checker must catch the seeded bug");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "corrupt-served"),
        "expected a corrupt-served violation, got: {:#?}",
        report.violations
    );
}

#[test]
fn mutation_skipping_the_recovery_recheck_is_caught() {
    // Seeded bug: recovery trusts the (possibly stale) detection report instead of
    // re-verifying the current image. In the racing-recovery window two detectors
    // then zero and count the same group twice.
    let mut scenario = Scenario::small(2, 3);
    scenario.strike = strike_at(1);
    scenario.relax_barrier = true;
    scenario.require_determinism = false;
    scenario.mutation = Mutation::NoRecheck;
    let report = explore(&scenario);
    assert!(!report.passed(), "the checker must catch the seeded bug");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "double-recovery"),
        "expected a double-recovery violation, got: {:#?}",
        report.violations
    );
    // The trace is actionable: it names the schedule that reaches the bug.
    let violation = &report.violations[0];
    assert!(!violation.trace.is_empty());
}

#[test]
fn mutation_publishing_the_ticket_before_recovery_is_caught() {
    // Seeded bug: the worker releases the next batch's fetch ticket before zeroing
    // the flagged groups. The next fetch races the pending recovery and logical
    // outcomes start depending on the schedule.
    let mut scenario = Scenario::small(2, 3);
    scenario.strike = strike_at(1);
    scenario.mutation = Mutation::PublishBeforeRecover;
    let report = explore(&scenario);
    assert!(!report.passed(), "the checker must catch the seeded bug");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "determinism" || v.invariant == "corrupt-served"),
        "expected a determinism or corrupt-served violation, got: {:#?}",
        report.violations
    );
}

#[test]
fn mutation_dropping_the_fetch_ticket_is_caught() {
    // Seeded bug: workers fetch as soon as their batch is dispatched instead of
    // waiting for the ticket. Out-of-order publishes move the ticket backwards and
    // the adversary's barrier wait can strand forever — a ticket/barrier deadlock.
    let mut scenario = Scenario::small(2, 3);
    scenario.strike = strike_at(2);
    scenario.mutation = Mutation::NoTicket;
    scenario.require_determinism = false;
    let report = explore(&scenario);
    assert!(!report.passed(), "the checker must catch the seeded bug");
    assert!(
        report.violations.iter().any(|v| v.invariant == "deadlock"),
        "expected a ticket/barrier deadlock, got: {:#?}",
        report.violations
    );
}
