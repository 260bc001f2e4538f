//! The crate's acceptance tests: every protocol model is explored
//! exhaustively in its correct variant, and every seeded mutation is
//! detected with a concrete counterexample schedule.
//!
//! The mutation tests are the point of the whole exercise: they prove
//! the checker has the *power* to find the bug class each `SHALOM-O-*`
//! annotation guards against, so a green correct-variant run is
//! evidence of absence, not absence of evidence.

use shalom_modelcheck::models::plan_shard::{self, PlanShard};
use shalom_modelcheck::models::pool_epoch::{self, PoolEpoch};
use shalom_modelcheck::models::service_queue::{self, ServiceQueue};
use shalom_modelcheck::models::trace_lane::{self, TraceLane};
use shalom_modelcheck::models::MODEL_NAMES;
use shalom_modelcheck::{explore, Options, Report, Violation};

fn must_pass<S: shalom_modelcheck::System>(sys: S, what: &str) -> Report {
    match explore(sys, &Options::default()) {
        Ok(r) => {
            // An exhaustive run that visited almost nothing would mean
            // the model deadlocked its branching rather than covering
            // it; insist on a real state graph.
            assert!(r.distinct_states > 10, "{what}: trivial graph {r:?}");
            assert!(r.terminal_states > 0, "{what}: no terminal state {r:?}");
            r
        }
        Err(v) => panic!("{what}: unexpected violation\n{}", v.render()),
    }
}

fn must_fail<S: shalom_modelcheck::System>(sys: S, what: &str, needle: &str) -> Violation {
    match explore(sys, &Options::default()) {
        Ok(r) => panic!("{what}: mutation went undetected ({r:?})"),
        Err(v) => {
            match &v {
                Violation::Invariant { message, trace } => {
                    assert!(
                        message.contains(needle),
                        "{what}: wrong violation {message:?}\n{}",
                        v.render()
                    );
                    assert!(!trace.is_empty(), "{what}: empty counterexample");
                }
                other => panic!("{what}: expected invariant violation, got {other:?}"),
            }
            v
        }
    }
}

// --- pool epoch publish: SHALOM-O-POOL-TASK -------------------------

#[test]
fn pool_epoch_correct_two_threads_exhaustive() {
    must_pass(
        PoolEpoch::new(1, 2, pool_epoch::Mutation::None),
        "pool 1 worker",
    );
}

/// Three threads (leader + two workers) also covers the park/unpark
/// handshake: a lost wakeup would surface as a deadlock here.
#[test]
fn pool_epoch_correct_three_threads_exhaustive_and_deadlock_free() {
    let r = must_pass(
        PoolEpoch::new(2, 3, pool_epoch::Mutation::None),
        "pool 2 workers",
    );
    // The mutex serializes most of the protocol, so the deduped state
    // graph is small (~50 states) but still every reachable one.
    assert!(r.distinct_states > 40, "{r:?}");
}

/// A call with no tasks — what `prewarm` publishes — completes on the
/// workers alone, each having reserved the slot's size.
#[test]
fn pool_epoch_taskless_call_completes() {
    must_pass(
        PoolEpoch::new(2, 0, pool_epoch::Mutation::None),
        "pool 2 workers, no tasks",
    );
}

/// `prewarm` as it was: a barrier sized to the requested participants,
/// here one more than the pool has. The workers that exist each take a
/// task and wait at the barrier; nobody takes the rest.
#[test]
fn pool_epoch_barrier_prewarm_on_a_short_pool_deadlocks() {
    let v = match explore(
        PoolEpoch::new(1, 2, pool_epoch::Mutation::BarrierPrewarm),
        &Options::default(),
    ) {
        Ok(r) => panic!("short-pool barrier went undetected ({r:?})"),
        Err(v) => v,
    };
    match &v {
        Violation::Deadlock { trace } => assert!(!trace.is_empty(), "empty counterexample"),
        other => panic!("expected deadlock, got {other:?}\n{}", v.render()),
    }
    assert!(
        v.trace().iter().any(|s| s.label.contains("fetch_add")),
        "counterexample does not claim a task:\n{}",
        v.render()
    );
}

/// The epoch publish stripped of its mutex edge: a worker can wake on
/// the new epoch and read the *previous* call's job payload.
#[test]
fn pool_epoch_unsynced_publish_is_detected() {
    let v = must_fail(
        PoolEpoch::new(1, 1, pool_epoch::Mutation::UnsyncedPublish),
        "pool unsynced publish",
        "stale job read",
    );
    assert!(
        v.trace().iter().any(|s| s.label.contains("WITHOUT lock")),
        "counterexample does not exercise the racy wake:\n{}",
        v.render()
    );
}

// --- trace-lane publish: SHALOM-O-TRACE-PUBLISH ---------------------

#[test]
fn trace_lane_correct_exhaustive() {
    must_pass(TraceLane::new(3, trace_lane::Mutation::None), "trace lane");
}

/// The lane's len store downgraded Release -> Relaxed: the bump lands
/// before the slot write and a snapshot reader dereferences an
/// unwritten record.
#[test]
fn trace_lane_relaxed_len_store_is_detected() {
    let v = must_fail(
        TraceLane::new(2, trace_lane::Mutation::RelaxedLenStore),
        "trace lane relaxed len",
        "uninitialized",
    );
    assert!(
        v.trace().iter().any(|s| s.label.contains("EARLY")),
        "counterexample does not exercise the early bump:\n{}",
        v.render()
    );
}

// --- plan-override table: SHALOM-O-CACHE-STATS, SHALOM-O-PLAN-FLAG ---

#[test]
fn plan_shard_correct_exhaustive() {
    must_pass(
        PlanShard::new(2, plan_shard::Mutation::None),
        "plan shard 2 lookers",
    );
}

/// Install without the write lock: a lookup admitted by the first
/// override's hint lands between the second's key and value writes.
#[test]
fn plan_shard_unlocked_insert_is_detected() {
    must_fail(
        PlanShard::new(1, plan_shard::Mutation::UnlockedInsert),
        "plan shard unlocked insert",
        "torn shard entry",
    );
}

// --- service completion publish: SHALOM-O-SVC-* ---------------------

#[test]
fn service_queue_correct_exhaustive() {
    must_pass(
        ServiceQueue::new(service_queue::Mutation::None),
        "service queue",
    );
}

/// The completion flip downgraded Release -> Relaxed: the DONE store
/// drifts ahead of the output write and a waiter reads an unwritten
/// result matrix.
#[test]
fn service_queue_relaxed_done_store_is_detected() {
    let v = must_fail(
        ServiceQueue::new(service_queue::Mutation::RelaxedDoneStore),
        "service queue relaxed done",
        "before the output write",
    );
    assert!(
        v.trace().iter().any(|s| s.label.contains("EARLY")),
        "counterexample does not exercise the early flip:\n{}",
        v.render()
    );
}

/// The completion flip stripped of its mutex edge: the notify lands in
/// the waiter's decide-then-sleep window and the waiter sleeps forever.
/// Surfaces as a deadlock, not an invariant failure.
#[test]
fn service_queue_store_outside_lock_loses_the_wakeup() {
    let v = match explore(
        ServiceQueue::new(service_queue::Mutation::StoreOutsideLock),
        &Options::default(),
    ) {
        Ok(r) => panic!("service queue unlocked store: mutation went undetected ({r:?})"),
        Err(v) => v,
    };
    match &v {
        Violation::Deadlock { trace } => {
            assert!(!trace.is_empty(), "empty counterexample");
        }
        other => panic!("expected deadlock, got {other:?}\n{}", v.render()),
    }
    assert!(
        v.trace().iter().any(|s| s.label.contains("WITHOUT lock")),
        "counterexample does not exercise the unlocked store:\n{}",
        v.render()
    );
}

// --- registry contract ----------------------------------------------

/// The model list the analysis-side ordering registry points at:
/// sorted, deduplicated, and exactly these four.
#[test]
fn model_names_are_the_published_contract() {
    assert_eq!(
        MODEL_NAMES,
        &["plan-shard", "pool-epoch", "service-queue", "trace-lane"]
    );
    let mut sorted = MODEL_NAMES.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted, MODEL_NAMES);
}
