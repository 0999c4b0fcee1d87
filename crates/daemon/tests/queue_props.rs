//! Property tests over the [`JobTable`] lifecycle state machine: random
//! interleavings of submit / claim / cancel / finish / evict must keep
//! the table's structural invariants intact and must agree with a naive
//! linearized model of a bounded priority/FIFO queue.

use std::collections::BTreeSet;

use dgr_daemon::queue::{CancelOutcome, JobResult, JobState, JobTable, SubmitError};
use dgr_daemon::spec::{DesignSource, JobSpec};
use proptest::prelude::*;

const CAPACITY: usize = 4;
const RETAIN: usize = 3;

fn spec(priority: i64) -> JobSpec {
    JobSpec {
        label: "prop".into(),
        tenant: "prop".into(),
        priority,
        iterations: Some(1),
        seed: None,
        design: DesignSource::Text(String::new()),
        want_guide: false,
        deadline_ms: None,
        max_stall_iters: None,
    }
}

/// One random operation: `(kind, index, priority)`.
///
/// * kind 0 — submit at `priority - 2` (so classes span negative/zero/positive)
/// * kind 1 — claim
/// * kind 2 — cancel the `index`-th known id (or an unknown id)
/// * kind 3 — finish the `index`-th running id (outcome from `priority`)
/// * kind 4 — evict
fn ops() -> impl Strategy<Value = Vec<(u32, usize, i64)>> {
    proptest::collection::vec((0u32..5u32, 0usize..8usize, 0i64..5i64), 1..48)
}

/// Naive model of the expected scheduler state.
#[derive(Default)]
struct Model {
    /// Expected queue order: `(priority, id)`, head first.
    queue: Vec<(i64, u64)>,
    running: BTreeSet<u64>,
    terminal: BTreeSet<u64>,
    all: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interleavings_keep_the_table_consistent(ops in ops()) {
        let mut table = JobTable::new(CAPACITY, RETAIN);
        let mut model = Model::default();

        for (kind, index, raw_prio) in ops {
            match kind {
                0 => {
                    let priority = raw_prio - 2;
                    match table.submit(spec(priority)) {
                        Ok(id) => {
                            prop_assert!(model.queue.len() < CAPACITY,
                                "admitted past the bound");
                            let pos = model
                                .queue
                                .iter()
                                .position(|(p, _)| *p < priority)
                                .unwrap_or(model.queue.len());
                            model.queue.insert(pos, (priority, id));
                            model.all.push(id);
                        }
                        Err(SubmitError::QueueFull { capacity }) => {
                            prop_assert_eq!(capacity, CAPACITY);
                            prop_assert_eq!(model.queue.len(), CAPACITY,
                                "rejected below the bound");
                        }
                    }
                }
                1 => {
                    let claimed = table.claim();
                    match (claimed, model.queue.first().copied()) {
                        (Some(id), Some((_, expect))) => {
                            prop_assert_eq!(id, expect,
                                "claim order diverged from the model");
                            model.queue.remove(0);
                            model.running.insert(id);
                        }
                        (None, None) => {}
                        (got, want) => prop_assert!(false,
                            "claim {:?} but model head {:?}", got, want),
                    }
                }
                2 => {
                    // target a known id most of the time, sometimes nonsense
                    let target = if index < model.all.len() {
                        model.all[index]
                    } else {
                        u64::MAX - index as u64
                    };
                    let queued_pos = model.queue.iter().position(|(_, id)| *id == target);
                    let result = table.cancel(target);
                    if let Some(pos) = queued_pos {
                        prop_assert_eq!(result, Ok(CancelOutcome::CancelledQueued));
                        model.queue.remove(pos);
                        model.terminal.insert(target);
                    } else if model.running.contains(&target) {
                        // first request succeeds, later ones conflict
                        prop_assert!(result.is_ok()
                            || result == Err(dgr_daemon::queue::CancelError::AlreadyRequested));
                    } else if model.terminal.contains(&target) {
                        prop_assert!(matches!(
                            result,
                            Err(dgr_daemon::queue::CancelError::NotCancellable(_))
                        ));
                    } else {
                        prop_assert_eq!(result,
                            Err(dgr_daemon::queue::CancelError::UnknownJob));
                    }
                }
                3 => {
                    let running: Vec<u64> = model.running.iter().copied().collect();
                    if let Some(&id) = running.get(index % running.len().max(1)) {
                        let outcome = match raw_prio {
                            0 => Ok(JobResult::default()),
                            1 => Err("synthetic failure".to_string()),
                            _ => Err("cancelled".to_string()),
                        };
                        let cancelled = raw_prio >= 2;
                        table.finish(id, outcome, cancelled);
                        model.running.remove(&id);
                        model.terminal.insert(id);
                        let job = table.get(id).expect("just finished");
                        prop_assert!(job.state.is_terminal());
                        prop_assert_eq!(
                            job.state == JobState::Cancelled, cancelled);
                    }
                }
                _ => {
                    for id in table.evict() {
                        prop_assert!(model.terminal.remove(&id),
                            "evicted a non-terminal job {}", id);
                    }
                    let retained = table.jobs().filter(|j| j.state.is_terminal()).count();
                    prop_assert!(retained <= RETAIN,
                        "evict left {} terminal jobs (retain {})", retained, RETAIN);
                }
            }
            table.check_invariants();
        }

        // drain to quiescence: everything left must still be claimable
        // and finishable without tripping an invariant
        while let Some(id) = table.claim() {
            prop_assert_eq!(model.queue.remove(0).1, id);
            table.finish(id, Ok(JobResult::default()), false);
            table.check_invariants();
        }
        prop_assert!(model.queue.is_empty());
    }
}
