//! The five differential cross-checks over a fixed batch of seeded
//! cases. A sharded slice of the nightly fuzz campaign that runs on
//! every `cargo test`.

use dgr_oracle::{case_seed, run_case, CaseSpec, CheckKind};

/// Cases per check in the test-suite slice (the CI fuzz job runs 200).
const CASES: u64 = 40;

fn run_check(check: CheckKind) {
    let mut failures = Vec::new();
    for i in 0..CASES {
        let spec = CaseSpec::sample(check, case_seed(42, check, i));
        if let Err(m) = run_case(&spec) {
            failures.push(format!("case {i} ({spec:?}): {m}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CASES} {check} cases mismatched:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn rsmt_agrees_with_brute_force() {
    run_check(CheckKind::Rsmt);
}

#[test]
fn relaxed_cost_agrees_with_discrete_replay() {
    run_check(CheckKind::PathCost);
}

#[test]
fn kernel_gradients_agree_with_the_reverse_pass() {
    run_check(CheckKind::GradCheck);
}

#[test]
fn incremental_demand_agrees_with_recount() {
    run_check(CheckKind::DemandReplay);
}

#[test]
fn layer_dp_agrees_with_exhaustive_scan() {
    run_check(CheckKind::LayerAssign);
}

/// The shrinker must terminate and produce a spec no larger than its
/// input even when the predicate never fails (degenerate input).
#[test]
fn shrinking_a_passing_case_returns_it_unchanged() {
    let spec = CaseSpec::sample(CheckKind::Rsmt, case_seed(42, CheckKind::Rsmt, 0));
    assert!(run_case(&spec).is_ok());
    assert_eq!(dgr_oracle::shrink_case(&spec), spec);
}
