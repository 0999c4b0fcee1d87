//! The fuzz loop: N seeded cases × five checks, failure shrinking, and
//! JSON reproducer dumps.

use std::path::{Path, PathBuf};

use crate::checks::{reaches_multi_tree, run_case, Mismatch};
use crate::gen::{CaseSpec, CheckKind};
use crate::json;

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seeded cases per check kind.
    pub cases: u64,
    /// Master seed; case `i` of check `k` derives its own seed from it.
    pub seed: u64,
    /// Where to dump shrunk reproducers (`None` = don't write files).
    pub dump_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed: 42,
            dump_dir: None,
        }
    }
}

/// One confirmed disagreement, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case as originally drawn.
    pub original: CaseSpec,
    /// The smallest still-failing reduction of it.
    pub shrunk: CaseSpec,
    /// The mismatch the shrunk case produces.
    pub mismatch: Mismatch,
    /// Where the JSON reproducer was written, if dumping was enabled.
    pub dumped: Option<PathBuf>,
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases run per check kind, in [`CheckKind::ALL`] order.
    pub cases_per_check: Vec<(CheckKind, u64)>,
    /// Every mismatch found, shrunk and (optionally) dumped.
    pub failures: Vec<FuzzFailure>,
    /// `grad_check` cases whose forest holds a net of two or more trees
    /// ([`reaches_multi_tree`]).
    pub multi_tree_cases: u64,
}

impl FuzzReport {
    /// Total cases executed across all checks.
    pub fn total_cases(&self) -> u64 {
        self.cases_per_check.iter().map(|&(_, n)| n).sum()
    }
}

/// SplitMix64 — decorrelates per-case seeds from the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of case `index` of `check` under master seed `seed`.
pub fn case_seed(seed: u64, check: CheckKind, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_mul(5).wrapping_add(check as u64 + 1)))
}

/// Runs `cfg.cases` seeded cases of every check, shrinking and dumping
/// each failure. Pass `progress` to get a line per check (the CLI wires
/// this to stderr; tests pass `|_| {}`).
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(&str)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for check in CheckKind::ALL {
        let start = std::time::Instant::now();
        let failures_before = report.failures.len();
        for i in 0..cfg.cases {
            let spec = CaseSpec::sample(check, case_seed(cfg.seed, check, i));
            if check == CheckKind::GradCheck && reaches_multi_tree(&spec) {
                report.multi_tree_cases += 1;
            }
            if let Err(first) = run_case(&spec) {
                let shrunk = shrink_case(&spec);
                let mismatch = run_case(&shrunk).err().unwrap_or(first);
                let dumped = cfg
                    .dump_dir
                    .as_ref()
                    .map(|dir| dump_case(dir, &shrunk, &mismatch));
                report.failures.push(FuzzFailure {
                    original: spec,
                    shrunk,
                    mismatch,
                    dumped,
                });
            }
        }
        report.cases_per_check.push((check, cfg.cases));
        let new = report.failures.len() - failures_before;
        progress(&format!(
            "{:>13}: {} cases, {} mismatches ({:.2}s)",
            check.name(),
            cfg.cases,
            new,
            start.elapsed().as_secs_f64()
        ));
    }
    report
}

/// Greedily minimizes a failing spec: repeatedly adopts the first
/// strictly-smaller variant that still fails, until none does.
pub fn shrink_case(spec: &CaseSpec) -> CaseSpec {
    let mut best = spec.clone();
    'outer: loop {
        for cand in best.shrink_candidates() {
            if run_case(&cand).is_err() {
                best = cand;
                continue 'outer;
            }
        }
        return best;
    }
}

/// Writes a shrunk reproducer under `dir` and returns its path. The
/// file name encodes check and seed, so re-dumping the same failure is
/// idempotent.
pub fn dump_case(dir: &Path, spec: &CaseSpec, mismatch: &Mismatch) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create dump dir");
    let path = dir.join(format!("{}_{:016x}.json", spec.check.name(), spec.seed));
    std::fs::write(&path, json::write_case(spec, &mismatch.detail)).expect("write case file");
    path
}

/// Loads a dumped case file.
///
/// # Errors
///
/// Returns a description of the I/O or parse problem.
pub fn load_case(path: &Path) -> Result<CaseSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse_case(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_across_checks_and_indices() {
        let mut seen = std::collections::HashSet::new();
        for check in CheckKind::ALL {
            for i in 0..100 {
                assert!(seen.insert(case_seed(42, check, i)));
            }
        }
    }

    /// The cases of seed 42 build the instances they always built: 165 of
    /// the first 200 `grad_check` forests hold a net of two or more trees.
    #[test]
    fn seed_42_reaches_165_multi_tree_cases() {
        let reached = (0..200)
            .map(|i| CaseSpec::sample(CheckKind::GradCheck, case_seed(42, CheckKind::GradCheck, i)))
            .filter(reaches_multi_tree)
            .count();
        assert_eq!(reached, 165);
    }

    #[test]
    fn dump_and_load_round_trip() {
        let dir = std::env::temp_dir().join("dgr_oracle_dump_test");
        let spec = CaseSpec::sample(CheckKind::DemandReplay, 7);
        let mismatch = Mismatch {
            check: spec.check,
            detail: "synthetic".to_string(),
        };
        let path = dump_case(&dir, &spec, &mismatch);
        let back = load_case(&path).unwrap();
        assert_eq!(back, spec);
        let _ = std::fs::remove_file(path);
    }
}
