//! `dgr train --batch N` end to end (spawned binary).
//!
//! The N seeds are trained one after another over one shared forest, so a
//! batch must be exactly N standalone runs: the same `seed … final loss …`
//! line per seed, the lowest loss named best, and the best seed's routes
//! byte for byte. Telemetry rows carry the lane tag `dgr report` groups
//! its curves by.

use std::path::{Path, PathBuf};
use std::process::Command;

use dgr::io::{IspdLikeConfig, IspdLikeGenerator};

const ITERATIONS: &str = "40";

/// A fresh scratch directory holding one small design.
fn scratch(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 80,
        num_layers: 5,
        seed: 17,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let path = dir.join("design.txt");
    std::fs::write(&path, dgr::io::write_design(&design)).unwrap();
    (dir, path.to_str().unwrap().to_string())
}

/// Runs `dgr <args>` off the real ledger and returns its stdout.
fn dgr(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", "off")
        .args(args)
        .output()
        .expect("spawn dgr");
    assert!(
        out.status.success(),
        "dgr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `  seed S  final loss L  final temperature T` lines of a run.
fn seed_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("  seed "))
        .collect()
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn batch_run_matches_standalone_seed_runs_byte_for_byte() {
    let (dir, design) = scratch("dgr_batch_cli_test");
    let first_seed = 17u64;
    let routes = dir.join("batch_routes.txt");
    let batch_out = dgr(&[
        "train",
        &design,
        "--batch",
        "3",
        "--seed",
        &first_seed.to_string(),
        "--iterations",
        ITERATIONS,
        "--quiet",
        "--routes",
        path_str(&routes),
    ]);

    let mut solo_lines = Vec::new();
    let mut solo_routes = Vec::new();
    for b in 0..3 {
        let path = dir.join(format!("solo_routes_{b}.txt"));
        let out = dgr(&[
            "train",
            &design,
            "--seed",
            &(first_seed + b).to_string(),
            "--iterations",
            ITERATIONS,
            "--quiet",
            "--routes",
            path_str(&path),
        ]);
        let lines = seed_lines(&out);
        assert_eq!(lines.len(), 1, "one seed line per standalone run:\n{out}");
        solo_lines.push(lines[0].to_string());
        solo_routes.push(std::fs::read(&path).expect("standalone routes written"));
    }
    assert_eq!(
        seed_lines(&batch_out),
        solo_lines,
        "a batch prints each seed's standalone line, in seed order"
    );

    // the first strictly lowest final loss wins
    let losses: Vec<f64> = solo_lines
        .iter()
        .map(|l| {
            let rest = l.split("final loss").nth(1).expect("loss on the seed line");
            rest.split_whitespace().next().unwrap().parse().unwrap()
        })
        .collect();
    let mut best = 0;
    for (b, loss) in losses.iter().enumerate() {
        if *loss < losses[best] {
            best = b;
        }
    }
    let best_line = format!("best: seed {} (instance {best})", first_seed + best as u64);
    assert!(
        batch_out.lines().any(|l| l == best_line),
        "expected `{best_line}` in:\n{batch_out}"
    );
    assert_eq!(
        std::fs::read(&routes).expect("batch routes written"),
        solo_routes[best],
        "the batch extracts the best seed's standalone solution"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_telemetry_rows_carry_lanes_and_report_renders_both() {
    let (dir, design) = scratch("dgr_batch_cli_telemetry_test");
    let telemetry = dir.join("telemetry.jsonl");
    dgr(&[
        "train",
        &design,
        "--batch",
        "2",
        "--iterations",
        ITERATIONS,
        "--quiet",
        "--telemetry",
        path_str(&telemetry),
    ]);
    let iters: usize = ITERATIONS.parse().unwrap();
    let text = std::fs::read_to_string(&telemetry).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 2 * iters, "one row per iteration per lane");
    // lane-major: every row of seed 0, then every row of seed 1
    for (i, row) in rows.iter().enumerate() {
        let lane = i / iters;
        assert!(
            row.contains(&format!("\"iter\":{},", i % iters))
                && row.ends_with(&format!("\"lane\":{lane}}}")),
            "row {i} is not iteration {} of lane {lane}: {row}",
            i % iters
        );
    }

    let report = dir.join("report.html");
    dgr(&[
        "report",
        "--telemetry",
        path_str(&telemetry),
        "--out",
        path_str(&report),
    ]);
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.contains("2 batch lanes"), "lanes not grouped");
    for lane in 0..2 {
        assert!(
            html.contains(&format!("loss vs. iteration — lane {lane}")),
            "no loss curve for lane {lane}"
        );
    }

    // a lone run stays untagged
    let solo = dir.join("solo.jsonl");
    dgr(&[
        "train",
        &design,
        "--iterations",
        ITERATIONS,
        "--quiet",
        "--telemetry",
        path_str(&solo),
    ]);
    let solo = std::fs::read_to_string(&solo).unwrap();
    assert_eq!(solo.lines().count(), iters);
    assert!(solo.lines().all(|r| r.ends_with("\"lane\":null}")));
    let _ = std::fs::remove_dir_all(&dir);
}
