//! The `dgr` binary against the library it fronts: arguments it does not
//! know are errors, `dgr train` runs the router's own front end, and
//! `dgr report` refuses a file its reader refuses.

use std::path::PathBuf;
use std::process::{Command, Output};

use dgr::core::{DgrConfig, DgrRouter};
use dgr::grid::Design;

/// `ispd18_test5 --fast` (450 nets, 40×40) on disk, and as parsed back.
fn design_on_disk(tag: &str) -> (PathBuf, Design) {
    let config = dgr::io::catalog_case("ispd18_test5")
        .expect("catalog case")
        .config
        .fast();
    let text = dgr::io::write_design(
        &dgr::io::IspdLikeGenerator::new(config)
            .generate()
            .expect("valid config"),
    );
    let dir = std::env::temp_dir().join(format!("dgr_cli_test_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("design.txt");
    std::fs::write(&path, &text).unwrap();
    (path, dgr::io::parse_design(&text).unwrap())
}

fn dgr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", "off")
        .args(args)
        .output()
        .expect("spawn dgr")
}

/// `dgr train --seed S` reports `DgrRouter::route`'s solution for seed S
/// as it stands before refinement: same candidates (per-net seeds, die
/// clamp), same forest, same training, same extraction.
#[test]
fn train_reports_the_routers_unrefined_solution() {
    let (path, design) = design_on_disk("train");
    let out = dgr(&[
        "train",
        path.to_str().unwrap(),
        "--iterations",
        "40",
        "--seed",
        "3",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    let routed = DgrRouter::new(DgrConfig {
        iterations: 40,
        seed: 3,
        ..DgrConfig::default()
    })
    .route(&design)
    .unwrap();
    let m = &routed.metrics;
    for line in [
        format!("  wirelength       : {}", m.total_wirelength),
        format!("  turning points   : {}", m.total_turns),
        format!("  overflowed edges : {}", m.overflow.overflowed_edges),
        format!("  total overflow   : {:.2}", m.overflow.total_overflow),
    ] {
        assert!(
            stdout.lines().any(|l| l == line),
            "`{line}` not in:\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A misspelt flag, a value flag without its value and a second
/// positional are errors that name the argument — not runs on defaults.
#[test]
fn arguments_outside_the_flag_table_are_errors() {
    let (path, _) = design_on_disk("flags");
    let design = path.to_str().unwrap();
    for (args, named) in [
        (vec!["route", design, "--iteratons", "5"], "--iteratons"),
        (vec!["route", design, "--iterations"], "--iterations"),
        (
            vec!["route", design, "--iterations", "5", "--iterations", "50"],
            "--iterations",
        ),
        (vec!["route", design, "--quiet", "other.txt"], "other.txt"),
        (vec!["train", design, "--guide", "g.txt"], "--guide"),
        (vec!["cases", "--fast"], "--fast"),
    ] {
        let out = dgr(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`dgr {}` succeeded", args.join(" "));
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "`dgr {}` does not name `{named}`: {stderr}",
            args.join(" ")
        );
        assert!(out.stdout.is_empty(), "`dgr {}` ran", args.join(" "));
    }
    // flags and the positional still come in any order
    let out = dgr(&["route", "--iterations", "3", "--quiet", design]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A snapshot stream whose raster is shorter than its header's grid is a
/// read error that names the record (exit 1), not a panic in the
/// heatmap (exit 101); and `dgr report` takes no findings file.
#[test]
fn report_refuses_a_truncated_snapshot_stream() {
    let truncated = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/truncated_raster.snaps"
    );
    let out_dir = std::env::temp_dir().join("dgr_cli_test_report");
    std::fs::create_dir_all(&out_dir).unwrap();
    let html = out_dir.join("report.html");
    let out = dgr(&[
        "report",
        "--snap",
        truncated,
        "--out",
        html.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: snapshots: record 2: h_demand has length 1, but the 3×2 header needs 4\n"
    );
    assert!(!html.exists(), "no report is written");

    let out = dgr(&["report", "--health", "findings.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--health`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
