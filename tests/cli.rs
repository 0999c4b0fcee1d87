//! The `dgr` binary against the library it fronts: arguments it does not
//! know are errors, `--help` lists the ones it does, `dgr route` prints
//! the router's own solution before refining it, and `dgr report` refuses
//! a file its reader refuses.

mod common;

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
        .args(args)
        .output()
        .expect("spawn dgr")
}

/// `dgr route --seed S`'s `as routed` line is `DgrRouter::route`'s
/// solution for seed S as it stands before refinement: same candidates
/// (per-net seeds, die clamp), same forest, same training, same
/// extraction.
#[test]
fn route_prints_the_routers_unrefined_solution_as_routed() {
    let (path, design) = design_on_disk("as_routed");
    let out = dgr(&[
        "route",
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
    let line = format!(
        "  as routed        : wirelength {}, {} turning points, {} overflowed edges, \
         total overflow {:.2}",
        m.total_wirelength, m.total_turns, m.overflow.overflowed_edges, m.overflow.total_overflow
    );
    assert!(
        stdout.lines().any(|l| l == line),
        "`{line}` not in:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A misspelt flag, a value flag without its value, a second positional
/// and a deleted flag are errors that name the argument — not runs on
/// defaults — and `dgrd` answers 404 to a path it does not route.
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
        (vec!["compare", design, "--guide", "g.txt"], "--guide"),
        (vec!["cases", "--fast"], "--fast"),
        (vec!["route", design, "--snap", "x"], "--snap"),
        (
            vec!["route", "x", "--progress", "5"],
            "unknown flag `--progress`",
        ),
        (vec!["report", "--snap", "x"], "--snap"),
        (
            vec!["route", "x", "--no-ledger"],
            "unknown flag `--no-ledger`",
        ),
        (
            vec!["serve-jobs", "a", "--no-ledger"],
            "unknown flag `--no-ledger`",
        ),
        (vec!["history"], "unknown command"),
        (vec!["route", "x", "--serve", "a"], "unknown flag `--serve`"),
        (
            vec!["compare", "x", "--serve", "a"],
            "unknown flag `--serve`",
        ),
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
    // nor are paths outside dgrd's route table: the live view of a run is
    // its job's `/jobs/:id/report`
    let (mut child, addr) = common::spawn_serve_jobs();
    let statuses = ["/report", "/"].map(|path| common::get(addr, path).status);
    child.kill().expect("kill serve-jobs");
    let _ = child.wait();
    assert_eq!(statuses, [404, 404], "GET /report, GET /");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A route writes the files it is asked for and nothing else: no record
/// under `$HOME`, whatever the environment says.
#[test]
fn a_route_writes_nothing_under_home() {
    let (path, _) = design_on_disk("home");
    let dir = path.parent().unwrap();
    let home = dir.join("home");
    std::fs::create_dir_all(&home).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("HOME", &home)
        .args([
            "route",
            path.to_str().unwrap(),
            "--iterations",
            "5",
            "--quiet",
        ])
        .output()
        .expect("spawn dgr");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written: Vec<_> = std::fs::read_dir(&home).unwrap().collect();
    assert!(written.is_empty(), "written under $HOME: {written:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `--help` shows every flag a subcommand accepts, among them the ones
/// its hand-written synopsis once left out.
#[test]
fn help_lists_every_flag_a_command_accepts() {
    let out = dgr(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    // a command's synopsis: its `  dgr <cmd>` line and the `[--…]`
    // lines wrapped under it
    let synopsis = |cmd: &str| -> String {
        let head = format!("  dgr {cmd} ");
        let mut lines = help.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no `{head}` in:\n{help}"));
        let rest = lines.take_while(|l| l.trim_start().starts_with('['));
        std::iter::once(first)
            .chain(rest)
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (cmd, flag) in [
        ("compare", "[--seed S]"),
        ("compare", "[--profile out.folded]"),
        ("route", "[--trace out.json]"),
    ] {
        let synopsis = synopsis(cmd);
        assert!(synopsis.contains(flag), "`{flag}` not in `{synopsis}`");
    }
}

/// A telemetry row without `iter` is a read error that names its line
/// (exit 1), not a report of the rows around it; and `dgr report` takes
/// no findings file.
#[test]
fn report_refuses_a_malformed_telemetry_file() {
    let out_dir = std::env::temp_dir().join("dgr_cli_test_report");
    std::fs::create_dir_all(&out_dir).unwrap();
    let telemetry = out_dir.join("telemetry.jsonl");
    std::fs::write(
        &telemetry,
        concat!(
            r#"{"iter":0,"loss":9,"wl":8,"vias":2,"overflow":0.5,"temperature":1,"grad_norm":3}"#,
            "\n",
            r#"{"loss":8,"wl":8,"vias":2,"overflow":0.25,"temperature":1,"grad_norm":2}"#,
            "\n",
        ),
    )
    .unwrap();
    let html = out_dir.join("report.html");
    let out = dgr(&[
        "report",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--out",
        html.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: telemetry: line 2: row missing `iter`\n"
    );
    assert!(!html.exists(), "no report is written");

    let out = dgr(&["report", "--health", "findings.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--health`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
