//! Observability integration tests: telemetry determinism, curve
//! retention, and the `dgr` CLI's `--trace`/`--telemetry` flags end to
//! end (spawned binary, emitted files validated).

use dgr::core::{DgrConfig, DgrRouter, RouteHooks, CURVE_POINTS};
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::obs::{render_report, rows_from_jsonl, IterationRow, ReportInputs, TelemetrySink};

fn small_design(seed: u64) -> Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 80,
        num_layers: 5,
        seed,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

fn quick_config(seed: u64) -> DgrConfig {
    DgrConfig {
        iterations: 90,
        seed,
        ..DgrConfig::default()
    }
}

fn route_telemetry(design: &Design, cfg: &DgrConfig) -> String {
    let mut hooks = RouteHooks {
        telemetry: Some(TelemetrySink::in_memory()),
        ..RouteHooks::default()
    };
    DgrRouter::new(cfg.clone())
        .route_with_hooks(design, &mut hooks)
        .expect("route");
    hooks
        .telemetry
        .expect("sink retained")
        .memory_contents()
        .expect("in-memory sink")
        .to_string()
}

/// Same seed: the telemetry stream is byte-identical run to run, with
/// nothing switched off — every field of a row is a function of the
/// run's inputs (extends the determinism contract from tensors to the
/// observability layer).
#[test]
fn telemetry_jsonl_is_deterministic_for_fixed_seed() {
    let design = small_design(11);
    let cfg = quick_config(3);
    let a = route_telemetry(&design, &cfg);
    let b = route_telemetry(&design, &cfg);
    assert!(!a.is_empty());
    assert_eq!(a, b, "telemetry diverged between identical runs");
}

/// A telemetry file of the older schema — every row also carrying the
/// process RSS and a batch tag, two tagged runs one after the other —
/// still parses and renders: the extra keys are ignored and the two runs
/// read as one concatenated run.
#[test]
fn telemetry_of_the_older_schema_still_parses_and_renders() {
    let mut text = String::new();
    for (tag, loss) in [(0, 10.0), (1, 12.0)] {
        for iter in 0..3 {
            text.push_str(&format!(
                "{{\"iter\":{iter},\"loss\":{},\"wl\":8,\"vias\":2,\"overflow\":0.5,\
                 \"temperature\":1,\"grad_norm\":3,\"mem_rss\":{},\"lane\":{tag}}}\n",
                loss - iter as f64,
                [Some(4096), None, Some(8192)][iter]
                    .map_or("null".to_string(), |b: u64| b.to_string()),
            ));
        }
    }
    let rows = rows_from_jsonl(&text).expect("older rows parse");
    let iters: Vec<usize> = rows.iter().map(|r| r.iter).collect();
    assert_eq!(iters, [0, 1, 2, 0, 1, 2], "one concatenated run");
    assert_eq!(rows[3].loss, 12.0);
    assert!(rows.iter().all(|r| r.grad_norm == 3.0));
    // re-serialized, a row has exactly the current schema
    let json = rows[0].to_json();
    assert_eq!(
        json.matches("\":").count(),
        IterationRow::KEYS.len(),
        "{json}"
    );

    let html = render_report(&ReportInputs {
        title: "older schema".into(),
        telemetry: Some(rows),
        ..ReportInputs::default()
    });
    assert!(html
        .contains("<p class=\"note\">6 iterations · loss 10 → 10 · final overflow term 0.5</p>"));
    assert!(html.contains("<figcaption>loss vs. iteration</figcaption>"));
}

#[test]
fn telemetry_rows_cover_every_iteration_with_full_schema() {
    let design = small_design(7);
    let cfg = quick_config(1);
    let text = route_telemetry(&design, &cfg);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= cfg.iterations,
        "expected ≥ {} rows, got {}",
        cfg.iterations,
        lines.len()
    );
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "row {i} shape"
        );
        for key in IterationRow::KEYS {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "row {i} missing {key}"
            );
        }
        assert!(
            line.starts_with(&format!("{{\"iter\":{i},")),
            "row {i} index"
        );
    }
}

/// `TrainReport::curve` is populated, bounded, ordered, and consistent
/// with the final loss — so downstream consumers (`dgr compare`, fig5)
/// can read it instead of re-deriving trajectories.
#[test]
fn train_report_retains_downsampled_curve() {
    let design = small_design(2);
    let cfg = quick_config(5);
    let solution = DgrRouter::new(cfg.clone()).route(&design).expect("route");
    let report = solution.train_report.expect("train report");
    let curve = &report.curve;
    assert!(!curve.is_empty());
    assert!(
        curve.len() <= (CURVE_POINTS + 1) * (cfg.adaptive_rounds + 1),
        "curve too long: {}",
        curve.len()
    );
    assert!(curve.windows(2).all(|w| w[0].iter < w[1].iter), "unordered");
    let last = curve.last().unwrap();
    assert_eq!(last.loss.to_bits(), report.final_loss.to_bits());
    assert!(curve
        .iter()
        .all(|p| p.loss.is_finite() && p.overflow >= 0.0));
}

/// Full CLI round trip: `dgr route --trace --telemetry --quiet` produces
/// a Chrome-trace-loadable JSON array and one JSONL row per iteration.
#[test]
fn cli_route_emits_trace_and_telemetry_files() {
    let dir = std::env::temp_dir().join("dgr_obs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let trace_path = dir.join("trace.json");
    let telemetry_path = dir.join("telemetry.jsonl");
    std::fs::write(&design_path, dgr::io::write_design(&small_design(9))).unwrap();

    let iters = 40;
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            &iters.to_string(),
            "--quiet",
            "--trace",
            trace_path.to_str().unwrap(),
            "--telemetry",
            telemetry_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dgr");
    assert!(
        out.status.success(),
        "dgr route failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("span"), "summary table missing:\n{stdout}");
    assert!(!stdout.contains("[dgr] iter"), "--quiet leaked progress");

    // Chrome trace: a JSON array of events with the expected span names.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let trimmed = trace.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    for needle in [
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"name\":\"forward\"",
        "\"name\":\"backward\"",
        "\"name\":\"extract\"",
        "\"cat\":\"route\"",
    ] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }

    // Telemetry: ≥ 1 JSONL row per iteration, full schema on each row.
    let telemetry = std::fs::read_to_string(&telemetry_path).unwrap();
    let lines: Vec<&str> = telemetry.lines().collect();
    assert!(lines.len() >= iters, "{} rows < {iters}", lines.len());
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in IterationRow::KEYS {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The summary span table and the trace file are one fold of one log:
/// per span name, the table's call count is the count `parse_trace`
/// reads back from the file the same run wrote.
#[test]
fn cli_summary_span_table_counts_what_its_trace_folds_to() {
    let dir = std::env::temp_dir().join("dgr_obs_cli_summary_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let trace_path = dir.join("t.json");
    let profile_path = dir.join("p.folded");
    std::fs::write(&design_path, dgr::io::write_design(&small_design(9))).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args(["route", design_path.to_str().unwrap(), "--iterations", "30"])
        .args(["--trace", trace_path.to_str().unwrap()])
        .args(["--profile", profile_path.to_str().unwrap(), "--quiet"])
        .output()
        .expect("spawn dgr");
    assert!(
        out.status.success(),
        "dgr route failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // the rows between the `span calls …` header and the next blank line
    let mut table: Vec<(String, u64)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("span "))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols[0].to_string(), cols[1].parse().expect("a call count"))
        })
        .collect();
    assert!(!table.is_empty(), "no summary span table:\n{stdout}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let mut folded: Vec<(String, u64)> = dgr::obs::parse_trace(&trace)
        .expect("trace parses")
        .into_iter()
        .map(|t| (t.name, t.count))
        .collect();
    table.sort();
    folded.sort();
    assert_eq!(table, folded, "the table and the trace count apart");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Progress lines reach stderr by default, every 100 iterations and at
/// the last.
#[test]
fn cli_route_progress_line_appears_without_quiet() {
    let dir = std::env::temp_dir().join("dgr_obs_cli_progress_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    std::fs::write(&design_path, dgr::io::write_design(&small_design(4))).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args(["route", design_path.to_str().unwrap(), "--iterations", "30"])
        .output()
        .expect("spawn dgr");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[dgr] iter"),
        "no progress line on stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that goes away (`dgr route … | head -1`) ends the printing,
/// not the run: no panic, exit status 0, every output file still written.
#[test]
fn cli_route_survives_a_closed_stdout() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join("dgr_obs_cli_closed_stdout_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let guide_path = dir.join("out.guide");
    let routes_path = dir.join("routes.txt");
    std::fs::write(&design_path, dgr::io::write_design(&small_design(9))).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            "20",
            "--quiet",
            "--guide",
            guide_path.to_str().unwrap(),
            "--routes",
            routes_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dgr");
    // close the read end before the run reaches its first line of output
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for dgr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr not empty:\n{stderr}");
    for path in [&guide_path, &routes_path] {
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        assert!(len > 0, "{} missing or empty", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
