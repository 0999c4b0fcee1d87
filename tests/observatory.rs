//! Observatory integration tests: `dgrd`'s `/metrics` and `/status`
//! answering while a job runs, the span log's fold into collapsed stacks,
//! Prometheus text-exposition grammar, and the Chrome trace round-trip
//! through `obs::parse`.

mod common;

use std::process::Command;
use std::time::Duration;

use common::*;
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::obs::parse::JsonValue;

/// In-process tests share the global obs registries; serialize them.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

fn write_design(dir: &std::path::Path, seed: u64) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("design.txt");
    std::fs::write(&path, dgr::io::write_design(&small_design(seed))).unwrap();
    path
}

/// `dgrd` answers `/metrics` and `/status` while a job iterates: typed
/// `dgr_` families with the RSS gauge, and the job's row.
#[test]
fn serve_endpoints_answer_during_a_live_run() {
    let (mut child, addr) = spawn_serve_jobs();
    let escaped = dgr::io::write_design(&small_design(9))
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let id = submit_job(
        addr,
        &format!(r#"{{"design_text":"{escaped}","label":"live","iterations":500000}}"#),
    );

    // the job's /status row, once it has ticked
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let row = loop {
        let status = get(addr, "/status");
        assert_eq!(status.status, 200, "/status status");
        let Some(JsonValue::Arr(rows)) = status.json().get("jobs").cloned() else {
            panic!("/status has no `jobs` array: {}", status.body);
        };
        let row = rows
            .into_iter()
            .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(id));
        if let Some(row) = row.filter(|r| r.get("iter").and_then(JsonValue::as_u64) > Some(0)) {
            break row;
        }
        assert!(std::time::Instant::now() < deadline, "{}", status.body);
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(row.str("job"), Some("live"));
    assert_eq!(row.str("phase"), Some("train"));
    assert_eq!(
        row.get("total_iters").and_then(JsonValue::as_u64),
        Some(500_000)
    );

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200, "/metrics status");
    let body = &metrics.body;
    assert!(
        body.contains("# TYPE dgr_"),
        "no typed dgr_ families:\n{body}"
    );
    assert!(
        body.contains("\ndgr_process_rss_bytes "),
        "no RSS gauge:\n{body}"
    );

    assert_eq!(delete(addr, &format!("/jobs/{id}")).status, 202);
    child.kill().expect("kill serve-jobs");
    let _ = child.wait();
}

/// `--profile` writes a non-empty collapsed-stack file whose frames name
/// real pipeline phases, whose main track holds no more self time than
/// the run took, and which `dgr report --profile` renders.
#[test]
fn cli_profile_writes_collapsed_stacks_naming_real_phases() {
    let dir = std::env::temp_dir().join("dgr_observatory_profile_test");
    let design_path = write_design(&dir, 5);
    let folded_path = dir.join("out.folded");

    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            "90",
            "--quiet",
            "--profile",
            folded_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dgr");
    let wall_us = started.elapsed().as_micros() as u64;
    assert!(
        out.status.success(),
        "dgr route --profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("profile →"), "no profile line:\n{stdout}");

    let text = std::fs::read_to_string(&folded_path).expect("folded file written");
    assert!(!text.trim().is_empty(), "folded profile is empty");
    for line in text.lines() {
        let (_stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        let us: u64 = count.parse().expect("count is an integer");
        assert!(us > 0, "a stack of no self time: {line}");
    }

    let profile = dgr::obs::FoldedProfile::parse(&text);
    let phases = ["route", "train", "forward", "backward", "extract"];
    let hot = profile.hot_frames();
    assert!(
        hot.iter()
            .any(|(frame, _)| phases.iter().any(|p| frame == p)),
        "no real phase among hot frames: {hot:?}"
    );
    let main_us: u64 = profile
        .counts
        .iter()
        .filter(|(stack, _)| stack.starts_with("dgr-main;"))
        .map(|(_, us)| us)
        .sum();
    assert!(
        0 < main_us && main_us <= wall_us,
        "main track holds {main_us} µs of self time in a {wall_us} µs run"
    );

    let html_path = dir.join("profile.html");
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args(["report", "--profile", folded_path.to_str().unwrap()])
        .args(["--out", html_path.to_str().unwrap()])
        .output()
        .expect("spawn dgr report");
    assert!(out.status.success(), "dgr report --profile failed");
    let html = std::fs::read_to_string(&html_path).expect("report written");
    assert!(html.contains("<h2>Span profile</h2>"), "no profile section");
    assert!(
        html.contains("dgr-main;route;train"),
        "no stack table:\n{html}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `/metrics` payload obeys the Prometheus text exposition format:
/// typed counter and gauge families, legal metric names, numeric sample
/// values, each sample right under its family's `TYPE` line.
#[test]
fn prometheus_text_follows_the_exposition_grammar() {
    let _guard = OBS_LOCK.lock().unwrap();
    dgr::obs::set_enabled(true);
    dgr::obs::counter("observatory.test.requests").add(7);
    dgr::obs::gauge("observatory.test.depth").set(3.5);
    dgr::obs::gauge("observatory.test.ratio").set(f64::NAN);
    dgr::obs::gauge("dgrd.observatory.test").set(-2.0);
    let text = dgr::obs::prometheus_text();
    dgr::obs::set_enabled(false);

    let name_ok = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };

    let mut family: Option<&str> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("`# TYPE name kind`");
            assert!(name_ok(name), "bad family name: {line}");
            assert!(
                ["counter", "gauge"].contains(&kind),
                "bad family type: {line}"
            );
            family = Some(name);
            continue;
        }
        assert!(!line.is_empty(), "blank line in exposition");
        let (name, value) = line.split_once(' ').expect("`name value` shape");
        assert_eq!(
            Some(name),
            family.take(),
            "sample not under its TYPE line: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "bad sample value: {line}"
        );
    }
    assert!(family.is_none(), "a TYPE line without its sample");
    for sample in [
        "dgr_observatory_test_requests 7",
        "dgr_observatory_test_depth 3.5",
        "dgr_observatory_test_ratio NaN",
        "dgrd_observatory_test -2",
    ] {
        assert!(text.lines().any(|l| l == sample), "{sample}:\n{text}");
    }
}

/// The Chrome trace written by the span registry, with its event log
/// turned on as `--trace` turns it on, parses back through `obs::parse`
/// as an array of complete events with the span names.
#[test]
#[allow(clippy::disallowed_methods)] // reads the trace it round-trips
fn chrome_trace_round_trips_through_obs_parse() {
    let _guard = OBS_LOCK.lock().unwrap();
    dgr::obs::set_enabled(true);
    dgr::obs::log_span_events();
    {
        let _outer = dgr::obs::span("observatory", "obs-roundtrip-outer");
        let _inner = dgr::obs::span("observatory", "obs-roundtrip-inner");
    }
    let trace = dgr::obs::chrome_trace();
    dgr::obs::set_enabled(false);

    let value = dgr::obs::parse::parse_json(&trace).expect("trace is valid JSON");
    let dgr::obs::parse::JsonValue::Arr(events) = value else {
        panic!("trace must be a JSON array");
    };
    assert!(!events.is_empty());
    let mut seen = Vec::new();
    for e in &events {
        let ph = e.str("ph").expect("event phase");
        assert!(["X", "M"].contains(&ph), "unexpected phase {ph}");
        if ph == "X" {
            assert!(e.num("ts").is_some() && e.num("dur").is_some());
        }
        if let Some(name) = e.str("name") {
            seen.push(name.to_string());
        }
    }
    for needle in ["obs-roundtrip-outer", "obs-roundtrip-inner"] {
        assert!(
            seen.iter().any(|n| n == needle),
            "span {needle} missing from trace"
        );
    }
}

// ---------------------------------------------------------------------
// Sentinel: convergence-health rules over real training telemetry
// ---------------------------------------------------------------------

/// Routes `small_design(seed)` in-process with an in-memory telemetry
/// sink and returns the captured JSONL (no global obs state touched).
fn telemetry_of_run(seed: u64, learning_rate: f32, iterations: usize) -> String {
    let design = small_design(seed);
    let cfg = dgr::core::DgrConfig {
        iterations,
        seed,
        learning_rate,
        ..dgr::core::DgrConfig::default()
    };
    let mut hooks = dgr::core::RouteHooks {
        telemetry: Some(dgr::obs::TelemetrySink::in_memory()),
        ..dgr::core::RouteHooks::default()
    };
    let _ = dgr::core::DgrRouter::new(cfg).route_with_hooks(&design, &mut hooks);
    hooks
        .telemetry
        .as_ref()
        .and_then(|s| s.memory_contents())
        .expect("run produced telemetry")
        .to_string()
}

/// A healthy run (stock config, seed 11) trips no sentinel rule.
#[test]
fn healthy_run_trips_no_sentinel_rules() {
    let text = telemetry_of_run(11, 0.3, 200);
    let rows = dgr::obs::rows_from_jsonl(&text).expect("telemetry parses");
    assert!(rows.len() >= 100, "expected a full run, got {}", rows.len());
    let findings = dgr::obs::analyze_rows(&rows);
    assert!(
        findings.is_empty(),
        "healthy run tripped: {:?}",
        findings
            .iter()
            .map(|f| (f.rule, f.iter, f.message.clone()))
            .collect::<Vec<_>>()
    );
}

/// An absurd learning rate destroys convergence — Adam + the sigmoid
/// overflow activation saturate immediately, pinning loss and overflow
/// flat, which is exactly the plateau the stall rule watches for. The
/// sentinel notices and `dgr doctor` exits nonzero with evidence. (True
/// loss explosion cannot be provoked through the public config — the
/// divergence rule is exercised by the committed fixture instead.)
#[test]
fn diverging_run_trips_the_sentinel_and_doctor_exits_nonzero() {
    let text = telemetry_of_run(11, 1000.0, 600);
    let rows = dgr::obs::rows_from_jsonl(&text).expect("telemetry parses");
    let findings = dgr::obs::analyze_rows(&rows);
    assert!(
        !findings.is_empty(),
        "pathological-LR run produced no findings over {} rows",
        rows.len()
    );
    assert!(
        findings.iter().any(|f| f.rule == "overflow_stall"),
        "unexpected rules: {:?}",
        findings.iter().map(|f| f.rule).collect::<Vec<_>>()
    );
    // ranked output is stable: worst first, every finding has evidence
    assert!(findings[0].severity >= findings[findings.len() - 1].severity);
    assert!(!findings[0].evidence.is_empty());

    // the offline CLI agrees and gates (nonzero exit, evidence printed)
    let dir = std::env::temp_dir().join("dgr_sentinel_doctor_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("diverging.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args(["doctor", "--telemetry", path.to_str().unwrap()])
        .output()
        .expect("run dgr doctor");
    assert!(!out.status.success(), "doctor should exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evidence: iterations"), "stdout:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injecting a NaN row into otherwise-healthy telemetry trips the
/// poisoning rule exactly once, at the injected iteration.
#[test]
fn nan_injection_trips_the_poisoning_rule() {
    let text = telemetry_of_run(11, 0.3, 120);
    let mut rows = dgr::obs::rows_from_jsonl(&text).expect("telemetry parses");
    assert!(rows.len() > 50);
    rows[50].loss = f32::NAN;
    let findings = dgr::obs::analyze_rows(&rows);
    let poisoned: Vec<_> = findings.iter().filter(|f| f.rule == "poisoning").collect();
    assert_eq!(poisoned.len(), 1, "findings: {findings:?}");
    assert_eq!(poisoned[0].iter, rows[50].iter as u64);
}

/// The live report of a run and the report rendered from its telemetry
/// file are one page, byte for byte: curves read back from the file and
/// the verdicts `analyze_rows` reproduces from them say what the run's
/// scope said. The run trips the stall rule, so the health band is drawn.
#[test]
fn live_report_equals_the_report_of_its_telemetry_file() {
    const SCOPE: u64 = 7_001;
    let _guard = OBS_LOCK.lock().unwrap();
    dgr::obs::set_enabled(true);
    let text = {
        let _scope = dgr::obs::status_scope(SCOPE);
        telemetry_of_run(11, 1000.0, 600)
    };
    dgr::obs::set_enabled(false);
    let live = dgr::obs::report_of(SCOPE, "run".into());
    dgr::obs::scope_remove(SCOPE);

    let rows = dgr::obs::rows_from_jsonl(&text).expect("telemetry parses");
    let findings = dgr::obs::analyze_rows(&rows);
    assert!(
        !findings.is_empty(),
        "the health band has a finding to draw"
    );
    let file = dgr::obs::render_report(&dgr::obs::ReportInputs {
        title: "run".into(),
        telemetry: Some(rows),
        health: Some(findings),
        ..dgr::obs::ReportInputs::default()
    });
    assert!(live.contains("class=\"healthband\"") && live.contains("<polyline"));
    assert!(live == file, "the live report and the file's differ");
}

/// The committed CI fixture keeps failing the doctor (the gate the
/// workflow relies on).
#[test]
fn doctor_fails_on_the_committed_diverging_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/diverging_telemetry.jsonl"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args(["doctor", "--telemetry", fixture])
        .output()
        .expect("run dgr doctor");
    assert!(!out.status.success(), "doctor should exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("divergence"), "stdout:\n{stdout}");
}
