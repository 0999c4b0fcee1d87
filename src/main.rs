#![forbid(unsafe_code)]

//! `dgr` — command-line front end for the differentiable global router.
//!
//! `dgr --help` lists every subcommand and the flags it accepts, rendered
//! from the one table [`Flags::parse`] checks arguments against.
//!
//! `--trace` turns on the `dgr-obs` span registry and writes a Chrome
//! trace-event file (load it at `chrome://tracing` or in Perfetto);
//! `--telemetry` streams one JSONL row per training iteration; `--snap`
//! streams per-g-cell congestion snapshots plus the per-net overflow
//! attribution. `--serve ADDR` exposes `/metrics` (Prometheus),
//! `/status` (JSON) and `/report` (HTML) over HTTP while the run is
//! live; `--profile` folds the span log into a collapsed-stack
//! (flamegraph-compatible) file of self time. Every `route` run also
//! appends a content-hashed summary record to the persistent ledger
//! (`~/.dgr/ledger.jsonl`, override with `DGR_LEDGER`, disable with
//! `--no-ledger`) that `dgr history` renders into cross-run deltas.
//! `dgr report` reads those files back, each with the reader that sits
//! beside its writer in `dgr-obs`, and renders them into one
//! self-contained HTML post-mortem.

use std::io::Write as _;
use std::process::ExitCode;

use dgr::baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr::core::{write_attribution, DgrConfig, RouteHooks, SnapshotConfig};
use dgr::grid::Design;
use dgr::obs::ledger::{self, LedgerRecord};
use dgr::obs::{parse_trace, render_report, rows_from_jsonl, ObsServer, ReportInputs};
use dgr::obs::{FoldedProfile, SnapshotSink, SnapshotStream, TelemetrySink};
use dgr::post::pipeline;

// Shadows of the std macros for every print below: a reader that went away
// (`dgr route … | head -1`) ends the printing, not the run — std's versions
// panic on the write error, after which no guide, routes file or ledger
// record would be written. SIGPIPE stays ignored: the HTTP servers count
// on socket writes returning EPIPE.
macro_rules! print {
    ($($arg:tt)*) => {{
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}
macro_rules! println {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// A subcommand: its name, the placeholder of its positional argument (a
/// design file, a case name, an address) when it takes one, the flags it
/// accepts, what it does, and its implementation. In the flag list
/// `--flag=VALUE` takes a value, `--flag?VALUE` takes one if the next
/// argument is not a flag itself, and a plain `--flag` takes none;
/// `VALUE` is the placeholder `--help` shows.
struct Command {
    name: &'static str,
    positional: Option<&'static str>,
    flags: &'static str,
    help: &'static str,
    run: fn(&Flags) -> CliResult,
}

/// Every subcommand and every flag, in `--help` order: an argument that
/// is not in its command's row is an error, never ignored.
const COMMANDS: &[Command] = &[
    Command {
        name: "cases",
        positional: None,
        flags: "",
        help: "list the benchmark catalog",
        run: cmd_cases,
    },
    Command {
        name: "generate",
        positional: Some("<case>"),
        flags: "--out=design.txt --fast",
        help: "emit a named catalog design (e.g. ispd18_test1, ispd19_7m)",
        run: cmd_generate,
    },
    Command {
        name: "route",
        positional: Some("<design.txt>"),
        flags: "--iterations=N --seed=S --routes=out.txt --guide=out.guide --trace=out.json \
                --telemetry=out.jsonl --snap=out.snaps --snap-every=N --serve=ADDR \
                --profile=out.folded --progress=N --no-ledger --quiet",
        help: "route a design and print metrics",
        run: cmd_route,
    },
    Command {
        name: "compare",
        positional: Some("<design.txt>"),
        flags: "--iterations=N --seed=S --trace=out.json --serve=ADDR --profile=out.folded",
        help: "route with DGR and every baseline, print a comparison table",
        run: cmd_compare,
    },
    Command {
        name: "history",
        positional: None,
        flags: "--limit=N --ledger=path",
        help: "render recent ledger records as a table, with per-phase deltas\n\
               against the previous comparable run",
        run: cmd_history,
    },
    Command {
        name: "report",
        positional: None,
        flags: "--telemetry=in.jsonl --snap=in.snaps --trace=in.json --profile=in.folded \
                --title=NAME --out=report.html",
        help: "render routing-run artifacts into a self-contained HTML post-mortem",
        run: cmd_report,
    },
    Command {
        name: "doctor",
        positional: None,
        flags: "--telemetry=in.jsonl --ledger?path",
        help: "replay a run's telemetry (and/or the run ledger) through the\n\
               sentinel convergence rules; print ranked findings with evidence\n\
               windows, exit nonzero when any rule trips",
        run: cmd_doctor,
    },
    Command {
        name: "serve-jobs",
        positional: Some("<addr>"),
        flags: "--workers=N --queue-cap=N --retain=N --no-ledger",
        help: "run dgrd: a multi-tenant routing job server (POST /jobs,\n\
               GET /jobs/:id[/report|/telemetry|/guide], DELETE /jobs/:id,\n\
               plus the /metrics /status /report observability routes)",
        run: cmd_serve_jobs,
    },
];

/// The flag a spec of [`Command::flags`] names: `--trace=out.json` →
/// `--trace`.
fn flag_name(spec: &str) -> &str {
    &spec[..spec.find(['=', '?']).unwrap_or(spec.len())]
}

/// A spec of [`Command::flags`] as `--help` shows it: `[--trace out.json]`,
/// `[--ledger [path]]`, `[--quiet]`.
fn flag_usage(spec: &str) -> String {
    let name = flag_name(spec);
    match &spec[name.len()..] {
        "" => format!("[{name}]"),
        value if value.starts_with('?') => format!("[{name} [{}]]", &value[1..]),
        value => format!("[{name} {}]", &value[1..]),
    }
}

/// One subcommand's arguments, checked against its row of [`COMMANDS`].
struct Flags<'a> {
    /// The lone positional argument, when given.
    positional: Option<&'a str>,
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(command: &Command, args: &'a [String]) -> Result<Self, String> {
        let cmd = command.name;
        let mut flags = Flags {
            positional: None,
            given: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str).peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if command.positional.is_none() || flags.positional.is_some() {
                    return Err(format!("unexpected argument `{arg}` for `dgr {cmd}`"));
                }
                flags.positional = Some(arg);
                continue;
            }
            let spec = command
                .flags
                .split_whitespace()
                .find(|&spec| flag_name(spec) == arg)
                .ok_or_else(|| format!("unknown flag `{arg}` for `dgr {cmd}` (try --help)"))?;
            if flags.has(arg) {
                return Err(format!("flag `{arg}` given twice"));
            }
            // a spec longer than the flag goes on with `=` or `?`: it takes
            // the next argument, unless that is a flag
            let value = rest.next_if(|next| spec != arg && !next.starts_with("--"));
            if spec.contains('=') && value.is_none() {
                return Err(format!("flag `{arg}` needs a value"));
            }
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// The flag's operand parsed as `T`; `None` when the flag is absent.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad value `{v}` for `{name}`: {e}"))
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => Flags::parse(command, &args[1..])
                .map_err(Into::into)
                .and_then(|flags| (command.run)(&flags)),
            None => Err(format!("unknown command `{name}` (try --help)").into()),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_cases(_: &Flags) -> CliResult {
    for name in dgr::io::catalog_names() {
        let case = dgr::io::catalog_case(name).expect("listed case exists");
        println!(
            "{name:<16} {:>6} nets  {:>4}x{:<4}  {} layers{}",
            case.config.num_nets,
            case.config.width,
            case.config.height,
            case.config.num_layers,
            if case.congested { "  (congested)" } else { "" }
        );
    }
    Ok(())
}

/// `--help`: each row of [`COMMANDS`] as a synopsis wrapped under its
/// positional, then its help text.
fn print_usage() {
    println!("dgr — differentiable global router (DAC 2024 reproduction)");
    println!();
    println!("usage:");
    for c in COMMANDS {
        let head = format!("  dgr {}", c.name);
        let mut line = head.clone();
        let words = c.flags.split_whitespace().map(flag_usage);
        for word in c.positional.map(str::to_string).into_iter().chain(words) {
            if line.len() > head.len() && line.len() + 1 + word.len() > 78 {
                println!("{line}");
                line = " ".repeat(head.len());
            }
            line.push(' ');
            line.push_str(&word);
        }
        println!("{line}");
        for help in c.help.lines() {
            println!("      {help}");
        }
    }
    println!();
    println!("observability:");
    println!("  --trace out.json      record phase spans, write a Chrome trace-event file");
    println!("  --telemetry out.jsonl stream one JSONL row per training iteration");
    println!("  --snap out.snaps      stream per-g-cell congestion snapshots + attribution");
    println!("  --snap-every N        training snapshot stride (default: iterations/16)");
    println!("  --serve ADDR          live HTTP exporter: /metrics /status /report");
    println!("  --profile out.folded  self time per span stack → collapsed stacks");
    println!("  --no-ledger           skip the persistent run ledger for this run");
    println!("  --progress N          progress line every N iterations (default 100)");
    println!("  --quiet               suppress the progress line");
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_generate(flags: &Flags) -> CliResult {
    let case_name = flags.positional.ok_or("generate needs a case name")?;
    let case = dgr::io::catalog_case(case_name)
        .ok_or_else(|| format!("unknown catalog case `{case_name}`"))?;
    let config = if flags.has("--fast") {
        case.config.fast()
    } else {
        case.config
    };
    let design = dgr::io::IspdLikeGenerator::new(config).generate()?;
    let text = dgr::io::write_design(&design);
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!(
                "wrote {} ({} nets, {}x{} grid, {} layers)",
                path,
                design.num_nets(),
                design.grid.width(),
                design.grid.height(),
                design.num_layers
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `dgr serve-jobs`: boot `dgrd` and serve routing jobs until killed.
fn cmd_serve_jobs(flags: &Flags) -> CliResult {
    let addr = flags
        .positional
        .ok_or("serve-jobs needs a listen address (e.g. 127.0.0.1:7878)")?;
    let mut cfg = dgr::daemon::DaemonConfig::default();
    if let Some(v) = flags.parsed("--workers")? {
        cfg.workers = v;
    }
    if let Some(v) = flags.parsed("--queue-cap")? {
        cfg.queue_capacity = v;
    }
    if let Some(v) = flags.parsed("--retain")? {
        cfg.retain_jobs = v;
    }
    cfg.ledger = !flags.has("--no-ledger");
    // the daemon is an observability surface by nature: metrics, per-job
    // status scopes and reports are always on
    dgr::obs::reset();
    dgr::obs::set_enabled(true);
    let daemon = dgr::daemon::Daemon::start(addr, cfg)?;
    eprintln!(
        "dgrd: http://{}/  (POST /jobs, GET|DELETE /jobs/:id, /metrics /status)",
        daemon.local_addr()
    );
    loop {
        std::thread::park();
    }
}

fn load_design(flags: &Flags) -> Result<Design, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(flags.positional.ok_or("missing design file")?)?;
    Ok(dgr::io::parse_design(&text)?)
}

fn config_from(flags: &Flags) -> Result<DgrConfig, String> {
    let mut cfg = DgrConfig::default();
    if let Some(v) = flags.parsed("--iterations")? {
        cfg.iterations = v;
    }
    if let Some(v) = flags.parsed("--seed")? {
        cfg.seed = v;
    }
    Ok(cfg)
}

/// Live observability attached to one CLI run: the optional Chrome
/// trace and span profile, written at its end, and the HTTP exporter.
///
/// The span registry is enabled for every `route` run (the persistent
/// ledger needs per-phase totals either way) but keeps its event log
/// only for `--trace` and `--profile`, the two files written from it; the
/// end-of-run summary tables only print when the user asked for
/// observability explicitly, so plain runs keep their original output.
struct ObsSession {
    trace: Option<String>,
    profile: Option<String>,
    /// Held for its lifetime only: dropping it stops the HTTP exporter.
    _server: Option<ObsServer>,
    show_summary: bool,
}

fn obs_session(
    flags: &Flags,
    job: &str,
    total_iters: u64,
) -> Result<ObsSession, Box<dyn std::error::Error>> {
    let trace = flags.value("--trace").map(str::to_string);
    let profile = flags.value("--profile").map(str::to_string);
    let serve = flags.value("--serve");
    let show_summary = trace.is_some() || profile.is_some() || serve.is_some();
    dgr::obs::reset();
    dgr::obs::set_enabled(true);
    if trace.is_some() || profile.is_some() {
        dgr::obs::log_span_events();
    }
    // publish the run identity before the listener comes up, so the very
    // first /status scrape names the job
    dgr::obs::status_begin(job, total_iters, 1);
    let server = match serve {
        Some(addr) => {
            let server = ObsServer::start(addr)?;
            eprintln!(
                "observatory: http://{}/  (/metrics /status /report)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    Ok(ObsSession {
        trace,
        profile,
        _server: server,
        show_summary,
    })
}

/// Writes the folded profile and trace (if requested), prints the
/// end-of-run summary tables and stops the server.
fn obs_finish(session: ObsSession) -> CliResult {
    if let Some(path) = session.profile.as_deref() {
        let profile = dgr::obs::folded_profile();
        profile.write(path)?;
        let hottest = profile
            .hot_frames()
            .first()
            .map_or_else(|| "-".to_string(), |(frame, _)| frame.clone());
        println!();
        println!(
            "profile → {path} ({} stacks, {:.1} ms of self time, hottest frame: {hottest})",
            profile.counts.len(),
            profile.total() as f64 / 1e3,
        );
        let dropped = dgr::obs::span::dropped_events();
        if dropped > 0 {
            println!(
                "  {dropped} span events past the log's cap of {} are not in it",
                dgr::obs::span::MAX_EVENTS
            );
        }
    }
    if session.show_summary {
        print_summary_tables();
    }
    if let Some(path) = session.trace.as_deref() {
        dgr::obs::write_chrome_trace(path)?;
        println!();
        println!("trace → {path} (load at chrome://tracing)");
    }
    // the HTTP exporter (if any) stops when `session` drops here
    Ok(())
}

fn print_summary_tables() {
    let totals = dgr::obs::span_totals();
    if !totals.is_empty() {
        println!();
        println!(
            "{:<16} {:>8} {:>12} {:>12}",
            "span", "calls", "total (ms)", "mean (µs)"
        );
        for t in &totals {
            println!(
                "{:<16} {:>8} {:>12.2} {:>12.1}",
                t.name,
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.mean().as_secs_f64() * 1e6,
            );
        }
    }
    let metrics = dgr::obs::metrics_snapshot();
    if !metrics.is_empty() {
        println!();
        println!("{:<22} {:>16}", "metric", "value");
        for m in &metrics {
            use dgr::obs::MetricValue;
            match m.value {
                MetricValue::Counter(v) => println!("{:<22} {:>16}", m.name, v),
                MetricValue::Gauge(v) => println!("{:<22} {:>16.3}", m.name, v),
            }
        }
    }
}

/// Appends the run's [`pipeline::ledger_record`] to the persistent
/// ledger (unless `--no-ledger`): labelled with the design file's stem,
/// its phases the span totals. Best effort by contract: a failed append
/// only suppresses the confirmation line.
fn append_run(flags: &Flags, design: &Design, cfg: &DgrConfig, outcome: &pipeline::Outcome) {
    if flags.has("--no-ledger") {
        return;
    }
    let path = flags.positional.unwrap_or_default();
    let label = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    let phases = dgr::obs::span_totals()
        .into_iter()
        .map(|t| (t.name.to_string(), t.total.as_secs_f64() * 1e3))
        .collect();
    let record = pipeline::ledger_record("route", &label, design, cfg, outcome, phases);
    if let Some(path) = ledger::append(&record) {
        println!("  ledger           : appended → {}", path.display());
    }
}

fn route_hooks(flags: &Flags, iterations: usize) -> Result<RouteHooks, Box<dyn std::error::Error>> {
    let mut hooks = RouteHooks::default();
    if let Some(path) = flags.value("--telemetry") {
        hooks.telemetry = Some(TelemetrySink::to_path(path)?);
    }
    if let Some(path) = flags.value("--snap") {
        hooks.snap = Some(SnapshotConfig {
            sink: SnapshotSink::to_path(path)?,
            every: flags
                .parsed("--snap-every")?
                .unwrap_or((iterations / 16).max(1)),
        });
    }
    if !flags.has("--quiet") {
        hooks.progress = Some(flags.parsed("--progress")?.unwrap_or(100));
    }
    Ok(hooks)
}

fn cmd_route(flags: &Flags) -> CliResult {
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    let session = obs_session(flags, "route", cfg.iterations as u64)?;
    let mut hooks = route_hooks(flags, cfg.iterations)?;
    let out = pipeline::run(&design, &cfg, &mut hooks, flags.has("--guide"))?;
    let solution = &out.solution;
    if let Some(snap) = hooks.snap.as_mut() {
        // post-refinement congestion plus the final offender attribution
        let final_iter = solution
            .train_report
            .as_ref()
            .and_then(|r| r.curve.last())
            .map_or(0, |p| p.iter as u64 + 1);
        let demand = &solution.demand;
        dgr::core::write_demand_snapshot(&mut snap.sink, &design, demand, final_iter, "refine");
        write_attribution(&mut snap.sink, &design, solution, &cfg.weights, "final");
        snap.sink.flush();
    }

    let m = &solution.metrics;
    let report = &out.post.refine;
    println!(
        "routed {} nets in {:.2?}",
        design.num_nets(),
        out.route_time
    );
    println!("  wirelength       : {}", m.total_wirelength);
    println!("  turning points   : {}", m.total_turns);
    println!("  overflowed edges : {}", m.overflow.overflowed_edges);
    println!("  total overflow   : {:.2}", m.overflow.total_overflow);
    let r = &out.routed;
    println!(
        "  as routed        : wirelength {}, {} turning points, {} overflowed edges, total overflow {:.2}",
        r.total_wirelength, r.total_turns, r.overflow.overflowed_edges, r.overflow.total_overflow
    );
    println!(
        "  refinement       : {} nets rerouted ({} → {} overflowed edges)",
        report.nets_rerouted, report.overflowed_before, report.overflowed_after
    );
    if !flags.has("--quiet") {
        println!(
            "  maze search      : {} searches, {} escalated to the full grid, {} certified in the window, {} states popped",
            report.stats.searches(),
            report.stats.escalations(),
            report.stats.escalations_avoided(),
            report.stats.states_expanded()
        );
    }
    if let Some(assigned) = &out.post.assigned {
        println!("  vias (3D)        : {}", assigned.total_vias);
        println!("  3D overflow      : {}", assigned.overflowed_edges3d);
    }
    if let (Some(guide), Some(path)) = (&out.post.guide, flags.value("--guide")) {
        std::fs::write(path, guide.to_text())?;
        println!("  guide boxes      : {} → {}", guide.num_boxes(), path);
    }
    if let Some(path) = flags.value("--routes") {
        std::fs::write(path, solution.to_text())?;
        println!("  routes checkpoint → {path}");
    }
    if let Some(report) = &solution.train_report {
        if let (Some(first), Some(last)) = (report.curve.first(), report.curve.last()) {
            println!(
                "  training loss    : {:.2} → {:.2} over {} iterations",
                first.loss,
                last.loss,
                last.iter + 1
            );
        }
        if let [forest, .., last] = report.live[..] {
            println!(
                "  live candidates  : {} → {} ({} undecided in {} sub-nets)",
                forest.candidates(),
                last.candidates(),
                last.undecided_paths,
                last.undecided_subnets
            );
        }
    }
    if let Some(sink) = hooks.telemetry.as_mut() {
        sink.flush();
        let path = flags.value("--telemetry").unwrap_or("?");
        println!("  telemetry        : {} rows → {path}", sink.rows());
    }
    if let Some(snap) = hooks.snap.as_mut() {
        snap.sink.flush();
        let path = flags.value("--snap").unwrap_or("?");
        println!("  snapshots        : {} → {path}", snap.sink.snapshots());
    }
    append_run(flags, &design, &cfg, &out);
    obs_finish(session)?;
    Ok(())
}

/// `dgr report`: render telemetry / snapshot / trace / profile
/// artifacts into one deterministic, self-contained HTML post-mortem,
/// each file read by the reader beside its writer.
fn cmd_report(flags: &Flags) -> CliResult {
    if !["--telemetry", "--snap", "--trace", "--profile"]
        .iter()
        .any(|f| flags.has(f))
    {
        return Err(
            "report needs at least one of --telemetry / --snap / --trace / --profile".into(),
        );
    }
    let read = |flag: &str| flags.value(flag).map(std::fs::read_to_string).transpose();
    let inputs = ReportInputs {
        title: flags.value("--title").unwrap_or("routing run").to_string(),
        telemetry: read("--telemetry")?
            .map(|text| rows_from_jsonl(&text))
            .transpose()
            .map_err(|(line, e)| format!("telemetry: line {line}: {e}"))?,
        snapshots: read("--snap")?
            .map(|text| SnapshotStream::parse(&text))
            .transpose()
            .map_err(|e| format!("snapshots: {e}"))?,
        phases: read("--trace")?
            .map(|text| parse_trace(&text))
            .transpose()
            .map_err(|e| format!("trace: {e}"))?,
        profile: read("--profile")?.as_deref().map(FoldedProfile::parse),
        // findings live in a run's scope: no command writes them to a file
        health: None,
    };
    let html = render_report(&inputs);
    let out = flags.value("--out").unwrap_or("report.html");
    std::fs::write(out, &html)?;
    println!("report → {out} ({} bytes)", html.len());
    Ok(())
}

/// `dgr doctor`: offline convergence triage. Replays a telemetry JSONL
/// file through the sentinel rule engine (and/or checks the newest
/// ledger record's iteration rate against its last comparable run) and
/// prints ranked findings with their evidence windows. Exits nonzero
/// when anything trips, so CI can gate on it.
fn cmd_doctor(flags: &Flags) -> CliResult {
    let telemetry = flags.value("--telemetry");
    let use_ledger = flags.has("--ledger");
    if telemetry.is_none() && !use_ledger {
        return Err("doctor needs --telemetry <in.jsonl> and/or --ledger [path]".into());
    }

    let mut findings = Vec::new();
    if let Some(path) = telemetry {
        let text = std::fs::read_to_string(path)?;
        let rows =
            rows_from_jsonl(&text).map_err(|(line, e)| format!("{path}: line {line}: {e}"))?;
        println!("doctor: {} telemetry row(s) from {path}", rows.len());
        findings.extend(dgr::obs::analyze_rows(&rows));
    }
    if use_ledger {
        let path = resolve_ledger_path(flags)?;
        let records = ledger::load(&path);
        println!(
            "doctor: {} ledger record(s) from {}",
            records.len(),
            path.display()
        );
        if let Some((prev, last)) = last_comparable_pair(&records) {
            findings.extend(dgr::obs::rate_collapse_finding(
                last.it_per_s,
                prev.it_per_s,
            ));
        }
    }
    dgr::obs::rank_findings(&mut findings);

    if findings.is_empty() {
        println!("doctor: no findings — the run looks healthy");
        return Ok(());
    }
    println!();
    for (i, f) in findings.iter().enumerate() {
        println!(
            "{:>3}. [{}] {} @ iteration {} — {}",
            i + 1,
            f.severity.as_str(),
            f.rule,
            f.iter,
            f.message
        );
        if let (Some((lo, first)), Some((hi, last))) = (f.evidence.first(), f.evidence.last()) {
            println!(
                "     evidence: iterations {lo}..{hi} ({} samples, {first:.4} -> {last:.4})",
                f.evidence.len()
            );
        }
    }
    println!();
    Err(format!(
        "{} health finding(s); worst verdict: {}",
        findings.len(),
        dgr::obs::verdict_of(&findings).as_str()
    )
    .into())
}

/// `dgr history`: render the persistent run ledger as a table, newest
/// runs last, with a per-phase delta against the previous comparable
/// run (same config fingerprint).
fn cmd_history(flags: &Flags) -> CliResult {
    let path = resolve_ledger_path(flags)?;
    let records = ledger::load(&path);
    if records.is_empty() {
        println!("ledger empty: {}", path.display());
        return Ok(());
    }
    let limit: usize = flags.parsed("--limit")?.unwrap_or(16);
    let start = records.len().saturating_sub(limit);
    println!(
        "{:<16} {:<6} {:<16} {:>6} {:>6} {:>9} {:>12} {:>9} {:>8}",
        "when", "cmd", "design", "iters", "nets", "it/s", "loss", "wl", "ovf"
    );
    for r in &records[start..] {
        println!(
            "{:<16} {:<6} {:<16} {:>6} {:>6} {:>9.1} {:>12.2} {:>9} {:>8.2}",
            fmt_ts(r.ts),
            r.cmd,
            r.design,
            r.iterations,
            r.nets,
            r.it_per_s,
            r.loss,
            r.wirelength,
            r.overflow,
        );
    }
    if let Some((prev, last)) = last_comparable_pair(&records) {
        print_run_delta(prev, last);
    }
    println!();
    println!(
        "{} record(s) in {} (showing last {})",
        records.len(),
        path.display(),
        records.len() - start
    );
    Ok(())
}

fn resolve_ledger_path(flags: &Flags) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    // `--ledger path` names a file explicitly; bare `--ledger` (as in
    // `doctor --ledger`) falls through to the environment default.
    if let Some(p) = flags.value("--ledger") {
        return Ok(std::path::PathBuf::from(p));
    }
    ledger::ledger_path().ok_or_else(|| "ledger disabled (set DGR_LEDGER or HOME)".into())
}

/// The newest record plus the most recent earlier record sharing its
/// config fingerprint.
fn last_comparable_pair(records: &[LedgerRecord]) -> Option<(&LedgerRecord, &LedgerRecord)> {
    let last = records.last()?;
    let prev = records[..records.len() - 1]
        .iter()
        .rev()
        .find(|r| r.config_fp == last.config_fp)?;
    Some((prev, last))
}

fn print_run_delta(prev: &LedgerRecord, last: &LedgerRecord) {
    println!();
    println!(
        "delta vs previous comparable run (config {}):",
        &last.config_fp[..8.min(last.config_fp.len())]
    );
    let scalar = |name: &str, a: f64, b: f64, unit: &str| {
        println!(
            "  {:<18} {:>12.2} → {:<12.2} {:>8} {unit}",
            name,
            a,
            b,
            fmt_delta_pct(a, b)
        );
    };
    scalar("loss", prev.loss, last.loss, "");
    scalar(
        "wirelength",
        prev.wirelength as f64,
        last.wirelength as f64,
        "",
    );
    scalar("overflow", prev.overflow, last.overflow, "");
    scalar("it/s", prev.it_per_s, last.it_per_s, "");
    scalar("wall", prev.wall_ms as f64, last.wall_ms as f64, "ms");
    let mut names: Vec<&String> = prev.phases.keys().chain(last.phases.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let a = prev.phases.get(name).copied().unwrap_or(0.0);
        let b = last.phases.get(name).copied().unwrap_or(0.0);
        println!(
            "  phase {:<12} {:>12.2} → {:<12.2} {:>8} ms",
            name,
            a,
            b,
            fmt_delta_pct(a, b)
        );
    }
}

fn fmt_delta_pct(a: f64, b: f64) -> String {
    if a == 0.0 {
        return "—".to_string();
    }
    format!("{:+.1}%", 100.0 * (b - a) / a)
}

/// Formats a unix timestamp as `YYYY-MM-DD HH:MM` (UTC) — civil-from-days
/// without a date dependency.
fn fmt_ts(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}",
        rem / 3600,
        (rem % 3600) / 60
    )
}

fn cmd_compare(flags: &Flags) -> CliResult {
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    let session = obs_session(flags, "compare", cfg.iterations as u64)?;
    println!(
        "{:<12} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "router", "wirelength", "turns", "ovf edges", "ovf total", "t(s)"
    );
    let row = |name: &str, m: &dgr::core::SolutionMetrics, route_time: std::time::Duration| {
        println!(
            "{:<12} {:>10} {:>8} {:>10} {:>10.2} {:>8.2}",
            name,
            m.total_wirelength,
            m.total_turns,
            m.overflow.overflowed_edges,
            m.overflow.total_overflow,
            route_time.as_secs_f64()
        );
    };
    let dgr_out = pipeline::run(&design, &cfg, &mut RouteHooks::default(), false)?;
    row("dgr", &dgr_out.solution.metrics, dgr_out.route_time);
    type Baseline = fn(&Design) -> Result<dgr::core::RoutingSolution, dgr::baseline::BaselineError>;
    let baselines: [(&str, Baseline); 3] = [
        ("sequential", |d| SequentialRouter.route(d)),
        ("sproute", |d| SprouteRouter.route(d)),
        ("lagrangian", |d| LagrangianRouter.route(d)),
    ];
    for (name, route) in baselines {
        let out =
            pipeline::run_with::<Box<dyn std::error::Error>, _>(&design, false, |d| Ok(route(d)?))?;
        row(name, &out.solution.metrics, out.route_time);
    }
    // The retained curve (TrainReport::curve) shows how the DGR loss moved
    // without re-running or re-deriving anything.
    if let Some(report) = &dgr_out.solution.train_report {
        if let (Some(first), Some(last)) = (report.curve.first(), report.curve.last()) {
            println!();
            println!(
                "dgr training: loss {:.2} → {:.2}, overflow {:.2} → {:.2} ({} curve points)",
                first.loss,
                last.loss,
                first.overflow,
                last.overflow,
                report.curve.len()
            );
        }
    }
    obs_finish(session)?;
    Ok(())
}
