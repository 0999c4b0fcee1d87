#![forbid(unsafe_code)]

//! `dgr` — command-line front end for the differentiable global router.
//!
//! `dgr --help` lists every subcommand and the flags it accepts, rendered
//! from the one table [`Flags::parse`] checks arguments against.
//!
//! `--trace` opens the `dgr-obs` span log and writes it as a Chrome
//! trace-event file (load it at `chrome://tracing` or in Perfetto);
//! `--telemetry` streams one JSONL row per training iteration;
//! `--profile` folds the span log into a collapsed-stack
//! (flamegraph-compatible) file of self time. Spans and metrics record
//! only in a run given `--trace` or `--profile`, so a plain `route`
//! records nothing it would not show; `--telemetry`'s sink works either
//! way. `dgr report` reads those files back, each with the reader that
//! sits beside its writer in `dgr-obs`, and renders them into one
//! self-contained HTML post-mortem. To watch a run live, submit it to
//! `dgr serve-jobs` (`dgrd`): `/status`, `/metrics`, `/health` and a
//! job's `/report` and `/telemetry` answer while it runs.

use std::io::Write as _;
use std::process::ExitCode;

use dgr::baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr::core::{DgrConfig, RouteHooks};
use dgr::grid::Design;
use dgr::obs::{parse_trace, render_report, rows_from_jsonl, ReportInputs};
use dgr::obs::{FoldedProfile, TelemetrySink};
use dgr::post::pipeline;

// Shadows of the std macros for every print below: a reader that went away
// (`dgr route … | head -1`) ends the printing, not the run — std's versions
// panic on the write error, after which no guide or routes file would be
// written. SIGPIPE stays ignored: dgrd's listener counts on socket writes
// returning EPIPE.
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
/// `--flag=VALUE` takes a value and a plain `--flag` takes none; `VALUE`
/// is the placeholder `--help` shows.
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
                --telemetry=out.jsonl --profile=out.folded --quiet",
        help: "route a design and print metrics",
        run: cmd_route,
    },
    Command {
        name: "compare",
        positional: Some("<design.txt>"),
        flags: "--iterations=N --seed=S --trace=out.json --profile=out.folded",
        help: "route with DGR and every baseline, print a comparison table",
        run: cmd_compare,
    },
    Command {
        name: "report",
        positional: None,
        flags: "--telemetry=in.jsonl --trace=in.json --profile=in.folded --title=NAME \
                --out=report.html",
        help: "render routing-run artifacts into a self-contained HTML post-mortem",
        run: cmd_report,
    },
    Command {
        name: "doctor",
        positional: None,
        flags: "--telemetry=in.jsonl",
        help: "replay a run's telemetry through the sentinel convergence rules;\n\
               print ranked findings with evidence windows, exit nonzero when\n\
               any rule trips",
        run: cmd_doctor,
    },
    Command {
        name: "serve-jobs",
        positional: Some("<addr>"),
        flags: "--workers=N --queue-cap=N --retain=N",
        help: "run dgrd: a multi-tenant routing job server (POST /jobs,\n\
               GET /jobs/:id[/report|/telemetry|/guide], DELETE /jobs/:id,\n\
               GET /health /metrics /status): the live view of a run",
        run: cmd_serve_jobs,
    },
];

/// The flag a spec of [`Command::flags`] names: `--trace=out.json` →
/// `--trace`.
fn flag_name(spec: &str) -> &str {
    spec.split_once('=').map_or(spec, |(name, _)| name)
}

/// A spec of [`Command::flags`] as `--help` shows it: `[--trace out.json]`,
/// `[--quiet]`.
fn flag_usage(spec: &str) -> String {
    match spec.split_once('=') {
        Some((name, value)) => format!("[{name} {value}]"),
        None => format!("[{spec}]"),
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
            // a spec longer than the flag goes on with `=`: it takes the
            // next argument, which must not be a flag
            let value = rest.next_if(|next| spec != arg && !next.starts_with("--"));
            if spec != arg && value.is_none() {
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
    println!("  --profile out.folded  self time per span stack → collapsed stacks");
    println!("  --quiet               suppress the progress line (every 100 iterations)");
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
    // the daemon is an observability surface by nature: its metrics are
    // always on (a job's status, rows and report live in the job's scope)
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

/// Whether a CLI run records spans and metrics: only when `--trace` or
/// `--profile` will read the span registry's event log, the two files
/// written from it; the end-of-run summary tables print in the same runs.
/// `--telemetry` needs no switch: its sink is an explicit object.
fn obs_recording(flags: &Flags) -> bool {
    flags.has("--trace") || flags.has("--profile")
}

fn obs_start(flags: &Flags) {
    dgr::obs::reset();
    dgr::obs::set_enabled(obs_recording(flags));
    if obs_recording(flags) {
        dgr::obs::log_span_events();
    }
}

/// Writes the folded profile and trace (if requested) and prints the
/// end-of-run summary tables.
fn obs_finish(flags: &Flags) -> CliResult {
    if let Some(path) = flags.value("--profile") {
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
    }
    if obs_recording(flags) {
        print_summary_tables();
    }
    if let Some(path) = flags.value("--trace") {
        dgr::obs::write_chrome_trace(path)?;
        println!();
        println!("trace → {path} (load at chrome://tracing)");
    }
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
                t.total_us / 1e3,
                t.total_us / t.count as f64,
            );
        }
    }
    let dropped = dgr::obs::span::dropped_events();
    if dropped > 0 {
        println!(
            "  {dropped} span events past the log's cap of {} are in neither the table nor the files",
            dgr::obs::span::MAX_EVENTS
        );
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

fn route_hooks(flags: &Flags) -> Result<RouteHooks, Box<dyn std::error::Error>> {
    let mut hooks = RouteHooks::default();
    if let Some(path) = flags.value("--telemetry") {
        hooks.telemetry = Some(TelemetrySink::to_path(path)?);
    }
    hooks.progress = !flags.has("--quiet");
    Ok(hooks)
}

fn cmd_route(flags: &Flags) -> CliResult {
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    obs_start(flags);
    let mut hooks = route_hooks(flags)?;
    let out = pipeline::run(&design, &cfg, &mut hooks, flags.has("--guide"))?;
    let solution = &out.solution;

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
    obs_finish(flags)?;
    Ok(())
}

/// `dgr report`: render telemetry / trace / profile artifacts into one
/// deterministic, self-contained HTML post-mortem, each file read by the
/// reader beside its writer.
fn cmd_report(flags: &Flags) -> CliResult {
    if !["--telemetry", "--trace", "--profile"]
        .iter()
        .any(|f| flags.has(f))
    {
        return Err("report needs at least one of --telemetry / --trace / --profile".into());
    }
    let read = |flag: &str| flags.value(flag).map(std::fs::read_to_string).transpose();
    let inputs = ReportInputs {
        title: flags.value("--title").unwrap_or("routing run").to_string(),
        telemetry: read("--telemetry")?
            .map(|text| rows_from_jsonl(&text))
            .transpose()
            .map_err(|(line, e)| format!("telemetry: line {line}: {e}"))?,
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
/// file through the sentinel rule engine and prints ranked findings with
/// their evidence windows. Exits nonzero when anything trips, so CI can
/// gate on it.
fn cmd_doctor(flags: &Flags) -> CliResult {
    let path = flags
        .value("--telemetry")
        .ok_or("doctor needs --telemetry <in.jsonl>")?;
    let text = std::fs::read_to_string(path)?;
    let rows = rows_from_jsonl(&text).map_err(|(line, e)| format!("{path}: line {line}: {e}"))?;
    println!("doctor: {} telemetry row(s) from {path}", rows.len());
    let findings = dgr::obs::analyze_rows(&rows);

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

fn cmd_compare(flags: &Flags) -> CliResult {
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    obs_start(flags);
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
    obs_finish(flags)?;
    Ok(())
}
