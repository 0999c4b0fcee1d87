//! `dgr` — command-line front end for the differentiable global router.
//!
//! ```text
//! dgr generate <case> [--out design.txt]        # emit a catalog design
//! dgr route <design.txt> [--iterations N] [--seed S]
//!          [--routes out.txt] [--guide out.guide]
//!          [--trace out.json] [--telemetry out.jsonl]
//!          [--snap out.snaps] [--snap-every N]
//!          [--serve ADDR] [--profile out.folded] [--no-ledger]
//!          [--progress N] [--quiet]
//! dgr train <design.txt> [--batch N] ...        # multi-seed run, best kept
//! dgr compare <design.txt> [--iterations N]     # DGR vs all baselines
//! dgr compare --ledger                          # last two ledger runs
//! dgr history [--limit N]                       # the persistent run ledger
//! dgr report [--telemetry in.jsonl] [--snap in.snaps] [--trace in.json]
//!            [--profile in.folded] [--title NAME] [--out report.html]
//! dgr serve-jobs <addr> [--workers N] [--queue-cap N] [--retain N]
//!            [--no-ledger]                  # dgrd: the routing job server
//! ```
//!
//! `--trace` turns on the `dgr-obs` span registry and writes a Chrome
//! trace-event file (load it at `chrome://tracing` or in Perfetto);
//! `--telemetry` streams one JSONL row per training iteration; `--snap`
//! streams per-g-cell congestion snapshots plus the per-net overflow
//! attribution. `--serve ADDR` exposes `/metrics` (Prometheus),
//! `/status` (JSON) and `/report` (HTML) over HTTP while the run is
//! live; `--profile` runs the sampling self-profiler and writes a
//! collapsed-stack (flamegraph-compatible) file. Every `route`/`train`
//! run also appends a content-hashed summary record to the persistent
//! ledger (`~/.dgr/ledger.jsonl`, override with `DGR_LEDGER`, disable
//! with `--no-ledger`) that `dgr history` and `dgr compare --ledger`
//! render into cross-run deltas. `dgr report` renders the file
//! artifacts into one self-contained HTML post-mortem.

use std::io::Write as _;
use std::process::ExitCode;

use dgr::baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr::core::{
    write_attribution, DgrConfig, DgrRouter, ProgressConfig, RouteHooks, SnapshotConfig,
};
use dgr::grid::Design;
use dgr::obs::ledger::{self, LedgerRecord};
use dgr::obs::{render_report, ObsServer, Profiler, ProfilerConfig, ReportInputs};
use dgr::obs::{SnapshotSink, TelemetrySink};
use dgr::post::{pipeline, refine, RefineConfig};

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

/// A subcommand: its name, whether it takes a positional argument (a
/// design file, a case name, an address), the flags it accepts, and its
/// implementation. In the flag list `--flag=` takes a value, `--flag?`
/// takes one if the next argument is not a flag itself, and a plain
/// `--flag` takes none.
type Command = (&'static str, bool, &'static str, fn(&Flags) -> CliResult);

/// Every subcommand and every flag: an argument that is not in its
/// command's row is an error, never ignored.
const COMMANDS: &[Command] = &[
    ("cases", false, "", cmd_cases),
    ("generate", true, "--out= --fast", cmd_generate),
    (
        "route",
        true,
        "--iterations= --seed= --routes= --guide= --trace= --telemetry= --snap= --snap-every= \
         --serve= --profile= --progress= --no-ledger --quiet",
        cmd_route,
    ),
    (
        "train",
        true,
        "--batch= --iterations= --seed= --routes= --trace= --telemetry= --snap= --snap-every= \
         --serve= --profile= --no-ledger --quiet",
        cmd_train,
    ),
    (
        "compare",
        true,
        "--iterations= --seed= --trace= --serve= --profile= --ledger?",
        cmd_compare,
    ),
    (
        "report",
        false,
        "--telemetry= --snap= --trace= --profile= --health= --title= --out=",
        cmd_report,
    ),
    ("doctor", false, "--telemetry= --ledger?", cmd_doctor),
    ("history", false, "--limit= --ledger=", cmd_history),
    (
        "serve-jobs",
        true,
        "--workers= --queue-cap= --retain= --no-ledger",
        cmd_serve_jobs,
    ),
];

/// One subcommand's arguments, checked against its row of [`COMMANDS`].
struct Flags<'a> {
    /// The lone positional argument, when given.
    positional: Option<&'a str>,
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(command: &Command, args: &'a [String]) -> Result<Self, String> {
        let &(cmd, takes_positional, accepted, _) = command;
        let mut flags = Flags {
            positional: None,
            given: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str).peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if !takes_positional || flags.positional.is_some() {
                    return Err(format!("unexpected argument `{arg}` for `dgr {cmd}`"));
                }
                flags.positional = Some(arg);
                continue;
            }
            let spec = accepted
                .split_whitespace()
                .find(|spec| spec.trim_end_matches(['=', '?']) == arg)
                .ok_or_else(|| format!("unknown flag `{arg}` for `dgr {cmd}` (try --help)"))?;
            // a spec longer than the flag ends in `=` or `?`: it takes the
            // next argument, unless that is a flag
            let value = rest.next_if(|next| spec != arg && !next.starts_with("--"));
            if spec.ends_with('=') && value.is_none() {
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
        Some(name) => match COMMANDS.iter().find(|(cmd, ..)| *cmd == name) {
            Some(command @ (.., run)) => Flags::parse(command, &args[1..])
                .map_err(Into::into)
                .and_then(|flags| run(&flags)),
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

fn print_usage() {
    println!("dgr — differentiable global router (DAC 2024 reproduction)");
    println!();
    println!("usage:");
    println!("  dgr cases");
    println!("      list the benchmark catalog");
    println!("  dgr generate <case> [--out design.txt] [--fast]");
    println!("      emit a named catalog design (e.g. ispd18_test1, ispd19_7m)");
    println!("  dgr route <design.txt> [--iterations N] [--seed S]");
    println!("            [--routes out.txt] [--guide out.guide]");
    println!("            [--trace out.json] [--telemetry out.jsonl]");
    println!("            [--snap out.snaps] [--snap-every N]");
    println!("            [--serve ADDR] [--profile out.folded] [--no-ledger]");
    println!("            [--progress N] [--quiet]");
    println!("      route a design and print metrics");
    println!("  dgr train <design.txt> [--batch N] [--iterations N] [--seed S]");
    println!("            [--routes out.txt] [--telemetry out.jsonl]");
    println!("            [--snap out.snaps] [--snap-every N] [--serve ADDR]");
    println!("            [--profile out.folded] [--no-ledger] [--quiet]");
    println!("      train N seeds over one shared forest, report each, extract the best");
    println!("  dgr compare <design.txt> [--iterations N] [--trace out.json]");
    println!("      route with DGR and every baseline, print a comparison table");
    println!("  dgr compare --ledger");
    println!("      diff the last two comparable ledger runs (per-phase deltas + trend)");
    println!("  dgr history [--limit N] [--ledger path]");
    println!("      render recent ledger records as a table with cross-run deltas");
    println!("  dgr report [--telemetry in.jsonl] [--snap in.snaps] [--trace in.json]");
    println!("             [--profile in.folded] [--health in.jsonl] [--title NAME]");
    println!("             [--out report.html]");
    println!("      render routing-run artifacts into a self-contained HTML post-mortem");
    println!("  dgr doctor [--telemetry in.jsonl] [--ledger [path]]");
    println!("      replay a run's telemetry (and/or the run ledger) through the");
    println!("      sentinel convergence rules; print ranked findings with evidence");
    println!("      windows, exit nonzero when any rule trips");
    println!("  dgr serve-jobs <addr> [--workers N] [--queue-cap N] [--retain N]");
    println!("             [--no-ledger]");
    println!("      run dgrd: a multi-tenant routing job server (POST /jobs, ");
    println!("      GET /jobs/:id[/report|/telemetry|/guide], DELETE /jobs/:id,");
    println!("      plus the /metrics /status /report observability routes)");
    println!();
    println!("observability:");
    println!("  --trace out.json      record phase spans, write a Chrome trace-event file");
    println!("  --telemetry out.jsonl stream one JSONL row per training iteration");
    println!("  --snap out.snaps      stream per-g-cell congestion snapshots + attribution");
    println!("  --snap-every N        training snapshot stride (default: iterations/16)");
    println!("  --serve ADDR          live HTTP exporter: /metrics /status /report");
    println!("  --profile out.folded  sampling self-profiler → collapsed stacks");
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
    let rss = dgr::obs::profile::read_rss_bytes().unwrap_or(0);
    dgr::obs::gauge("process.rss_bytes").set(rss as f64);
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
/// trace, the sampling self-profiler, and the HTTP exporter.
///
/// The span registry is enabled for every `route`/`train` run (the
/// persistent ledger needs per-phase totals either way); the end-of-run
/// summary tables only print when the user asked for observability
/// explicitly, so plain runs keep their original output.
struct ObsSession {
    trace: Option<String>,
    profile: Option<String>,
    profiler: Option<Profiler>,
    /// Held for its lifetime only: dropping it stops the HTTP exporter.
    _server: Option<ObsServer>,
    show_summary: bool,
}

fn obs_session(
    flags: &Flags,
    job: &str,
    total_iters: u64,
    batch: u64,
) -> Result<ObsSession, Box<dyn std::error::Error>> {
    let trace = flags.value("--trace").map(str::to_string);
    let profile = flags.value("--profile").map(str::to_string);
    let serve = flags.value("--serve");
    let show_summary = trace.is_some() || profile.is_some() || serve.is_some();
    dgr::obs::reset();
    dgr::obs::set_enabled(true);
    // publish the run identity and seed the RSS gauge before the
    // listener comes up, so the very first /status and /metrics scrapes
    // are never empty
    dgr::obs::status_begin(job, total_iters, batch);
    let rss = dgr::obs::profile::read_rss_bytes().unwrap_or(0);
    dgr::obs::gauge("process.rss_bytes").set(rss as f64);
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
    let profiler = profile
        .is_some()
        .then(|| Profiler::start(ProfilerConfig::default()));
    Ok(ObsSession {
        trace,
        profile,
        profiler,
        _server: server,
        show_summary,
    })
}

/// Stops the profiler and server, writes the trace and folded profile
/// (if requested) and prints the end-of-run summary tables.
fn obs_finish(mut session: ObsSession) -> CliResult {
    if let Some(profiler) = session.profiler.take() {
        let profile = profiler.stop();
        if let Some(path) = session.profile.as_deref() {
            profile.write(path)?;
            let hottest = profile
                .hot_frames()
                .first()
                .map_or_else(|| "(idle)".to_string(), |(frame, _)| frame.clone());
            println!();
            println!(
                "profile → {path} ({} samples, {} busy, hottest frame: {hottest})",
                profile.samples,
                profile.busy_samples(),
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
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p95,
                    p99,
                    ..
                } => println!(
                    "{:<22} {:>16}  (mean {mean:.0}, p50 ≤ {p50}, p95 ≤ {p95}, p99 ≤ {p99})",
                    m.name, count
                ),
            }
        }
        let hits = dgr::obs::counter("rsmt.cache.hits").get();
        let misses = dgr::obs::counter("rsmt.cache.misses").get();
        if hits + misses > 0 {
            println!(
                "{:<22} {:>15.1}%  ({hits} hits / {misses} misses)",
                "rsmt cache hit rate",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }
    }
}

/// Appends the run's [`pipeline::ledger_record`] to the persistent
/// ledger (unless `--no-ledger`): labelled with the design file's stem,
/// its phases the span totals. Best effort by contract: a failed append
/// only suppresses the confirmation line.
fn append_run(
    flags: &Flags,
    cmd: &str,
    design: &Design,
    cfg: &DgrConfig,
    outcome: &pipeline::Outcome,
    batch: u64,
) {
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
    let mut record = pipeline::ledger_record(cmd, &label, design, cfg, outcome, phases);
    record.batch = batch;
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
        let mut progress = ProgressConfig::default();
        if let Some(v) = flags.parsed("--progress")? {
            progress.every = v;
        }
        hooks.progress = Some(progress);
    }
    Ok(hooks)
}

/// What the telemetry and snapshot sinks of a finished run took.
fn print_sinks(flags: &Flags, hooks: &mut RouteHooks) {
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
}

fn cmd_route(flags: &Flags) -> CliResult {
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    let session = obs_session(flags, "route", cfg.iterations as u64, 1)?;
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
        dgr::core::write_solution_snapshot(&mut snap.sink, &design, solution, final_iter, "refine");
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
    println!(
        "  refinement       : {} nets rerouted ({} → {} overflowed edges)",
        report.nets_rerouted, report.overflowed_before, report.overflowed_after
    );
    if !flags.has("--quiet") {
        println!(
            "  maze search      : {} searches, {} escalated to the full grid, {} certified in the window, {} states popped",
            report.searches,
            report.escalations,
            report.escalations_avoided,
            report.states_expanded
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
    print_sinks(flags, &mut hooks);
    append_run(flags, "route", &design, &cfg, &out, 1);
    obs_finish(session)?;
    Ok(())
}

/// `dgr train`: multi-seed training — `--batch N` trains seeds `seed`,
/// `seed+1`, … one after another over the router's own front end
/// ([`DgrRouter::candidates`], [`DgrRouter::forest`]), each exactly as
/// [`DgrRouter::route`] trains that seed; the best by final loss is
/// extracted into the reported (unrefined) solution.
fn cmd_train(flags: &Flags) -> CliResult {
    use dgr::core::{build_cost_model, extract_solution, train_with_hooks, CostModel};
    use rand::{rngs::StdRng, SeedableRng};

    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    cfg.validate()?;
    let batch: usize = flags.parsed("--batch")?.unwrap_or(1);
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let seeds: Vec<u64> = (0..batch as u64).map(|b| cfg.seed + b).collect();
    let session = obs_session(flags, "train", cfg.iterations as u64, batch as u64)?;

    // the sinks and the progress line of `dgr route`, handed to each seed
    let mut sinks = route_hooks(flags, cfg.iterations)?;

    let t0 = std::time::Instant::now();
    let router = DgrRouter::new(cfg.clone());
    let candidates = router.candidates(&design)?;
    let forest = router.forest(&design, &candidates)?;
    let mut reports = Vec::with_capacity(batch);
    // the model with the lowest final loss so far, and its seed's index
    let mut best: Option<(usize, CostModel)> = None;
    for (b, &seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let lane = (batch > 1).then_some(b as u64);
        reports.push(train_with_hooks(
            &mut model, &cfg, &mut rng, &design, &mut sinks, 0, lane,
        ));
        if best
            .as_ref()
            .is_none_or(|&(i, _)| reports[b].final_loss < reports[i].final_loss)
        {
            best = Some((b, model));
        }
    }
    let (best, mut model) = best.expect("--batch is at least 1");

    println!(
        "trained {} instance(s) of {} nets in {:.2?} ({} iterations each)",
        batch,
        design.num_nets(),
        t0.elapsed(),
        cfg.iterations
    );
    for (seed, report) in seeds.iter().zip(&reports) {
        println!(
            "  seed {:>4}  final loss {:>12.4}  final temperature {:.4}",
            seed, report.final_loss, report.final_temperature
        );
    }
    let solution = extract_solution(&design, &forest, &mut model, &cfg)?;
    let elapsed = t0.elapsed();
    let m = &solution.metrics;
    println!("best: seed {} (instance {best})", seeds[best]);
    println!("  wirelength       : {}", m.total_wirelength);
    println!("  turning points   : {}", m.total_turns);
    println!("  overflowed edges : {}", m.overflow.overflowed_edges);
    println!("  total overflow   : {:.2}", m.overflow.total_overflow);
    if let Some(path) = flags.value("--routes") {
        std::fs::write(path, solution.to_text())?;
        println!("  routes checkpoint → {path}");
    }
    print_sinks(flags, &mut sinks);
    // training alone: no post pass ran, so the ledger's vias are the turns
    let out = pipeline::Outcome {
        solution,
        post: pipeline::Finished::default(),
        final_loss: f64::from(reports[best].final_loss),
        route_time: elapsed,
        wall: elapsed,
        cache_hits: candidates.cache_hits,
        cache_misses: candidates.cache_misses,
    };
    append_run(flags, "train", &design, &cfg, &out, batch as u64);
    obs_finish(session)?;
    Ok(())
}

/// `dgr report`: render telemetry / snapshot / trace / profile
/// artifacts into one deterministic, self-contained HTML post-mortem.
fn cmd_report(flags: &Flags) -> CliResult {
    let read_opt = |flag: &str| -> Result<Option<String>, std::io::Error> {
        flags.value(flag).map(std::fs::read_to_string).transpose()
    };
    let inputs = ReportInputs {
        title: flags.value("--title").unwrap_or("routing run").to_string(),
        telemetry: read_opt("--telemetry")?,
        snapshots: read_opt("--snap")?,
        trace: read_opt("--trace")?,
        profile: read_opt("--profile")?,
        health: read_opt("--health")?,
    };
    if inputs.telemetry.is_none()
        && inputs.snapshots.is_none()
        && inputs.trace.is_none()
        && inputs.profile.is_none()
        && inputs.health.is_none()
    {
        return Err(
            "report needs at least one of --telemetry / --snap / --trace / --profile / --health"
                .into(),
        );
    }
    let html = render_report(&inputs)?;
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
        let rows = dgr::obs::rows_from_jsonl(&text)
            .map_err(|(line, e)| format!("{path}: line {line}: {e}"))?;
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
        "{:<16} {:<6} {:<16} {:>6} {:>6} {:>3} {:>9} {:>12} {:>9} {:>8}",
        "when", "cmd", "design", "iters", "nets", "b", "it/s", "loss", "wl", "ovf"
    );
    for r in &records[start..] {
        println!(
            "{:<16} {:<6} {:<16} {:>6} {:>6} {:>3} {:>9.1} {:>12.2} {:>9} {:>8.2}",
            fmt_ts(r.ts),
            r.cmd,
            r.design,
            r.iterations,
            r.nets,
            r.batch,
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
    // `compare --ledger`) falls through to the environment default.
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

/// `dgr compare --ledger`: per-phase deltas of the last two comparable
/// ledger runs plus a short regression trend over the trailing window.
fn cmd_compare_ledger(flags: &Flags) -> CliResult {
    let path = resolve_ledger_path(flags)?;
    let records = ledger::load(&path);
    let Some((prev, last)) = last_comparable_pair(&records) else {
        return Err(format!(
            "need two runs with the same config in {} ({} record(s) present) — run the same \
             `dgr route`/`dgr train` twice",
            path.display(),
            records.len()
        )
        .into());
    };
    println!(
        "comparing the last two `{}` runs of {} ({} nets):",
        last.cmd, last.design, last.nets
    );
    print_run_delta(prev, last);
    let window: Vec<&LedgerRecord> = records
        .iter()
        .filter(|r| r.config_fp == last.config_fp)
        .collect();
    let tail = &window[window.len().saturating_sub(8)..];
    if tail.len() > 2 {
        println!();
        println!(
            "trend over the last {} comparable runs (oldest first):",
            tail.len()
        );
        let series = |name: &str, values: Vec<f64>| {
            println!("  {:<10} {}  {}", name, spark(&values), fmt_series(&values));
        };
        series("loss", tail.iter().map(|r| r.loss).collect());
        series("it/s", tail.iter().map(|r| r.it_per_s).collect());
        series("wall ms", tail.iter().map(|r| r.wall_ms as f64).collect());
    }
    Ok(())
}

fn spark(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn fmt_series(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn cmd_compare(flags: &Flags) -> CliResult {
    if flags.has("--ledger") {
        return cmd_compare_ledger(flags);
    }
    let design = load_design(flags)?;
    let cfg = config_from(flags)?;
    let session = obs_session(flags, "compare", cfg.iterations as u64, 1)?;
    println!(
        "{:<12} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "router", "wirelength", "turns", "ovf edges", "ovf total", "t(s)"
    );
    let run = |name: &str,
               solve: &mut dyn FnMut() -> Result<
        dgr::core::RoutingSolution,
        Box<dyn std::error::Error>,
    >|
     -> Result<dgr::core::RoutingSolution, Box<dyn std::error::Error>> {
        let t0 = std::time::Instant::now();
        let mut sol = solve()?;
        refine(&design, &mut sol, RefineConfig::default())?;
        let t = t0.elapsed().as_secs_f64();
        let m = &sol.metrics;
        println!(
            "{:<12} {:>10} {:>8} {:>10} {:>10.2} {:>8.2}",
            name,
            m.total_wirelength,
            m.total_turns,
            m.overflow.overflowed_edges,
            m.overflow.total_overflow,
            t
        );
        Ok(sol)
    };
    let dgr_sol = run("dgr", &mut || {
        Ok(DgrRouter::new(cfg.clone()).route(&design)?)
    })?;
    run("sequential", &mut || {
        Ok(SequentialRouter::default().route(&design)?)
    })?;
    run("sproute", &mut || {
        Ok(SprouteRouter::default().route(&design)?)
    })?;
    run("lagrangian", &mut || {
        Ok(LagrangianRouter::default().route(&design)?)
    })?;
    // The retained curve (TrainReport::curve) shows how the DGR loss moved
    // without re-running or re-deriving anything.
    if let Some(report) = &dgr_sol.train_report {
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
