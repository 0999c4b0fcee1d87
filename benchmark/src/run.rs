//! One run of one workload: set-up, the timed phase, the checks, and —
//! with `--trace 1` — the traced run that attributes the time to layers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cli::{route_once, CliJob, CliOp};
use crate::daemon::{self, Daemon, JobRecord, JobSet};
use crate::gen::{self, GeneratedDesign};
use crate::host;
use crate::layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, ms, percentile, quartiles, spread};
use crate::trace::Recorder;
use crate::validate::validate_guide;
use crate::workloads::{Workload, BURST_JOBS, DAEMON_CLIENTS, DAEMON_DESIGNS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `trace.closure` below this fails a traced run.
const MIN_CLOSURE: f64 = 0.95;
/// Rounds of the observability-tax comparison; each configuration's
/// fastest round counts, since every round does the same work.
const TAX_ROUNDS: usize = 2;

/// A traced run does not report `setup_s`, so it sets up once.
fn setups_of(opts: &Opts) -> usize {
    if opts.trace {
        1
    } else {
        SETUPS
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub dgr: PathBuf,
    /// Directory for this run's inputs, outputs and result files.
    pub dir: PathBuf,
}

/// Named samples; the reported value of a name is the median of its
/// samples (a value measured once per run is pushed once).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// The outcome of a run: what the last stdout line carries, plus what the
/// table and the result file add.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Defects other than failed operations: a cost that did not repeat,
    /// a traced run that did not close.
    pub defects: Vec<String>,
    pub samples: Samples,
    pub noisy: bool,
    pub header: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.defects.is_empty()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Runs `opts.workload` once and returns its outcome; `Err` is a failure
/// of the benchmark itself (no binary, no daemon, warm-up failed).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    fresh_dir(&opts.dir)?;
    let steal_before = host::cpu_ticks();
    let mut out = Outcome::default();
    if opts.workload.is_daemon() {
        run_daemon(opts, &mut out)?;
    } else {
        run_cli(opts, &mut out)?;
    }
    let steal = host::steal_share(steal_before);
    let calib_spread = spread(out.samples.get("host.calib_ms"));
    out.samples.push("host.steal_share", steal);
    out.samples.push("host.calib_spread", calib_spread);
    out.noisy = calib_spread > 0.10 || steal > 0.05;
    out.header.push(format!(
        "host: calib {:.2} ms (quartile spread {:.1} %), steal {:.2} % of CPU time{}",
        out.samples.median("host.calib_ms"),
        calib_spread * 100.0,
        steal * 100.0,
        if out.noisy {
            "  — NOISY: do not compare this run"
        } else {
            ""
        }
    ));
    Ok(out)
}

// ---------------------------------------------------------------- CLI ----

fn cli_job<'a>(opts: &'a Opts, design: &'a GeneratedDesign) -> CliJob<'a> {
    CliJob {
        dgr: &opts.dgr,
        design,
        design_path: opts.dir.join("design.txt"),
        guide_path: opts.dir.join("out.guide"),
        ledger_path: opts.dir.join("ledger.jsonl"),
        iterations: opts.workload.iterations(opts.smoke),
    }
}

/// Generates and writes the workload's design and runs the one discarded
/// warm-up operation; returns the design and the seconds all of it took.
fn cli_setup(opts: &Opts) -> Result<(GeneratedDesign, f64), String> {
    let t = Instant::now();
    let design = gen::generate(&opts.workload.shape(opts.smoke), opts.seed);
    let job = cli_job(opts, &design);
    std::fs::write(&job.design_path, &design.text).map_err(|e| format!("write design: {e}"))?;
    let warm = route_once(&job);
    let secs = t.elapsed().as_secs_f64();
    warm.outcome
        .map_err(|e| format!("warm-up operation failed: {e}"))?;
    Ok((design, secs))
}

/// Runs CLI operations, a calibration spin before each, until `seconds`
/// have passed (at least `min_ops`).
fn cli_ops(job: &CliJob<'_>, seconds: f64, min_ops: usize, samples: &mut Samples) -> Vec<CliOp> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        samples.push("host.calib_ms", host::calib_ms());
        ops.push(route_once(job));
    }
    ops
}

/// Folds operations into the outcome: failures, the repeat-exactly check
/// on `cost_score`, and the valid operations' latencies in ms.
fn account_cli(ops: &[CliOp], out: &mut Outcome) -> (Vec<f64>, f64) {
    let mut latencies = Vec::new();
    let mut costs: Vec<f64> = Vec::new();
    for op in ops {
        out.attempted += 1;
        match &op.outcome {
            Ok(cost) => {
                latencies.push(op.wall_s * 1e3);
                costs.push(*cost);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("FAILED operation: {e}");
            }
        }
    }
    if costs.windows(2).any(|w| w[0] != w[1]) {
        out.defects.push(format!(
            "cost_score differs between repetitions of one input: {costs:?}"
        ));
    }
    (latencies, costs.first().copied().unwrap_or(0.0))
}

fn run_cli(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut design = None;
    for _ in 0..setups_of(opts) {
        let (d, secs) = cli_setup(opts)?;
        setups.push(secs);
        design = Some(d);
    }
    let design = design.expect("SETUPS > 0");
    out.header.push(format!("design: {}", design.describe()));
    let job = cli_job(opts, &design);

    if !opts.trace {
        let ops = cli_ops(&job, opts.seconds, 1, &mut out.samples);
        let (lat, cost) = account_cli(&ops, out);
        let s = &mut out.samples;
        setups.iter().for_each(|&t| s.push("setup_s", t));
        lat.iter().for_each(|&l| s.push("latency_ms", l));
        s.push("guide_latency_p25_ms", percentile(&lat, 25.0));
        s.push("cost_score", cost);
        ops.iter()
            .for_each(|o| s.push("peak_rss_mb", o.peak_rss_mb));
        return Ok(());
    }

    // traced run: a few untraced CLI operations for the wall time the
    // layer sum is compared with, then the in-process repetitions
    let ops = cli_ops(&job, opts.seconds / 4.0, 2, &mut out.samples);
    let (lat, cli_cost) = account_cli(&ops, out);
    let route_wall_ms = median(&lat);
    for op in &ops {
        out.samples.push("proc.cpu_s", op.cpu_s);
        out.samples.push(
            "proc.cpu_over_wall",
            op.cpu_s / op.wall_s.max(f64::MIN_POSITIVE),
        );
    }
    let mut rec = Recorder::new(Instant::now());
    traced_layers(
        opts,
        &design,
        opts.seconds / 2.0,
        &mut rec,
        0,
        out,
        Some(cli_cost),
    )?;
    let traced_ms = out.samples.median("trace.traced_total_ms");
    out.samples
        .push("cli.overhead_ms", route_wall_ms - traced_ms);
    out.samples.push(
        "trace.overhead_ratio",
        traced_ms / route_wall_ms.max(f64::MIN_POSITIVE),
    );
    shape_check(opts, out);
    write_trace(opts, &rec)
}

// ------------------------------------------------------- traced layers ----

/// Runs the route pipeline in-process on `design`, a span around every
/// layer call, for `seconds` (at least once); then the kernel timings, the
/// observability tax and the memory-bandwidth ceiling. Every guide is
/// checked, and its cost compared with `expect_cost` (what the program
/// under test reported for the same input). Repetition `k` is trace
/// `first_trace + k`.
fn traced_layers(
    opts: &Opts,
    design: &GeneratedDesign,
    seconds: f64,
    rec: &mut Recorder,
    first_trace: u32,
    out: &mut Outcome,
    expect_cost: Option<f64>,
) -> Result<(), String> {
    let cfg = layers::config(opts.workload.iterations(opts.smoke));
    let design_path = opts.dir.join("design.txt");
    std::fs::write(&design_path, &design.text).map_err(|e| format!("write design: {e}"))?;
    let guide_path = opts.dir.join("traced.guide");
    let start = Instant::now();
    let mut rep = 0u32;
    let mut kept_forest = None;
    while rep == 0 || start.elapsed().as_secs_f64() < seconds {
        rec.set_trace(first_trace + rep);
        rep += 1;
        let s = &mut out.samples;
        let root = rec.enter("route");

        let sp = rec.enter("io.read");
        let text = std::fs::read_to_string(&design_path).map_err(|e| e.to_string())?;
        rec.exit(sp);
        let sp = rec.enter("io.parse");
        let parsed = layers::parse(&text);
        let i = rec.exit(sp);
        s.push("io.parse_ms", rec.spans()[i].dur_ms());
        s.push("io.design_bytes", text.len() as f64);
        layers::obs_begin(&cfg);

        let sp = rec.enter("rsmt.candidates");
        let pools = layers::candidates(&parsed, &cfg);
        let i = rec.exit(sp);
        s.push("rsmt.candidates_ms", rec.spans()[i].dur_ms());
        let trees: usize = pools.trees.iter().map(Vec::len).sum();
        s.push(
            "rsmt.trees_per_net",
            trees as f64 / parsed.nets.len().max(1) as f64,
        );
        s.push("rsmt.exact_nets", layers::exact_nets(&parsed) as f64);
        let lookups = pools.cache_hits + pools.cache_misses;
        s.push("rsmt.cache_lookups", lookups as f64);
        s.push(
            "rsmt.cache_hit_ratio",
            pools.cache_hits as f64 / (lookups.max(1)) as f64,
        );

        let sp = rec.enter("dag.forest");
        let forest = layers::forest(&parsed, &pools, &cfg);
        let i = rec.exit(sp);
        s.push("dag.forest_ms", rec.spans()[i].dur_ms());
        s.push("dag.trees", forest.num_trees() as f64);
        s.push("dag.subnets", forest.num_subnets() as f64);
        s.push("dag.paths", forest.num_paths() as f64);
        s.push("dag.path_edges", forest.path_edge_csr().1.len() as f64);

        let mut rng = layers::rng(&cfg);
        let sp = rec.enter("core.relax");
        let mut model = layers::relax(&parsed, &forest, &cfg, &mut rng);
        let i = rec.exit(sp);
        s.push("core.relax_ms", rec.spans()[i].dur_ms());

        let sp = rec.enter("core.train");
        let report = layers::train(&mut model, &cfg, &mut rng);
        let train = rec.exit(sp);
        let train_start = rec.spans()[train].start_ns;
        let (fwd, bwd) = (report.forward_time, report.backward_time);
        let fwd_i = rec.interval(
            "autodiff.forward",
            train_start,
            train_start + fwd.as_nanos() as u64,
            Some(train),
        );
        let fwd_end = rec.spans()[fwd_i].end_ns;
        rec.interval(
            "autodiff.backward",
            fwd_end,
            fwd_end + bwd.as_nanos() as u64,
            Some(train),
        );
        let iters = report.iterations.max(1) as f64;
        let train_ms = rec.spans()[train].dur_ms();
        s.push("core.train_ms", train_ms);
        s.push("core.iters_per_s", iters / (train_ms / 1e3));
        s.push(
            "core.train_other_ms_per_iter",
            (ms(report.duration) - ms(fwd) - ms(bwd)) / iters,
        );
        s.push("core.final_loss", f64::from(report.final_loss));
        s.push("autodiff.forward_ms_per_iter", ms(fwd) / iters);
        s.push("autodiff.backward_ms_per_iter", ms(bwd) / iters);
        s.push("autodiff.arena_mb", report.graph_bytes as f64 / 1e6);
        // computed, not measured: one pass over the arena forward, one back
        s.push(
            "autodiff.iter_gbps_computed",
            2.0 * report.graph_bytes as f64 * iters / (fwd + bwd).as_secs_f64().max(1e-9) / 1e9,
        );

        let sp = rec.enter("core.extract");
        let mut solution = layers::extract(&parsed, &forest, &mut model, &cfg);
        let i = rec.exit(sp);
        s.push("core.extract_ms", rec.spans()[i].dur_ms());
        s.push(
            "core.overflow_edges_extracted",
            solution.metrics.overflow.overflowed_edges as f64,
        );
        drop(model);

        let sp = rec.enter("post.refine");
        let refined = layers::refine(&parsed, &mut solution);
        let i = rec.exit(sp);
        s.push("post.refine_ms", rec.spans()[i].dur_ms());
        s.push("post.nets_rerouted", refined.nets_rerouted as f64);
        s.push(
            "post.overflow_edges_before",
            refined.overflowed_before as f64,
        );
        s.push("post.overflow_edges_after", refined.overflowed_after as f64);

        let sp = rec.enter("post.assign");
        let assigned = layers::assign(&parsed, &solution);
        let i = rec.exit(sp);
        s.push("post.assign_ms", rec.spans()[i].dur_ms());
        s.push("post.vias", assigned.total_vias as f64);
        s.push("post.overflow_edges_3d", assigned.overflowed_edges3d as f64);

        let sp = rec.enter("post.guide");
        let (boxes, guide_text) = layers::guide(&parsed, &assigned);
        let i = rec.exit(sp);
        s.push("post.guide_ms", rec.spans()[i].dur_ms());
        s.push("post.guide_boxes", boxes as f64);
        s.push("post.guide_bytes", guide_text.len() as f64);
        let sp = rec.enter("io.write_guide");
        std::fs::write(&guide_path, &guide_text).map_err(|e| e.to_string())?;
        rec.exit(sp);

        let root = rec.exit(root);
        let total = rec.spans()[root].dur_ms();
        s.push("trace.traced_total_ms", total);
        s.push("trace.closure", rec.closure(root));
        s.push("trace.unattributed_ms", rec.self_ns(root) as f64 / 1e6);

        // the traced pipeline must be the program's pipeline: a valid
        // guide, and the cost the CLI printed for the same input
        out.attempted += 1;
        let m = &solution.metrics;
        let cost = crate::cli::cost_score(
            m.total_wirelength as f64,
            assigned.total_vias as f64,
            // the CLI prints the overflow with two decimals
            format!("{:.2}", m.overflow.total_overflow)
                .parse()
                .expect("formatted float parses"),
        );
        if let Err(e) = validate_guide(design, &guide_text) {
            out.failed += 1;
            eprintln!("FAILED traced repetition: {e}");
        } else if expect_cost.is_some_and(|c| c != cost) {
            out.defects.push(format!(
                "traced pipeline cost {cost} differs from the program's {expect_cost:?}: layers.rs no longer mirrors `dgr route`"
            ));
        }
        kept_forest = Some((forest, parsed.grid.num_edges()));
    }
    let closure = out.samples.median("trace.closure");
    if closure < MIN_CLOSURE {
        out.defects.push(format!(
            "trace does not close: spans cover {:.1} % of the traced route, {:.2} ms unattributed",
            closure * 100.0,
            out.samples.median("trace.unattributed_ms")
        ));
    }

    let (forest, num_edges) = kept_forest.expect("at least one repetition");
    let k = layers::kernel_times(&forest, num_edges, Duration::from_millis(40));
    let s = &mut out.samples;
    s.push("autodiff.seg_softmax_fwd_ns_per_elem", k.seg_softmax_fwd);
    s.push("autodiff.seg_softmax_bwd_ns_per_elem", k.seg_softmax_bwd);
    s.push("autodiff.gather_ns_per_elem", k.gather);
    s.push("autodiff.scatter_add_ns_per_elem", k.scatter_add);
    drop(forest);

    // observability tax: whole routes with the span registry off / on /
    // on with the telemetry sink dgrd attaches
    let parsed = layers::parse(&design.text);
    let mut best = [f64::INFINITY; 3];
    for _ in 0..TAX_ROUNDS {
        for (slot, (spans, telemetry)) in [(false, false), (true, false), (true, true)]
            .into_iter()
            .enumerate()
        {
            let t = layers::route_whole(&parsed, &cfg, spans, telemetry).as_secs_f64();
            best[slot] = best[slot].min(t);
        }
    }
    s.push("obs.spans_tax_ratio", best[1] / best[0]);
    s.push("obs.telemetry_tax_ratio", best[2] / best[1]);

    let (gbps, array_bytes, llc) = host::stream_triad();
    s.push("host.stream_gbps", gbps);
    out.header.push(format!(
        "host: triad {gbps:.2} GB/s over {} MiB of arrays (largest cache {} MiB)",
        array_bytes >> 20,
        llc >> 20
    ));
    Ok(())
}

/// The share of the traced total that the named layer took.
fn share(out: &Outcome, name: &str) -> f64 {
    out.samples.median(name)
        / out
            .samples
            .median("trace.traced_total_ms")
            .max(f64::MIN_POSITIVE)
}

/// Whether the workload still stresses the layer it was built to stress;
/// `trace.shape_ok` is 1 when it does (0 with `--smoke`, where it is not
/// checked).
fn shape_check(opts: &Opts, out: &mut Outcome) {
    if opts.smoke {
        // the shrunken shapes have other shares; nothing to hold them to
        out.samples.push("trace.shape_ok", 0.0);
        out.header.push("shape: not checked with --smoke".into());
        return;
    }
    let workload = opts.workload;
    let (ok, what) = match workload {
        Workload::CongestedFullTrain => {
            let t = share(out, "core.train_ms");
            (
                t >= 0.85,
                format!(
                    "core.train {:.1} % of traced total (band ≥ 85 %)",
                    t * 100.0
                ),
            )
        }
        Workload::LargeQuickRoute => {
            let (r, t) = (share(out, "post.refine_ms"), share(out, "core.train_ms"));
            (
                r >= 0.40 && t <= 0.30,
                format!(
                    "post.refine {:.1} % (band ≥ 40 %), core.train {:.1} % (band ≤ 30 %)",
                    r * 100.0,
                    t * 100.0
                ),
            )
        }
        Workload::HighDegreeSparse => {
            let (c, r) = (
                share(out, "rsmt.candidates_ms"),
                share(out, "post.refine_ms"),
            );
            (
                c >= 0.30 && r <= 0.02,
                format!(
                    "rsmt.candidates {:.1} % (band ≥ 30 %), post.refine {:.1} % (band ≤ 2 %)",
                    c * 100.0,
                    r * 100.0
                ),
            )
        }
        Workload::DaemonSmallJobs => {
            let r = out.samples.median("daemon.run_ms")
                / out.samples.median("latency_ms").max(f64::MIN_POSITIVE);
            (
                (0.60..=0.90).contains(&r),
                format!(
                    "daemon.run {:.1} % of job latency p50 (band 60–90 %)",
                    r * 100.0
                ),
            )
        }
    };
    out.samples.push("trace.shape_ok", f64::from(u8::from(ok)));
    out.header.push(format!(
        "shape: {} — {what}",
        if ok { "ok" } else { "OUT OF BAND" }
    ));
}

fn write_trace(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let path = opts.dir.join("trace.json");
    std::fs::write(&path, rec.chrome_trace()).map_err(|e| format!("write {}: {e}", path.display()))
}

// -------------------------------------------------------------- daemon ----

/// Generates the job designs, starts `dgrd`, and runs the warm-up jobs;
/// returns everything plus the seconds it took.
fn daemon_setup(opts: &Opts) -> Result<(Vec<GeneratedDesign>, Vec<String>, Daemon, f64), String> {
    let t = Instant::now();
    let shape = opts.workload.shape(opts.smoke);
    let iterations = opts.workload.iterations(opts.smoke);
    let designs: Vec<GeneratedDesign> = (0..DAEMON_DESIGNS as u64)
        .map(|i| gen::generate(&shape, gen::derive_seed(opts.seed, i)))
        .collect();
    let specs: Vec<String> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| daemon::job_spec(d, iterations, &format!("w4-{i}")))
        .collect();
    let dgrd = Daemon::spawn(&opts.dgr, &opts.dir)?;
    let warmup = opts.workload.warmup_jobs(opts.smoke);
    let set = JobSet {
        addr: dgrd.addr,
        designs: &designs,
        specs: &specs,
        epoch: Instant::now(),
        epoch_unix_ms: daemon::unix_ms_now(),
    };
    let (jobs, _) = set.closed_loop(DAEMON_CLIENTS, 0, &|n| n >= warmup);
    let secs = t.elapsed().as_secs_f64();
    if let Some(e) = jobs.iter().find_map(|j| j.error.as_ref()) {
        return Err(format!("warm-up job failed: {e}"));
    }
    Ok((designs, specs, dgrd, secs))
}

fn run_daemon(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if DAEMON_CLIENTS > threads {
        return Err(format!(
            "{DAEMON_CLIENTS} client threads on a host with {threads} CPU(s): the load generator would compete with itself"
        ));
    }
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..setups_of(opts) {
        drop(last.take()); // stop the previous daemon before the next starts
        let (designs, specs, dgrd, secs) = daemon_setup(opts)?;
        setups.push(secs);
        last = Some((designs, specs, dgrd));
    }
    let (designs, specs, dgrd) = last.expect("SETUPS > 0");
    for (i, d) in designs.iter().enumerate() {
        out.header.push(format!("design {i:>2}: {}", d.describe()));
    }
    let epoch = Instant::now();
    let set = JobSet {
        addr: dgrd.addr,
        designs: &designs,
        specs: &specs,
        epoch,
        epoch_unix_ms: daemon::unix_ms_now(),
    };

    out.samples.push("host.calib_ms", host::calib_ms());
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let cpu_before = host::process_cpu_s(dgrd.pid()).unwrap_or(0.0);
    let timed = Instant::now();
    let (jobs, rec) = set.closed_loop(DAEMON_CLIENTS, 0, &|_| {
        timed.elapsed().as_secs_f64() >= seconds
    });
    let elapsed = timed.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s(dgrd.pid()).unwrap_or(0.0) - cpu_before;
    out.samples.push("host.calib_ms", host::calib_ms());

    let valid: Vec<&JobRecord> = jobs.iter().filter(|j| j.error.is_none()).collect();
    out.attempted += jobs.len() as u64;
    out.failed += (jobs.len() - valid.len()) as u64;
    for e in jobs.iter().filter_map(|j| j.error.as_ref()) {
        eprintln!("FAILED job: {e}");
    }
    // every design must cost the same each time it is routed
    let mut design_cost = vec![None; designs.len()];
    for j in &valid {
        match design_cost[j.design] {
            None => design_cost[j.design] = Some(j.server.cost),
            Some(c) if c != j.server.cost => out.defects.push(format!(
                "cost_score of design {} differs between jobs: {c} vs {}",
                j.design, j.server.cost
            )),
            Some(_) => {}
        }
    }
    let costs: Vec<f64> = design_cost.iter().flatten().copied().collect();
    let lat: Vec<f64> = valid.iter().map(|j| j.latency_ms).collect();
    let s = &mut out.samples;
    lat.iter().for_each(|&l| s.push("latency_ms", l));

    if !opts.trace {
        setups.iter().for_each(|&t| s.push("setup_s", t));
        s.push("guide_latency_p25_ms", percentile(&lat, 25.0));
        s.push("cost_score", mean(&costs));
        s.push("peak_rss_mb", host::vm_hwm_mb(dgrd.pid()).unwrap_or(0.0));
        return Ok(());
    }

    let of = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> { valid.iter().map(|j| f(j)).collect() };
    // Medians, like the latency they are compared with — except for the
    // two server intervals that are mostly 0 or 1 whole millisecond, whose
    // median would say nothing.
    let submit = median(&of(&|j| j.submit_ms));
    let queue_wait = mean(&of(&|j| j.server.queue_wait_ms));
    let run = median(&of(&|j| j.server.run_ms));
    let guide_fetch = median(&of(&|j| j.guide_fetch_ms));
    let client_gap = median(&of(&|j| j.client_gap_ms()));
    s.push("daemon.latency_p50_ms", median(&lat));
    s.push("daemon.latency_p95_ms", percentile(&lat, 95.0));
    s.push("daemon.jobs_per_s", valid.len() as f64 / elapsed);
    s.push("daemon.submit_ms", submit);
    s.push("daemon.queue_wait_ms", queue_wait);
    s.push("daemon.run_ms", run);
    s.push(
        "daemon.materialize_ms",
        mean(&of(&|j| j.server.run_ms - j.server.pipeline_ms)),
    );
    s.push("daemon.pipeline_ms", median(&of(&|j| j.server.pipeline_ms)));
    s.push("daemon.train_ms", median(&of(&|j| j.server.train_ms)));
    s.push("daemon.refine_ms", median(&of(&|j| j.server.refine_ms)));
    s.push("daemon.assign_ms", median(&of(&|j| j.server.assign_ms)));
    let polls: Vec<f64> = valid
        .iter()
        .flat_map(|j| j.poll_rtts_ms.iter().copied())
        .collect();
    s.push("daemon.poll_rtt_ms", median(&polls));
    s.push(
        "daemon.polls_per_job",
        mean(&of(&|j| j.poll_rtts_ms.len() as f64)),
    );
    s.push("daemon.guide_fetch_ms", guide_fetch);
    s.push("daemon.client_gap_ms", client_gap);
    s.push(
        "daemon.rejected_429",
        jobs.iter().map(|j| j.rejected_429).sum::<usize>() as f64,
    );
    // the parts, each at its own centre, against the whole at its median:
    // 1.0 when the decomposition explains the latency
    s.push(
        "daemon.latency_identity_ratio",
        (submit + queue_wait + run + client_gap + guide_fetch)
            / median(&lat).max(f64::MIN_POSITIVE),
    );
    s.push("proc.cpu_s", cpu_s);
    s.push("proc.cpu_over_wall", cpu_s / elapsed);

    match set.burst(BURST_JOBS) {
        Ok((waits, makespan)) => {
            s.push("daemon.burst_queue_wait_p50_ms", median(&waits));
            s.push("daemon.burst_makespan_ms", makespan);
        }
        Err(e) => out.defects.push(format!("burst segment: {e}")),
    }
    match daemon::request(dgrd.addr, "GET", "/metrics", "") {
        Ok(resp) => {
            let sample = |name| daemon::prometheus_sample(&resp.body, name).unwrap_or(0.0);
            let (seq, par) = (
                sample("dgr_pool_seq_fallbacks"),
                sample("dgr_pool_jobs_dispatched"),
            );
            s.push("daemon.pool_seq_fallback_share", seq / (seq + par).max(1.0));
        }
        Err(e) => out.defects.push(format!("GET /metrics: {e}")),
    }
    drop(dgrd);

    // the layers behind a job, traced in-process on the first job design
    let mut rec = rec;
    let first_trace = jobs.len() as u32;
    traced_layers(
        opts,
        &designs[0],
        opts.seconds / 4.0,
        &mut rec,
        first_trace,
        out,
        design_cost[0],
    )?;
    let traced_ms = out.samples.median("trace.traced_total_ms");
    let pipeline_ms = out.samples.median("daemon.pipeline_ms");
    out.samples.push(
        "trace.overhead_ratio",
        traced_ms / pipeline_ms.max(f64::MIN_POSITIVE),
    );
    shape_check(opts, out);
    write_trace(opts, &rec)
}

// -------------------------------------------------------------- output ----

/// The metrics this run reports: every end-to-end one with `--trace 0`,
/// every per-layer one with `--trace 1`.
pub fn reported(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The members of the `metrics` object: `"<prefix><name>": {value, unit}`
/// for every reported metric.
pub fn metrics_json(out: &Outcome, trace: bool, prefix: &str) -> String {
    reported(trace)
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(out.samples.median(m.name)),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The one JSON object the contract wants as the last stdout line.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(out, trace, "")
    )
}

/// The table: every reported metric by name with its unit; for metrics
/// with several samples also quartiles, minimum and sample count.
pub fn table(out: &Outcome, trace: bool) -> String {
    use std::fmt::Write as _;
    let mut t = String::new();
    writeln!(
        t,
        "{:<38} {:>14} {:<8} {:>12} {:>12} {:>12} {:>5}",
        "metric", "value", "unit", "q1", "q3", "min", "n"
    )
    .expect("write to String");
    let mut row = |label: &str, name: &str, unit: &str| {
        let v = out.samples.get(name);
        let (q1, q3) = quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        writeln!(
            t,
            "{:<38} {:>14.4} {:<8} {:>12.4} {:>12.4} {:>12.4} {:>5}",
            label,
            median(v),
            unit,
            q1,
            q3,
            if v.is_empty() { 0.0 } else { min },
            v.len()
        )
        .expect("write to String");
    };
    for m in reported(trace) {
        row(m.name, m.name, m.unit);
    }
    if !out.samples.get("latency_ms").is_empty() {
        row("(latency of every valid operation)", "latency_ms", "ms");
    }
    t
}

/// The result file: the contract's line plus what explains it.
pub fn result_file(opts: &Opts, out: &Outcome) -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let list = |v: &[String]| v.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let samples: Vec<String> = reported(opts.trace)
        .iter()
        .map(|m| {
            let v = out.samples.get(m.name);
            let (q1, q3) = quartiles(v);
            format!(
                "    {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quote(m.name),
                json_number(median(v)),
                json_number(q1),
                json_number(q3),
                v.len()
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"noisy\": {},\n  \"header\": [{}],\n  \"defects\": [{}],\n  \"result\": {},\n  \"latencies_ms\": [{}],\n  \"samples\": {{\n{}\n  }}\n}}\n",
        quote(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        out.noisy,
        list(&out.header),
        list(&out.defects),
        result_line(out, opts.trace),
        out.samples
            .get("latency_ms")
            .iter()
            .map(|&l| json_number(l))
            .collect::<Vec<_>>()
            .join(", "),
        samples.join(",\n")
    )
}
