//! The repo's benchmark: design text → route guide, through the `dgr`
//! command line and through the `dgrd` job server, measured from outside
//! the program; per-layer numbers from a separate traced run. See
//! `README.md` beside `Cargo.toml` and `BENCHMARK.json` at the repo root.

mod cli;
mod daemon;
mod gen;
mod host;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod validate;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Opts, Outcome};
use workloads::{Workload, ALL, DAEMON_CLIENTS, DAEMON_WORKERS};

const USAGE: &str = "usage: dgr-benchmark --dgr <path to dgr> [--workload <name>|all] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--out <dir>]

  --workload  congested_full_train | large_quick_route | high_degree_sparse |
              daemon_small_jobs | all (default: every workload, end to end then traced)
  --seed      seed of every generated input (default 1)
  --seconds   length of the timed phase of one run (default 20; 2 with --smoke)
  --trace     0 = end-to-end metrics, tracing off; 1 = per-layer metrics (default 0)
  --smoke     shrink every workload to under 2 s per operation
  --out       directory for inputs, guides, result and trace files (default .bench_out)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    dgr: PathBuf,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        dgr: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    ),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--dgr" => args.dgr = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.dgr.as_os_str().is_empty() {
        return Err("--dgr <path to the release dgr binary> is required".into());
    }
    Ok(args)
}

/// Host and binary facts every run prints first.
fn print_header(args: &Args) -> Result<(), String> {
    let size = std::fs::metadata(&args.dgr)
        .map_err(|e| format!("dgr binary {}: {e}", args.dgr.display()))?
        .len();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "dgr-benchmark  seed {}  nproc {nproc}  dgr {} ({size} bytes)",
        args.seed,
        args.dgr.display()
    );
    println!(
        "threads: CLI workloads run one `dgr route` at a time (its pool: {nproc} threads); \
daemon workload: {DAEMON_WORKERS} workers, {DAEMON_CLIENTS} closed-loop clients"
    );
    Ok(())
}

fn run_one(args: &Args, workload: Workload, trace: bool) -> Result<Outcome, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke { 2.0 } else { 20.0 });
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds,
        trace,
        smoke: args.smoke,
        dgr: args.dgr.clone(),
        dir: args.out.join(format!(
            "{}-seed{}-trace{}",
            workload.name(),
            args.seed,
            u8::from(trace)
        )),
    };
    let started = Instant::now();
    let out = run::run(&opts)?;
    println!();
    println!(
        "== {}  --trace {}  ({:.1} s timed phase asked, {:.1} s in all) ==",
        workload.name(),
        u8::from(trace),
        seconds,
        started.elapsed().as_secs_f64()
    );
    for line in &out.header {
        println!("{line}");
    }
    print!("{}", run::table(&out, trace));
    println!(
        "operations: {} attempted, {} failed{}",
        out.attempted,
        out.failed,
        if out.noisy { "  [noisy]" } else { "" }
    );
    for d in &out.defects {
        println!("DEFECT: {d}");
    }
    let file = opts.dir.join("result.json");
    std::fs::write(&file, run::result_file(&opts, &out))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("files: {}", opts.dir.display());
    Ok(out)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    print_header(&args)?;
    if let Some(workload) = args.workload {
        let out = run_one(&args, workload, args.trace)?;
        println!("{}", run::result_line(&out, args.trace));
        return Ok(out.correct());
    }

    // every workload, end to end and then traced, as one report
    let started = Instant::now();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for workload in ALL {
        for trace in [false, true] {
            let out = run_one(&args, workload, trace)?;
            attempted += out.attempted;
            failed += out.failed;
            correct &= out.correct();
            metrics.push(run::metrics_json(
                &out,
                trace,
                &format!("{}/", workload.name()),
            ));
        }
    }
    println!();
    println!(
        "whole benchmark: {:.1} s wall",
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: outputs were not all correct (see FAILED / DEFECT lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
