#![forbid(unsafe_code)]

//! Seeded differential fuzz driver.
//!
//! Runs N cases of each of the five oracle cross-checks, shrinks every
//! failure to a minimal reproducer, dumps reproducers as JSON under
//! `--dump-dir` (default `tests/fuzz_cases`), and exits non-zero if any
//! mismatch was found.
//!
//! ```text
//! cargo run --release --bin oracle_fuzz -- --cases 200 --seed 42
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dgr_oracle::FuzzConfig;

fn usage() -> ! {
    eprintln!(
        "usage: oracle_fuzz [--cases N] [--seed S] [--dump-dir DIR] [--no-dump]\n\
         \n\
         Runs N seeded cases per differential check (default 200, seed 42).\n\
         Shrunk reproducers for any mismatch are written to DIR\n\
         (default tests/fuzz_cases) unless --no-dump is given."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = FuzzConfig {
        dump_dir: Some(PathBuf::from("tests/fuzz_cases")),
        ..FuzzConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--cases" => {
                cfg.cases = value("--cases").parse().unwrap_or_else(|e| {
                    eprintln!("--cases: {e}");
                    usage()
                })
            }
            "--seed" => {
                cfg.seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    usage()
                })
            }
            "--dump-dir" => cfg.dump_dir = Some(PathBuf::from(value("--dump-dir"))),
            "--no-dump" => cfg.dump_dir = None,
            _ => usage(),
        }
    }

    let start = std::time::Instant::now();
    eprintln!("oracle_fuzz: {} cases/check, seed {}", cfg.cases, cfg.seed);
    let report = dgr_oracle::run_fuzz(&cfg, |line| eprintln!("{line}"));
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "grad_check reach: {} of {} cases hold a net of two or more trees",
        report.multi_tree_cases, cfg.cases
    );

    if report.failures.is_empty() {
        println!(
            "oracle_fuzz: OK — {} cases, 0 mismatches ({elapsed:.2}s)",
            report.total_cases()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "oracle_fuzz: FAIL — {} mismatches in {} cases ({elapsed:.2}s)",
            report.failures.len(),
            report.total_cases()
        );
        for f in &report.failures {
            println!("  {}", f.mismatch);
            println!("    original: {:?}", f.original);
            println!("    shrunk:   {:?}", f.shrunk);
            if let Some(p) = &f.dumped {
                println!("    dumped:   {}", p.display());
            }
        }
        ExitCode::FAILURE
    }
}
