//! One `dgr route` process, measured from outside: design text on disk in,
//! guide file on disk out.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::GeneratedDesign;
use crate::host;
use crate::validate::validate_guide;

/// An operation that takes longer than this counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(120);

/// The paper's objective `0.5·WL + 4·vias + 500·total_overflow`.
pub fn cost_score(wirelength: f64, vias: f64, overflow: f64) -> f64 {
    0.5 * wirelength + 4.0 * vias + 500.0 * overflow
}

/// Where one workload's CLI operations read and write.
pub struct CliJob<'a> {
    pub dgr: &'a Path,
    pub design: &'a GeneratedDesign,
    pub design_path: PathBuf,
    pub guide_path: PathBuf,
    pub ledger_path: PathBuf,
    pub iterations: usize,
}

/// What one `dgr route` process did.
pub struct CliOp {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// `Ok(cost_score)` for a valid guide, else why the operation failed.
    pub outcome: Result<f64, String>,
}

/// The value after the colon of the stdout line that starts with `label`.
fn printed(stdout: &str, label: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.trim_start().starts_with(label))?;
    line.rsplit(':').next()?.trim().parse().ok()
}

/// `cost_score` from the metrics `dgr route` prints.
pub fn parse_cost(stdout: &str) -> Option<f64> {
    Some(cost_score(
        printed(stdout, "wirelength")?,
        printed(stdout, "vias (3D)")?,
        printed(stdout, "total overflow")?,
    ))
}

/// Runs `dgr route <design> --iterations N --seed 0 --quiet --guide <out>`
/// to completion, sampling the child's `VmHWM` every 5 ms, then checks
/// the guide. Wall time is spawn → exit; the check is outside it.
pub fn route_once(job: &CliJob<'_>) -> CliOp {
    let _ = std::fs::remove_file(&job.guide_path);
    let cpu_before = host::children_cpu_s().unwrap_or(0.0);
    let start = Instant::now();
    let child = Command::new(job.dgr)
        .arg("route")
        .arg(&job.design_path)
        .args(["--iterations", &job.iterations.to_string()])
        .args(["--seed", "0", "--quiet", "--guide"])
        .arg(&job.guide_path)
        .env("DGR_LEDGER", &job.ledger_path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let child = match child {
        Ok(c) => c,
        Err(e) => {
            return CliOp {
                wall_s: 0.0,
                cpu_s: 0.0,
                peak_rss_mb: 0.0,
                outcome: Err(format!("cannot start {}: {e}", job.dgr.display())),
            }
        }
    };
    let pid = child.id();
    let exited = AtomicBool::new(false);
    // `--quiet` output is a dozen lines, far below a pipe's capacity, so
    // waiting before reading cannot block the child.
    let (output, wall_s, peak_rss_mb, timed_out) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            let mut timed_out = false;
            while !exited.load(Ordering::Acquire) {
                if let Some(mb) = host::vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                if !timed_out && start.elapsed() > OP_TIMEOUT {
                    // the pid cannot be reused before the wait below reaps it
                    timed_out = true;
                    let _ = Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .status();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (peak, timed_out)
        });
        let output = child.wait_with_output();
        let wall_s = start.elapsed().as_secs_f64();
        exited.store(true, Ordering::Release);
        let (peak, timed_out) = sampler.join().expect("sampler does not panic");
        (output, wall_s, peak, timed_out)
    });
    let cpu_s = host::children_cpu_s().unwrap_or(0.0) - cpu_before;

    let outcome = (|| {
        if timed_out {
            return Err(format!("killed after {} s", OP_TIMEOUT.as_secs()));
        }
        let output = output.map_err(|e| format!("wait failed: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let cost = parse_cost(&stdout).ok_or("stdout lacks wirelength / vias / overflow")?;
        let guide = std::fs::read_to_string(&job.guide_path)
            .map_err(|e| format!("no guide at {}: {e}", job.guide_path.display()))?;
        validate_guide(job.design, &guide)?;
        Ok(cost)
    })();
    CliOp {
        wall_s,
        cpu_s,
        peak_rss_mb,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDOUT: &str = "routed 1800 nets in 2.27s\n  wirelength       : 48465\n  turning points   : 2429\n  overflowed edges : 5\n  total overflow   : 3.79\n  refinement       : 342 nets rerouted (105 → 5 overflowed edges)\n  vias (3D)        : 11902\n  3D overflow      : 246\n  guide boxes      : 6628 → a.guide\n";

    #[test]
    fn cost_is_read_from_the_printed_metrics() {
        let want = 0.5 * 48465.0 + 4.0 * 11902.0 + 500.0 * 3.79;
        assert_eq!(parse_cost(STDOUT), Some(want));
        assert_eq!(parse_cost("routed 3 nets\n  wirelength : 9\n"), None);
    }
}
