//! What the host was doing while the benchmark ran, and the `/proc`
//! readers the load generators share. Linux only, like the rest of the
//! benchmark's process accounting.

use std::hint::black_box;
use std::time::Instant;

/// `/proc` reports CPU times in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 on every architecture it exports `/proc/stat` for.
const TICKS_PER_S: f64 = 100.0;

/// A fixed single-thread spin: 12 M steps of a dependent xorshift chain,
/// about 20 ms on a 2 GHz core. Its duration before every operation says
/// whether the host gave this process the same core speed each time.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..12_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The aggregate `cpu` line of `/proc/stat`: `(steal, total)` in ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of all CPU time since `before` that the hypervisor gave away.
pub fn steal_share(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Size of the largest cache `cpu0` reports, in bytes.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (num, unit) = s.split_at(s.len().checked_sub(1)?);
            let n: u64 = num.parse().ok()?;
            Some(match unit {
                "K" => n << 10,
                "M" => n << 20,
                "G" => n << 30,
                _ => return None,
            })
        })
        .max()
        .unwrap_or(0)
}

/// Largest array set the triad allocates, so that a host reporting a
/// huge (shared, virtual) last-level cache does not turn one number into
/// seconds of page faults.
const TRIAD_CAP_BYTES: u64 = 384 << 20;

/// One STREAM triad `a[i] = b[i] + s·c[i]` over three `f64` arrays of
/// 4× the last-level cache in total, capped at 384 MiB: `(GB/s computed
/// at 24 B per element, array bytes, LLC bytes)`. The ceiling for
/// `autodiff.iter_gbps_computed`.
pub fn stream_triad() -> (f64, u64, u64) {
    let llc = llc_bytes();
    let total = (4 * llc).clamp(64 << 20, TRIAD_CAP_BYTES);
    let n = (total / 24) as usize;
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut a = vec![0.0f64; n]; // touched by the first, untimed pass
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let t = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    ((n * 24) as f64 / best / 1e9, (n * 24) as u64, llc)
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command
/// name, which may itself hold spaces.
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 (state); keep positions, parse what is numeric
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User + system CPU seconds of process `pid` so far (fields 14, 15).
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let f = stat_fields(&pid.to_string())?;
    Some((f.get(11)? + f.get(12)?) as f64 / TICKS_PER_S)
}

/// User + system CPU seconds of this process's reaped children so far
/// (fields 16, 17): the delta around a `wait` is the child's CPU time.
pub fn children_cpu_s() -> Option<f64> {
    let f = stat_fields("self")?;
    Some((f.get(13)? + f.get(14)?) as f64 / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(vm_hwm_mb(pid).unwrap() > 0.5);
        assert!(process_cpu_s(pid).is_some());
        assert!(children_cpu_s().is_some());
        let (steal, total) = cpu_ticks().unwrap();
        assert!(total > steal);
        assert!((0.0..=1.0).contains(&steal_share(Some((steal, total)))));
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calib_ms() > 0.5);
    }
}
