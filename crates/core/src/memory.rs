//! Process-memory measurement for the scalability study (Fig. 5b).
//!
//! The paper plots peak CPU and GPU memory against net count. In this
//! reproduction "CPU memory" is the process RSS read from
//! `/proc/self/status` and "device memory" is the byte accounting of the
//! cost kernel ([`dgr_autodiff::CostModel::bytes`]) plus the DAG forest arenas
//! ([`dgr_dag::DagForest::bytes`]).

/// A snapshot of process memory, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySnapshot {
    /// Current resident set size.
    pub rss: u64,
    /// Peak resident set size since process start.
    pub peak_rss: u64,
}

/// Reads the current and peak RSS of this process.
///
/// Returns zeros on platforms without `/proc` (the snapshot is best-effort
/// diagnostics, not a hard dependency).
pub fn memory_snapshot() -> MemorySnapshot {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return MemorySnapshot::default();
    };
    let mut snap = MemorySnapshot::default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            snap.rss = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            snap.peak_rss = parse_kb(rest);
        }
    }
    snap
}

fn parse_kb(rest: &str) -> u64 {
    rest.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .unwrap_or(0)
        * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sane_on_linux() {
        let snap = memory_snapshot();
        // on Linux both numbers exist and peak ≥ current
        if snap.rss > 0 {
            assert!(snap.peak_rss >= snap.rss);
            assert!(snap.rss > 1024 * 1024); // more than 1 MiB resident
        }
    }

    #[test]
    fn parse_kb_units() {
        assert_eq!(parse_kb("   1234 kB"), 1234 * 1024);
        assert_eq!(parse_kb("garbage"), 0);
    }

    #[test]
    fn allocation_grows_rss() {
        let before = memory_snapshot();
        let buf = vec![1u8; 32 * 1024 * 1024];
        let after = memory_snapshot();
        std::hint::black_box(&buf);
        if before.rss > 0 {
            assert!(after.peak_rss >= before.rss);
        }
    }
}
