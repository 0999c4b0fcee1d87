//! Sampling self-profiler: collapsed-stack (flamegraph) profiles of the
//! span hierarchy, captured by a background thread.
//!
//! The span registry ([`crate::span`]) already knows, at every instant,
//! which spans are open on which thread. The profiler samples that view
//! at a fixed interval from its own thread, folds each observed stack
//! into a `frame;frame;frame` key, and counts samples per key — the
//! *collapsed stack* format consumed by `flamegraph.pl`, `inferno`,
//! speedscope and friends. No per-sample I/O, no symbolization, no
//! signal handlers: the cost is one mutex lock per sample on the
//! profiler thread, plus one push/pop per span open/close on the
//! instrumented threads (only while a profiler is attached).
//!
//! Alongside stacks the sampler reads the process RSS (Linux
//! `/proc/self/status`) every [`RSS_SAMPLE_STRIDE`] samples into the
//! `process.rss_bytes` gauge, so `/metrics` and `/status` report live
//! memory without the training loop doing anything.
//!
//! ```no_run
//! dgr_obs::set_enabled(true);
//! let profiler = dgr_obs::Profiler::start(dgr_obs::ProfilerConfig::default());
//! // ... run the workload ...
//! let profile = profiler.stop();
//! profile.write("out.folded").unwrap();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the sampler re-reads the process RSS, in samples.
pub const RSS_SAMPLE_STRIDE: u64 = 16;

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilerConfig {
    /// Time between samples. The default (2 ms, 500 Hz) resolves
    /// millisecond-scale training phases while keeping sampling overhead
    /// well under 1% of one core.
    pub interval: Duration,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            interval: Duration::from_millis(2),
        }
    }
}

/// A running sampling profiler. Stop it with [`Profiler::stop`] to get
/// the [`FoldedProfile`]; dropping without stopping detaches the sampler
/// and discards the samples.
#[derive(Debug)]
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<FoldedProfile>>,
}

impl Profiler {
    /// Attaches active-stack tracking to the span registry and spawns
    /// the sampler thread. Only one profiler should run at a time (a
    /// second one would share — and then clear — the same stack
    /// registry).
    pub fn start(cfg: ProfilerConfig) -> Profiler {
        crate::span::set_profiling(true);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = cfg.interval.max(Duration::from_micros(100));
        let handle = std::thread::Builder::new()
            .name("dgr-profiler".into())
            .spawn(move || sampler_loop(&stop2, interval))
            .expect("spawn profiler thread");
        Profiler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the aggregated profile.
    pub fn stop(mut self) -> FoldedProfile {
        self.stop.store(true, Ordering::Relaxed);
        let profile = self
            .handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        crate::span::set_profiling(false);
        profile
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        crate::span::set_profiling(false);
    }
}

fn sampler_loop(stop: &AtomicBool, interval: Duration) -> FoldedProfile {
    let mut profile = FoldedProfile::default();
    while !stop.load(Ordering::Relaxed) {
        profile.samples += 1;
        let stacks = crate::span::active_stacks();
        if stacks.is_empty() {
            profile.idle += 1;
        } else {
            for (_tid, frames) in &stacks {
                *profile.counts.entry(frames.join(";")).or_insert(0) += 1;
            }
        }
        if profile.samples % RSS_SAMPLE_STRIDE == 1 {
            if let Some(rss) = read_rss_bytes() {
                crate::gauge("process.rss_bytes").set(rss as f64);
                profile.peak_rss = profile.peak_rss.max(rss);
            }
        }
        std::thread::sleep(interval);
    }
    profile
}

/// Current process RSS in bytes (Linux `/proc/self/status`; `None`
/// elsewhere, never `Some(0)`: the telemetry `mem_rss` field writes
/// "unmeasurable" as `null`).
pub fn read_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    (kb > 0).then_some(kb * 1024)
}

/// An aggregated sampling profile in collapsed-stack form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedProfile {
    /// Sample count per `frame;frame;frame` stack (BTreeMap: the folded
    /// output is deterministic given the counts).
    pub counts: BTreeMap<String, u64>,
    /// Total sampler ticks taken.
    pub samples: u64,
    /// Ticks on which no thread had an open span.
    pub idle: u64,
    /// Largest RSS observed by the sampler, in bytes (0 when
    /// unmeasurable).
    pub peak_rss: u64,
}

impl FoldedProfile {
    /// Serializes in the collapsed-stack format flamegraph tooling
    /// consumes: one `stack count` line per distinct stack, sorted by
    /// stack. An `(idle)` pseudo-stack carries the ticks with no open
    /// span so the output always accounts for every sample.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        if self.idle > 0 {
            out.push_str(&format!("(idle) {}\n", self.idle));
        }
        for (stack, count) in &self.counts {
            out.push_str(&format!("{stack} {count}\n"));
        }
        out
    }

    /// Writes [`FoldedProfile::to_folded`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_folded())
    }

    /// Parses collapsed-stack text back into a profile (report
    /// rendering). Malformed lines are skipped; the `(idle)` pseudo-stack
    /// is folded back into [`FoldedProfile::idle`].
    pub fn parse(text: &str) -> FoldedProfile {
        let mut p = FoldedProfile::default();
        for line in text.lines() {
            let line = line.trim();
            let Some((stack, count)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(count) = count.parse::<u64>() else {
                continue;
            };
            if stack == "(idle)" {
                p.idle += count;
            } else {
                *p.counts.entry(stack.to_string()).or_insert(0) += count;
            }
            p.samples += count;
        }
        p
    }

    /// Per-leaf-frame self-sample totals, heaviest first (name ties break
    /// alphabetically). The leaf of each stack is where the time was
    /// actually spent — this is the profile's "top functions" view.
    pub fn hot_frames(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, count) in &self.counts {
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            *totals.entry(leaf).or_insert(0) += count;
        }
        let mut out: Vec<(String, u64)> = totals
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Samples attributed to any stack (i.e. non-idle thread samples).
    pub fn busy_samples(&self) -> u64 {
        self.counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_samples_live_spans() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let profiler = Profiler::start(ProfilerConfig {
            interval: Duration::from_micros(200),
        });
        {
            let _outer = crate::span("test", "prof-outer");
            for _ in 0..40 {
                let _inner = crate::span("test", "prof-inner");
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let profile = profiler.stop();
        crate::set_enabled(false);
        assert!(profile.samples > 0);
        let folded = profile.to_folded();
        assert!(
            folded.contains("prof-outer;prof-inner"),
            "nested stack missing from:\n{folded}"
        );
        let hot = profile.hot_frames();
        assert_eq!(hot[0].0, "prof-inner", "leaf frame dominates: {hot:?}");
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let mut p = FoldedProfile::default();
        p.counts.insert("route;train;forward".into(), 30);
        p.counts.insert("route;train;backward".into(), 50);
        p.idle = 7;
        p.samples = 87;
        let text = p.to_folded();
        let back = FoldedProfile::parse(&text);
        assert_eq!(back.counts, p.counts);
        assert_eq!(back.idle, 7);
        assert_eq!(back.samples, 87);
        assert_eq!(back.busy_samples(), 80);
    }

    #[test]
    fn parse_skips_malformed_lines() {
        let p = FoldedProfile::parse("a;b 3\nnot-a-count x\n\nc 2\n");
        assert_eq!(p.counts.len(), 2);
        assert_eq!(p.samples, 5);
    }

    #[test]
    fn detached_profiler_leaves_registry_clean() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _p = Profiler::start(ProfilerConfig::default());
        } // dropped without stop()
        {
            let _s = crate::span("test", "after-drop");
        }
        crate::set_enabled(false);
        // tracking is off again: no stacks linger
        assert!(crate::span::active_stacks().is_empty());
    }
}
