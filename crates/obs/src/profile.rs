//! What a run cost: where its time went, as collapsed stacks folded from
//! the span log, and how much memory it held, from `/proc/self/status`.
//!
//! `FoldedProfile::fold` rebuilds, track by track, the stack of spans
//! open around every logged span — from each event's `depth` and time
//! containment — and charges the span's *self* time (its duration less
//! that of its logged children) to the `track;frame;frame` key of its
//! stack. The output is the *collapsed stack* format consumed by
//! `flamegraph.pl`, `inferno`, speedscope and friends, and by
//! [`FoldedProfile::parse`] / `dgr report --profile`: one `stack count`
//! line per stack, the count in µs. It is exact and a pure function of
//! the log: no thread, no sampling, nothing recorded beyond the spans
//! themselves. A span whose ancestors were not logged (the log stopped at
//! [`crate::span::MAX_EVENTS`], and parents close after their children)
//! roots its stack at its track.
//!
//! ```
//! dgr_obs::set_enabled(true);
//! dgr_obs::log_span_events(); // as `--profile` does
//! {
//!     let _outer = dgr_obs::span("demo", "outer");
//!     let _inner = dgr_obs::span("demo", "inner");
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! let folded = dgr_obs::folded_profile().to_folded();
//! assert!(folded.contains("dgr-main;outer;inner "));
//! dgr_obs::set_enabled(false);
//! dgr_obs::reset();
//! ```

use std::collections::BTreeMap;

use crate::span::{track_name, SpanEvent};

/// Self time per stack of span names, in collapsed-stack form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedProfile {
    /// Self time in µs per `track;frame;frame` stack (BTreeMap: the
    /// folded output is deterministic given the counts).
    pub counts: BTreeMap<String, u64>,
}

impl FoldedProfile {
    /// Folds span events into self time per stack: µs, rounded down per
    /// stack, and stacks under 1 µs left out. Per track the self times
    /// add up to the durations of the spans with no logged ancestor — the
    /// depth-0 spans of a complete log.
    pub(crate) fn fold(events: &[SpanEvent]) -> FoldedProfile {
        let mut order: Vec<&SpanEvent> = events.iter().collect();
        // a parent opens no later than its children and, opening in the
        // same nanosecond, is shallower: every event follows its ancestors
        order.sort_by_key(|e| (e.tid, e.start_ns, e.depth));
        let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut close = |(e, stack, children): (&SpanEvent, String, u64)| {
            *self_ns.entry(stack).or_insert(0) += e.dur_ns.saturating_sub(children);
        };
        // the ancestors of the event at hand, outermost first: each with
        // its stack and the summed duration of its children so far
        let mut open: Vec<(&SpanEvent, String, u64)> = Vec::new();
        for e in order {
            while open.last().is_some_and(|&(top, ..)| !encloses(top, e)) {
                close(open.pop().expect("checked non-empty"));
            }
            let stack = match open.last_mut() {
                Some((_, stack, children)) => {
                    *children += e.dur_ns;
                    format!("{stack};{}", e.name)
                }
                None => format!("{};{}", track_name(e.tid), e.name),
            };
            open.push((e, stack, 0));
        }
        while let Some(frame) = open.pop() {
            close(frame);
        }
        FoldedProfile {
            counts: self_ns
                .into_iter()
                .map(|(stack, ns)| (stack, ns / 1000))
                .filter(|&(_, us)| us > 0)
                .collect(),
        }
    }

    /// Serializes in the collapsed-stack format flamegraph tooling
    /// consumes: one `stack count` line per distinct stack, sorted by
    /// stack.
    pub fn to_folded(&self) -> String {
        self.counts
            .iter()
            .map(|(stack, count)| format!("{stack} {count}\n"))
            .collect()
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
    /// rendering). Malformed lines are skipped.
    pub fn parse(text: &str) -> FoldedProfile {
        let mut p = FoldedProfile::default();
        for line in text.lines() {
            let Some((stack, count)) = line.trim().rsplit_once(' ') else {
                continue;
            };
            if let Ok(count) = count.parse::<u64>() {
                *p.counts.entry(stack.to_string()).or_insert(0) += count;
            }
        }
        p
    }

    /// Per-leaf-frame self-time totals, heaviest first (name ties break
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

    /// Self time summed over every stack, in µs.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Whether `outer` (sorted before `inner`) is an ancestor of `inner`:
/// same track, shallower, and still open when `inner` closed.
fn encloses(outer: &SpanEvent, inner: &SpanEvent) -> bool {
    outer.tid == inner.tid
        && outer.depth < inner.depth
        && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
}

/// This process's memory in bytes, from `/proc/self/status`: `None`
/// where it cannot be read (off Linux), never `Some(0)` — `/status`
/// writes "unmeasurable" as `"rss":null`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessMemory {
    /// Resident set size now (`VmRSS`).
    pub rss: Option<u64>,
    /// Most resident since the process started (`VmHWM`).
    pub peak_rss: Option<u64>,
}

/// Reads [`ProcessMemory`]: the one `/proc/self/status` reader behind
/// `/status`'s `rss`, the `process.rss_bytes` gauge `/metrics` refreshes
/// and fig5's peak column.
pub fn process_memory() -> ProcessMemory {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    ProcessMemory {
        rss: status_bytes(&status, "VmRSS:"),
        peak_rss: status_bytes(&status, "VmHWM:"),
    }
}

/// The `key:   1234 kB` field of a `/proc/*/status` text, in bytes.
fn status_bytes(status: &str, key: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix(key))?;
    let kb: u64 = value.trim().trim_end_matches("kB").trim().parse().ok()?;
    (kb > 0).then_some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span of track `tid` at `depth` over `[start, end)` µs.
    fn ev(tid: u32, depth: u32, name: &'static str, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            cat: "test",
            name,
            tid,
            depth,
            start_ns: start * 1000,
            dur_ns: (end - start) * 1000,
        }
    }

    /// Two tracks in the order spans close, as the log holds them: on the
    /// main one `route` ⊃ `train` ⊃ three sibling passes, then `extract`,
    /// then a second root; on the helper three lanes.
    fn two_track_log() -> Vec<SpanEvent> {
        vec![
            ev(0, 2, "forward", 100, 300),
            ev(1, 0, "lane_fwd", 150, 250),
            ev(1, 0, "lane_bwd", 350, 600),
            ev(0, 2, "backward", 300, 700),
            ev(1, 0, "lane_fwd", 720, 780),
            ev(0, 2, "forward", 700, 800),
            ev(0, 1, "train", 100, 900),
            ev(0, 1, "extract", 900, 1000),
            ev(0, 0, "route", 0, 1000),
            ev(0, 0, "refine", 1000, 1500),
        ]
    }

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(s, c)| (s.to_string(), c)).collect()
    }

    /// Per track, self time summed over the stacks rooted at it.
    fn track_total(p: &FoldedProfile, track: &str) -> u64 {
        let rooted = p
            .counts
            .iter()
            .filter(|(s, _)| s.starts_with(&format!("{track};")));
        rooted.map(|(_, c)| c).sum()
    }

    #[test]
    fn fold_charges_exact_self_time_per_stack_and_track() {
        let log = two_track_log();
        let p = FoldedProfile::fold(&log);
        assert_eq!(
            p.counts,
            counts(&[
                ("dgr-helper;lane_bwd", 250),
                ("dgr-helper;lane_fwd", 160),
                ("dgr-main;refine", 500),
                ("dgr-main;route", 100),
                ("dgr-main;route;extract", 100),
                ("dgr-main;route;train", 100),
                ("dgr-main;route;train;backward", 400),
                ("dgr-main;route;train;forward", 300),
            ])
        );
        for (tid, track) in [(0, "dgr-main"), (1, "dgr-helper")] {
            let roots = log.iter().filter(|e| e.tid == tid && e.depth == 0);
            let depth0_us: u64 = roots.map(|e| e.dur_ns / 1000).sum();
            assert_eq!(track_total(&p, track), depth0_us, "{track}");
        }
        assert_eq!(p.total(), 1500 + 410);
        let hot = p.hot_frames();
        assert_eq!(hot[0], ("refine".to_string(), 500));
        assert_eq!(hot[1], ("backward".to_string(), 400));
    }

    #[test]
    fn fold_is_a_pure_function_of_the_log() {
        let log = two_track_log();
        let text = FoldedProfile::fold(&log).to_folded();
        assert_eq!(FoldedProfile::fold(&log).to_folded(), text);
        let mut reversed = log.clone();
        reversed.reverse();
        assert_eq!(FoldedProfile::fold(&reversed).to_folded(), text);
        assert_eq!(FoldedProfile::parse(&text), FoldedProfile::fold(&log));
    }

    /// The log stops taking events at `MAX_EVENTS`, and parents close
    /// after their children: what survives is roots' descendants without
    /// the roots, which root their stacks at the track.
    #[test]
    fn fold_of_a_log_that_dropped_events_roots_orphans_at_their_track() {
        let kept: Vec<SpanEvent> = two_track_log()
            .into_iter()
            .filter(|e| !["route", "refine"].contains(&e.name))
            .collect();
        let p = FoldedProfile::fold(&kept);
        assert_eq!(
            p.counts,
            counts(&[
                ("dgr-helper;lane_bwd", 250),
                ("dgr-helper;lane_fwd", 160),
                ("dgr-main;extract", 100),
                ("dgr-main;train", 100),
                ("dgr-main;train;backward", 400),
                ("dgr-main;train;forward", 300),
            ])
        );
        assert_eq!(track_total(&p, "dgr-main"), 800 + 100);
    }

    #[test]
    fn sub_microsecond_stacks_are_left_out() {
        let mut log = two_track_log();
        log.push(SpanEvent {
            dur_ns: 999,
            ..ev(1, 0, "fan_out", 800, 800)
        });
        assert_eq!(
            FoldedProfile::fold(&log),
            FoldedProfile::fold(&two_track_log())
        );
    }

    #[test]
    fn fold_of_the_live_log_nests_real_spans() {
        let _guard = crate::test_lock();
        crate::reset_spans();
        crate::log_span_events();
        crate::set_enabled(true);
        {
            let _outer = crate::span("test", "fold-outer");
            let _inner = crate::span("test", "fold-inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::set_enabled(false);
        let p = crate::folded_profile();
        crate::reset_spans();
        let nested = p
            .counts
            .keys()
            .find(|s| s.ends_with(";fold-outer;fold-inner"));
        assert!(nested.is_some(), "{p:?}");
        assert_eq!(p.hot_frames()[0].0, "fold-inner");
    }

    #[test]
    fn parse_skips_malformed_lines() {
        let p = FoldedProfile::parse("a;b 3\nnot-a-count x\n\nc 2\n");
        assert_eq!(p.counts, counts(&[("a;b", 3), ("c", 2)]));
        assert_eq!(p.total(), 5);
    }

    #[test]
    fn status_fields_read_in_bytes_and_zero_reads_as_unmeasured() {
        let status = "Name:\tdgr\nVmHWM:\t  2048 kB\nVmRSS:\t  1234 kB\nVmSwap:\t 0 kB\n";
        assert_eq!(status_bytes(status, "VmRSS:"), Some(1234 * 1024));
        assert_eq!(status_bytes(status, "VmHWM:"), Some(2048 * 1024));
        assert_eq!(status_bytes(status, "VmSwap:"), None);
        assert_eq!(status_bytes(status, "VmData:"), None);
        assert_eq!(status_bytes("VmRSS: lots\n", "VmRSS:"), None);
    }

    #[test]
    fn process_memory_is_sane_on_linux() {
        let m = process_memory();
        if let (Some(rss), Some(peak)) = (m.rss, m.peak_rss) {
            assert!(peak >= rss && rss > 1024 * 1024, "{m:?}");
        }
    }
}
