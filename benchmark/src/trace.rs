//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they stay in memory and are written once, at the end,
//! as a Chrome trace-event file (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one repetition (or one job) share an id.
    pub trace_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// Handle of an open span; give it back to [`Recorder::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(usize);

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u32,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`; recorders of several
    /// threads share one epoch so their spans line up when merged.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to trace `id`.
    pub fn set_trace(&mut self, id: u32) {
        self.trace_id = id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id: self.trace_id,
        });
        self.open.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `span`, and with it any span still open inside it (an
    /// error path may return past them), and returns its index.
    pub fn exit(&mut self, span: Open) -> usize {
        let end = self.now_ns();
        while let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
            if i == span.0 {
                return i;
            }
        }
        panic!("span {} was not open", span.0);
    }

    /// Records an interval measured elsewhere (a server-reported phase, a
    /// request timed by a client clock) under `parent`.
    pub fn interval(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            trace_id: self.trace_id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans of `other` (a recorder of another thread that
    /// shares this one's epoch), keeping their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Nanoseconds of span `i` that its direct children cover. Children
    /// run one after another on the recording thread, so their durations
    /// add; each is clipped to the parent's interval.
    pub fn covered_ns(&self, i: usize) -> u64 {
        let p = &self.spans[i];
        self.spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| {
                s.end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns))
            })
            .sum()
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns().saturating_sub(self.covered_ns(i))
    }

    /// Share of span `i` that its children account for (1.0 for a span of
    /// zero length).
    pub fn closure(&self, i: usize) -> f64 {
        match self.spans[i].dur_ns() {
            0 => 1.0,
            d => self.covered_ns(i) as f64 / d as f64,
        }
    }

    /// The Chrome trace-event JSON of every span: one complete (`X`) event
    /// each, `tid` = trace id, times in microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}}{sep}",
                s.name,
                s.trace_id,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_ns(i) as f64 / 1e3,
            )
            .expect("write to String");
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 with children 10..40 and 50..90; the second child has a
    /// grandchild 60..70.
    fn sample() -> Recorder {
        let mut r = Recorder::new(Instant::now());
        let root = r.interval("route", 0, 100, None);
        r.interval("a", 10, 40, Some(root));
        let b = r.interval("b", 50, 90, Some(root));
        r.interval("b.inner", 60, 70, Some(b));
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = sample();
        assert_eq!(r.covered_ns(0), 70);
        assert_eq!(r.self_ns(0), 30);
        assert_eq!(r.self_ns(1), 30);
        assert_eq!(r.self_ns(2), 30); // 40 − the 10 of its grandchild
        assert_eq!(r.self_ns(3), 10);
    }

    #[test]
    fn closure_is_children_over_parent() {
        let r = sample();
        assert!((r.closure(0) - 0.70).abs() < 1e-12);
        assert!((r.closure(2) - 0.25).abs() < 1e-12);
        assert_eq!(r.closure(3), 0.0);
        let mut z = Recorder::new(Instant::now());
        let i = z.interval("empty", 5, 5, None);
        assert_eq!(z.closure(i), 1.0);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let mut r = Recorder::new(Instant::now());
        let root = r.interval("root", 10, 20, None);
        r.interval("early", 0, 15, Some(root));
        assert_eq!(r.covered_ns(root), 5);
    }

    #[test]
    fn enter_exit_nest_and_tag_the_trace() {
        let mut r = Recorder::new(Instant::now());
        r.set_trace(7);
        let outer = r.enter("outer");
        let inner = r.enter("inner");
        let inner = r.exit(inner);
        let outer = r.exit(outer);
        assert_eq!(r.spans()[inner].parent, Some(outer));
        assert_eq!(r.spans()[outer].parent, None);
        assert_eq!(r.spans()[inner].trace_id, 7);
        assert!(r.spans()[outer].dur_ns() >= r.spans()[inner].dur_ns());
    }

    #[test]
    fn merge_keeps_parent_links() {
        let mut a = sample();
        let b = sample();
        a.merge(b);
        assert_eq!(a.spans().len(), 8);
        assert_eq!(a.spans()[5].parent, Some(4));
        assert_eq!(a.spans()[7].parent, Some(6));
        assert_eq!(a.self_ns(4), 30);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let text = sample().chrome_trace();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 4);
        assert!(text.contains("\"name\":\"b.inner\""));
        assert!(text.contains("\"parent\":null"));
    }
}
