//! Counters, gauges and histograms with atomic hot-path recording.
//!
//! Metrics are registered by name ([`counter`], [`gauge`], [`histogram`])
//! and returned as `&'static` handles — registration takes a mutex once,
//! after which recording is a single relaxed atomic RMW (plus the
//! [`crate::enabled`] check). Call sites on hot paths cache the handle in
//! a `OnceLock` so the registry lock is never touched again:
//!
//! ```
//! use std::sync::OnceLock;
//! static HITS: OnceLock<&'static dgr_obs::Counter> = OnceLock::new();
//! let c = HITS.get_or_init(|| dgr_obs::counter("rsmt.cache.hits"));
//! c.add(1);
//! ```
//!
//! Counters sum **exactly** under concurrency (`fetch_add` on an
//! `AtomicU64`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` — a relaxed `fetch_add` when enabled, a relaxed load
    /// otherwise. Concurrent adds sum exactly.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge (stored as bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge (when enabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two histogram buckets (values ≥ 2⁶³ clamp into the
/// last).
pub const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (e.g. nanosecond
/// durations). Bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` — so
/// bucket 1 holds exactly the value 1 — and bucket 0 holds only zero,
/// the one value below the first log₂ boundary.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample (when enabled): three relaxed RMWs.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let b = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound (2^b) of the bucket containing quantile `q ∈ [0, 1]` —
    /// an order-of-magnitude estimate, which is what log₂ buckets buy.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target.max(1) {
                return 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Registered {
    name: &'static str,
    metric: MetricRef,
}

fn registry() -> std::sync::MutexGuard<'static, Vec<Registered>> {
    static REGISTRY: OnceLock<Mutex<Vec<Registered>>> = OnceLock::new();
    // poison-tolerant: a panic during registration (e.g. a kind mismatch)
    // must not take the whole registry down with it
    match REGISTRY.get_or_init(|| Mutex::new(Vec::new())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Returns (registering on first use) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry();
    for r in reg.iter() {
        if r.name == name {
            match r.metric {
                MetricRef::Counter(c) => return c,
                _ => panic!("metric `{name}` already registered as a non-counter"),
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::default());
    reg.push(Registered {
        name,
        metric: MetricRef::Counter(c),
    });
    c
}

/// Returns (registering on first use) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry();
    for r in reg.iter() {
        if r.name == name {
            match r.metric {
                MetricRef::Gauge(g) => return g,
                _ => panic!("metric `{name}` already registered as a non-gauge"),
            }
        }
    }
    let g: &'static Gauge = Box::leak(Box::default());
    reg.push(Registered {
        name,
        metric: MetricRef::Gauge(g),
    });
    g
}

/// Returns (registering on first use) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry();
    for r in reg.iter() {
        if r.name == name {
            match r.metric {
                MetricRef::Histogram(h) => return h,
                _ => panic!("metric `{name}` already registered as a non-histogram"),
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::default());
    reg.push(Registered {
        name,
        metric: MetricRef::Histogram(h),
    });
    h
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: &'static str,
    /// The reading.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram {
        /// Sample count.
        count: u64,
        /// Sample sum.
        sum: u64,
        /// Mean sample.
        mean: f64,
        /// ~p50 bucket upper bound.
        p50: u64,
        /// ~p95 bucket upper bound.
        p95: u64,
        /// ~p99 bucket upper bound.
        p99: u64,
    },
}

/// Snapshots every registered metric, in registration order.
pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
    let reg = registry();
    reg.iter()
        .map(|r| MetricSnapshot {
            name: r.name,
            value: match r.metric {
                MetricRef::Counter(c) => MetricValue::Counter(c.get()),
                MetricRef::Gauge(g) => MetricValue::Gauge(g.get()),
                MetricRef::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                },
            },
        })
        .collect()
}

/// Renders every registered metric in the Prometheus text exposition
/// format (version 0.0.4), the payload the `--serve` exporter returns
/// from `/metrics`.
///
/// Mapping:
/// * counters → `counter` families (`dgr_` prefix, dots → underscores),
/// * gauges → `gauge` families,
/// * histograms → a `histogram` family with cumulative
///   `_bucket{le="2^i"}` lines (only buckets with mass, plus `+Inf`),
///   `_sum` and `_count` — and a companion `<name>_quantile` gauge
///   family labelled `quantile="0.5" | "0.95" | "0.99"` carrying the
///   log₂ quantile estimates.
pub fn prometheus_text() -> String {
    let reg = registry();
    let mut out = String::new();
    for r in reg.iter() {
        let name = prometheus_name(r.name);
        match r.metric {
            MetricRef::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{name} {}\n", c.get()));
            }
            MetricRef::Gauge(g) => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {}\n", fmt_f64(g.get())));
            }
            MetricRef::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (b, bucket) in h.buckets.iter().enumerate() {
                    let n = bucket.load(Ordering::Relaxed);
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
                // the quantile family appears only once samples exist —
                // an empty histogram rendering `0` is indistinguishable
                // from a real zero-latency reading
                if h.count() > 0 {
                    out.push_str(&format!("# TYPE {name}_quantile gauge\n"));
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{name}_quantile{{quantile=\"{label}\"}} {}\n",
                            h.quantile(q)
                        ));
                    }
                }
            }
        }
    }
    out
}

/// `rsmt.cache.hits` → `dgr_rsmt_cache_hits`: prefixed, and every
/// character outside `[a-zA-Z0-9_:]` replaced by `_` per the Prometheus
/// metric-name grammar. Names already namespaced under the daemon
/// (`dgrd.…`) are not double-prefixed: `dgrd.jobs.queued` exposes as
/// `dgrd_jobs_queued`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    if !name.starts_with("dgrd") {
        out.push_str("dgr_");
    }
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus float rendering: integral values without a trailing `.0`,
/// non-finite values as `NaN`/`+Inf`/`-Inf`.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Zeroes every registered metric (registrations survive).
pub fn reset_metrics() {
    let reg = registry();
    for r in reg.iter() {
        match r.metric {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Gauge(g) => g.reset(),
            MetricRef::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let c = counter("test.exact");
        c.reset();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        c.add(1);
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(c.get(), threads * per_thread);
        c.reset();
    }

    #[test]
    fn gauge_and_histogram_basics() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let g = gauge("test.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let h = histogram("test.hist");
        h.reset();
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_001_006);
        assert!(h.mean() > 0.0);
        assert!(h.quantile(0.5) >= 2);
        assert!(h.quantile(1.0) >= 1_000_000);
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let _guard = crate::test_lock();
        let h = histogram("test.hist-empty");
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty histogram has no quantile {q}");
        }
    }

    #[test]
    fn single_bucket_saturation_pins_every_quantile() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let h = histogram("test.hist-saturated");
        h.reset();
        // 5 ∈ [4, 8) → bucket 3 for every sample
        for _ in 0..10_000 {
            h.record(5);
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.mean(), 5.0);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 8, "all mass in one bucket → its bound");
        }
        h.reset();
    }

    #[test]
    fn values_below_first_log2_boundary_land_in_bucket_zero() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let h = histogram("test.hist-below");
        h.reset();
        // zero is the only value below the first boundary (2^0 = 1);
        // one already belongs to bucket 1
        h.record(0);
        h.record(0);
        h.record(1);
        crate::set_enabled(false);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1);
        // two of three samples sit in bucket 0, whose upper bound is 2^0
        assert_eq!(h.quantile(0.5), 1);
        // the value 1 sits strictly above, in bucket 1 (bound 2^1)
        assert_eq!(h.quantile(1.0), 2);
        h.reset();
    }

    #[test]
    fn registration_is_idempotent() {
        let a = counter("test.same") as *const Counter;
        let b = counter("test.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _ = counter("test.kind-clash");
        let _ = gauge("test.kind-clash");
    }

    #[test]
    fn prometheus_text_exposes_all_kinds() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        counter("test.prom.counter").add(3);
        gauge("test.prom.gauge").set(1.5);
        let h = histogram("test.prom.hist");
        h.reset();
        for v in [1u64, 5, 1000] {
            h.record(v);
        }
        crate::set_enabled(false);
        let text = prometheus_text();
        assert!(text.contains("# TYPE dgr_test_prom_counter counter\n"));
        assert!(text.contains("dgr_test_prom_gauge 1.5\n"));
        assert!(text.contains("# TYPE dgr_test_prom_hist histogram\n"));
        assert!(text.contains("dgr_test_prom_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dgr_test_prom_hist_sum 1006\n"));
        assert!(text.contains("dgr_test_prom_hist_count 3\n"));
        assert!(text.contains("dgr_test_prom_hist_quantile{quantile=\"0.99\"}"));
        h.reset();
        counter("test.prom.counter").0.store(0, Ordering::Relaxed);
    }

    #[test]
    fn empty_histogram_omits_the_quantile_family() {
        let _guard = crate::test_lock();
        let h = histogram("test.prom.hist-unsampled");
        h.reset();
        let text = prometheus_text();
        assert!(
            !text.contains("dgr_test_prom_hist_unsampled_quantile"),
            "no quantile gauges before the first sample:\n{text}"
        );
        // the histogram family itself still advertises its existence
        assert!(text.contains("# TYPE dgr_test_prom_hist_unsampled histogram\n"));
        assert!(text.contains("dgr_test_prom_hist_unsampled_count 0\n"));
    }

    #[test]
    fn daemon_metrics_skip_the_dgr_prefix() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        gauge("dgrd.jobs.queued").set(3.0);
        crate::set_enabled(false);
        let text = prometheus_text();
        assert!(text.contains("dgrd_jobs_queued 3\n"), "{text}");
        assert!(!text.contains("dgr_dgrd_jobs_queued"), "{text}");
    }

    #[test]
    fn snapshot_sees_registered_metrics() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        counter("test.snap").add(4);
        crate::set_enabled(false);
        let snap = metrics_snapshot();
        let found = snap.iter().find(|m| m.name == "test.snap").unwrap();
        assert!(matches!(found.value, MetricValue::Counter(n) if n >= 4));
    }
}
