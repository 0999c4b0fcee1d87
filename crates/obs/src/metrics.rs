//! Counters and gauges with atomic hot-path recording.
//!
//! Metrics are registered by name ([`counter`], [`gauge`])
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

enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
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
            },
        })
        .collect()
}

/// Renders every registered metric in the Prometheus text exposition
/// format (version 0.0.4), the payload of `dgrd`'s `/metrics`.
///
/// Mapping:
/// * counters → `counter` families (`dgr_` prefix, dots → underscores),
/// * gauges → `gauge` families.
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods)] // eight threads bump one counter
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
    fn gauge_basics() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let g = gauge("test.gauge");
        g.set(2.5);
        crate::set_enabled(false);
        assert_eq!(g.get(), 2.5);
        g.set(4.0);
        assert_eq!(g.get(), 2.5, "a disabled set is dropped");
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
        crate::set_enabled(false);
        let text = prometheus_text();
        assert!(text.contains("# TYPE dgr_test_prom_counter counter\n"));
        assert!(text.contains("dgr_test_prom_gauge 1.5\n"));
        assert!(text.contains("# TYPE dgr_test_prom_gauge gauge\n"));
        counter("test.prom.counter").0.store(0, Ordering::Relaxed);
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
