//! `dgr-sentinel` — convergence-health analytics over telemetry rows.
//!
//! The router's health is legible only through trajectories: loss slope,
//! overflow trend, gradient norms, iteration rate. This module is the
//! pure half of that: a small declarative rule set evaluated over
//! rolling windows of the same [`IterationRow`]s the telemetry sink
//! records.
//!
//! | rule          | severity | trips when                                          |
//! |---------------|----------|-----------------------------------------------------|
//! | `poisoning`   | critical | any non-finite loss / grad / overflow / wl / vias   |
//! | `divergence`  | critical | EWMA loss rises above 2× its running minimum        |
//! | `grad_spike`  | warn     | grad norm exceeds 25× its EWMA after warmup         |
//! | `oscillation` | warn     | loss-delta sign flips >60% of a 64-iter window at ≥5% amplitude |
//! | `overflow_stall` | warn  | positive overflow, not yet half of where it began, with no 1% improvement in 256 iters |
//! | `rate_collapse`  | warn  | iterations/sec below half the last comparable run   |
//!
//! Each rule raises **at most one finding per run**, carrying an
//! evidence window (the recent `(iter, value)` samples that tripped it)
//! so `/health`, the HTML report band, and `dgr doctor` can show *why*,
//! not just *that*. The rule engine is a pure fold over rows
//! ([`RuleEngine::observe`]): the live path — [`crate::tick`] feeds each
//! run scope's own engine, see [`crate::scope`] — and the offline
//! [`analyze_rows`] replay used by `dgr doctor` share it, so a verdict
//! reproduced from a telemetry file matches what the live exporter said.

use crate::json::JsonObject;
use crate::parse::{parse_jsonl, JsonValue};
use crate::telemetry::IterationRow;

/// Iterations before divergence / spike / stall rules may trip (the
/// first few iterations are legitimately chaotic).
pub const WARMUP_ITERS: u64 = 16;
/// Smoothing factor for the loss / gradient EWMAs.
pub const EWMA_ALPHA: f32 = 0.1;
/// `divergence` trips when the loss EWMA exceeds this multiple of its
/// running minimum.
pub const DIVERGENCE_RATIO: f32 = 2.0;
/// `grad_spike` trips when a gradient norm exceeds this multiple of the
/// gradient EWMA. Healthy DGR runs show legitimate mid-run spikes up to
/// ~16x (temperature-decay steps re-sharpen the softmax), so the
/// threshold sits well above that band.
pub const GRAD_SPIKE_RATIO: f32 = 25.0;
/// Loss-delta window for the oscillation rule.
pub const OSC_WINDOW: usize = 64;
/// Sign-flip fraction of [`OSC_WINDOW`] that counts as oscillation.
pub const OSC_FLIP_RATE: f32 = 0.6;
/// Mean |loss delta| must exceed this fraction of the loss EWMA for
/// oscillation to trip (late-stage micro-jitter is healthy).
pub const OSC_MIN_REL_AMPLITUDE: f32 = 0.05;
/// `overflow_stall` trips after this many iterations without a ≥1%
/// improvement of the best overflow seen (while overflow is positive).
pub const STALL_WINDOW: u64 = 256;
/// `overflow_stall` does not trip once the best overflow is under this
/// fraction of the first row's. A run that anneals its choices to one-hot
/// goes flat when they are made — sooner since the training loop drops
/// decided candidates at every temperature step — and a plateau at a
/// third of the starting overflow is that, not capacity pressure that
/// will not resolve. Over 1 000 iterations of the benchmark's congested
/// design and of `ispd18_5m` the plateau sits at 0.33 and 0.35 of the
/// start (0.31 – 0.33 before the loop dropped anything); a run pinned by
/// a saturated activation sits at its start.
pub const STALL_RESOLVED: f32 = 0.5;
/// `rate_collapse` trips when iterations/sec drop below this fraction of
/// the last comparable ledger run.
pub const RATE_COLLAPSE_RATIO: f64 = 0.5;
/// Relative loss improvement that resets the watchdog's stall counter.
pub const IMPROVE_EPS: f32 = 1e-3;
/// Evidence samples retained per rule window.
pub const EVIDENCE_CAPACITY: usize = 32;

/// Finding severity; orderings rank `Critical` above `Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Degraded but possibly recoverable (spikes, plateaus, slowness).
    Warn,
    /// The run's numbers can no longer be trusted (NaN, divergence).
    Critical,
}

impl Severity {
    /// Lowercase wire name (`"warn"` / `"critical"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// One tripped rule with the evidence window that tripped it.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule name (`"divergence"`, `"poisoning"`, ...).
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Rule-specific magnitude used to rank findings of equal severity
    /// (e.g. the loss ratio for divergence).
    pub score: f32,
    /// Iteration at which the rule tripped.
    pub iter: u64,
    /// Human-readable explanation with the numbers that mattered.
    pub message: String,
    /// Recent `(iter, value)` samples of the signal the rule watches,
    /// oldest first, ending at the trip point.
    pub evidence: Vec<(u64, f32)>,
}

impl Finding {
    /// Serializes the finding as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("rule", self.rule);
        o.field_str("severity", self.severity.as_str());
        o.field_f32("score", self.score);
        o.field_u64("iter", self.iter);
        o.field_str("message", &self.message);
        let (start, end) = match (self.evidence.first(), self.evidence.last()) {
            (Some(&(s, _)), Some(&(e, _))) => (s, e),
            _ => (self.iter, self.iter),
        };
        o.field_u64("window_start", start);
        o.field_u64("window_end", end);
        let vals: Vec<f32> = self.evidence.iter().map(|&(_, v)| v).collect();
        o.field_f32_array("window_values", &vals);
        o.finish()
    }
}

/// Sorts findings most severe first, then by score descending.
pub fn rank_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.iter.cmp(&b.iter))
    });
}

/// The overall verdict for one scope (worst surviving finding).
/// Ordered `Ok < Warn < Critical` so `max` folds to the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Verdict {
    /// No rule has tripped.
    #[default]
    Ok,
    /// At least one warn-level finding.
    Warn,
    /// At least one critical finding.
    Critical,
}

impl Verdict {
    /// Lowercase wire name (`"ok"` / `"warn"` / `"critical"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Critical => "critical",
        }
    }
}

/// Verdict from a slice of findings (worst severity wins).
pub fn verdict_of(findings: &[Finding]) -> Verdict {
    let worst = findings.iter().map(|f| match f.severity {
        Severity::Warn => Verdict::Warn,
        Severity::Critical => Verdict::Critical,
    });
    worst.max().unwrap_or_default()
}

/// A bounded, oldest-first window of `(iter, value)` evidence samples.
#[derive(Debug, Clone, Default)]
struct Evidence {
    samples: Vec<(u64, f32)>,
}

impl Evidence {
    fn push(&mut self, iter: u64, value: f32) {
        if self.samples.len() == EVIDENCE_CAPACITY {
            self.samples.remove(0);
        }
        self.samples.push((iter, value));
    }
}

/// The pure per-run rule fold: online ticks and the offline `dgr doctor`
/// replay both drive one of these, so their verdicts agree by
/// construction. Feed rows oldest-first via [`observe`](Self::observe);
/// newly tripped findings come back (each rule trips at most once).
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    rows_seen: u64,
    ewma_loss: Option<f32>,
    min_ewma_loss: f32,
    ewma_grad: Option<f32>,
    prev_loss: Option<f32>,
    /// Signs of recent loss deltas: `true` = increase.
    delta_signs: Vec<bool>,
    delta_mags: Vec<f32>,
    first_overflow: f32,
    best_overflow: f32,
    last_overflow_improve: u64,
    /// Best (lowest) loss and the iter it happened — feeds stall budgets.
    best_loss: Option<f32>,
    last_loss_improve: u64,
    loss_window: Evidence,
    grad_window: Evidence,
    overflow_window: Evidence,
    tripped: Vec<&'static str>,
}

impl RuleEngine {
    /// A fresh engine (identical to `Default`).
    pub fn new() -> Self {
        RuleEngine::default()
    }

    /// Iteration index of the last relative loss improvement (watchdog
    /// stall budgets count from here).
    pub fn last_loss_improve(&self) -> u64 {
        self.last_loss_improve
    }

    fn tripped(&self, rule: &'static str) -> bool {
        self.tripped.contains(&rule)
    }

    fn trip(&mut self, finding: Finding, out: &mut Vec<Finding>) {
        self.tripped.push(finding.rule);
        out.push(finding);
    }

    /// Folds one row into the rolling state, returning any findings that
    /// tripped on this row. Non-lane-0 rows of batched runs only feed the
    /// poisoning check (headline dynamics track lane 0, like `/status`).
    pub fn observe(&mut self, row: &IterationRow) -> Vec<Finding> {
        let mut out = Vec::new();
        let iter = row.iter as u64;

        // poisoning: any lane, any non-finite term
        if !self.tripped("poisoning") {
            let poisoned = [
                ("loss", row.loss),
                ("wl", row.wl),
                ("vias", row.vias),
                ("overflow", row.overflow),
                ("grad_norm", row.grad_norm),
            ]
            .into_iter()
            .find(|(_, v)| !v.is_finite());
            if let Some((field, _)) = poisoned {
                let ev = self.loss_window.clone();
                self.trip(
                    Finding {
                        rule: "poisoning",
                        severity: Severity::Critical,
                        score: f32::MAX,
                        iter,
                        message: format!("non-finite `{field}` at iteration {iter} — numbers downstream of this point are meaningless"),
                        evidence: ev.samples.clone(),
                    },
                    &mut out,
                );
            }
        }
        if row.lane.unwrap_or(0) != 0 {
            return out;
        }
        self.rows_seen += 1;
        self.loss_window.push(iter, row.loss);
        self.grad_window.push(iter, row.grad_norm);
        self.overflow_window.push(iter, row.overflow);

        if row.loss.is_finite() {
            // divergence: EWMA loss vs its running minimum
            let ewma = match self.ewma_loss {
                None => row.loss,
                Some(prev) => prev + EWMA_ALPHA * (row.loss - prev),
            };
            self.ewma_loss = Some(ewma);
            if self.rows_seen == 1 || ewma < self.min_ewma_loss {
                self.min_ewma_loss = ewma;
            }
            if self.rows_seen > WARMUP_ITERS
                && self.min_ewma_loss > 0.0
                && ewma > self.min_ewma_loss * DIVERGENCE_RATIO
                && !self.tripped("divergence")
            {
                let ratio = ewma / self.min_ewma_loss;
                let ev = self.loss_window.clone();
                self.trip(
                    Finding {
                        rule: "divergence",
                        severity: Severity::Critical,
                        score: ratio,
                        iter,
                        message: format!(
                            "smoothed loss {ewma:.3} is {ratio:.2}x its running minimum {:.3} — the optimization is diverging",
                            self.min_ewma_loss
                        ),
                        evidence: ev.samples.clone(),
                    },
                    &mut out,
                );
            }

            // best-loss tracking (stall budgets)
            match self.best_loss {
                Some(best) if row.loss < best * (1.0 - IMPROVE_EPS) => {
                    self.best_loss = Some(row.loss);
                    self.last_loss_improve = iter;
                }
                None => {
                    self.best_loss = Some(row.loss);
                    self.last_loss_improve = iter;
                }
                _ => {}
            }

            // oscillation: sign-flip rate of loss deltas at real amplitude
            if let Some(prev) = self.prev_loss {
                let delta = row.loss - prev;
                if self.delta_signs.len() == OSC_WINDOW {
                    self.delta_signs.remove(0);
                    self.delta_mags.remove(0);
                }
                self.delta_signs.push(delta > 0.0);
                self.delta_mags.push(delta.abs());
                if self.delta_signs.len() == OSC_WINDOW && !self.tripped("oscillation") {
                    let flips = self.delta_signs.windows(2).filter(|w| w[0] != w[1]).count() as f32
                        / (OSC_WINDOW - 1) as f32;
                    let mean_mag =
                        self.delta_mags.iter().sum::<f32>() / self.delta_mags.len() as f32;
                    let scale = self.ewma_loss.unwrap_or(0.0).abs().max(f32::EPSILON);
                    if flips > OSC_FLIP_RATE && mean_mag > OSC_MIN_REL_AMPLITUDE * scale {
                        let ev = self.loss_window.clone();
                        self.trip(
                            Finding {
                                rule: "oscillation",
                                severity: Severity::Warn,
                                score: flips,
                                iter,
                                message: format!(
                                    "loss direction flipped {:.0}% of the last {OSC_WINDOW} iterations at {:.1}% mean amplitude — likely an unstable learning rate or temperature",
                                    flips * 100.0,
                                    100.0 * mean_mag / scale
                                ),
                                evidence: ev.samples.clone(),
                            },
                            &mut out,
                        );
                    }
                }
            }
            self.prev_loss = Some(row.loss);
        }

        // gradient spike vs EWMA
        if row.grad_norm.is_finite() {
            if let Some(ewma_g) = self.ewma_grad {
                if self.rows_seen > WARMUP_ITERS
                    && ewma_g > 0.0
                    && row.grad_norm > ewma_g * GRAD_SPIKE_RATIO
                    && !self.tripped("grad_spike")
                {
                    let ratio = row.grad_norm / ewma_g;
                    let ev = self.grad_window.clone();
                    self.trip(
                        Finding {
                            rule: "grad_spike",
                            severity: Severity::Warn,
                            score: ratio,
                            iter,
                            message: format!(
                                "gradient norm {:.3} is {ratio:.1}x its smoothed level {ewma_g:.3} at iteration {iter}",
                                row.grad_norm
                            ),
                            evidence: ev.samples.clone(),
                        },
                        &mut out,
                    );
                }
            }
            self.ewma_grad = Some(match self.ewma_grad {
                None => row.grad_norm,
                Some(prev) => prev + EWMA_ALPHA * (row.grad_norm - prev),
            });
        }

        // overflow plateau
        if row.overflow.is_finite() {
            if self.rows_seen == 1 {
                self.first_overflow = row.overflow;
            }
            if self.rows_seen == 1 || row.overflow < self.best_overflow * 0.99 {
                self.best_overflow = row.overflow;
                self.last_overflow_improve = iter;
            }
            if self.rows_seen > WARMUP_ITERS
                && self.best_overflow > 0.0
                && self.best_overflow >= STALL_RESOLVED * self.first_overflow
                && iter.saturating_sub(self.last_overflow_improve) >= STALL_WINDOW
                && !self.tripped("overflow_stall")
            {
                let stalled = iter - self.last_overflow_improve;
                let ev = self.overflow_window.clone();
                self.trip(
                    Finding {
                        rule: "overflow_stall",
                        severity: Severity::Warn,
                        score: stalled as f32,
                        iter,
                        message: format!(
                            "overflow stuck at {:.3} for {stalled} iterations (best seen {:.3}) — capacity pressure is not resolving",
                            row.overflow, self.best_overflow
                        ),
                        evidence: ev.samples.clone(),
                    },
                    &mut out,
                );
            }
        }
        out
    }
}

/// Builds the `rate_collapse` finding when `current` iterations/sec fall
/// below [`RATE_COLLAPSE_RATIO`] of a comparable `baseline` (from the
/// ledger's last run with the same config fingerprint). Pure — the CLI
/// and `dgr doctor` call it where wall-clock context exists.
pub fn rate_collapse_finding(current: f64, baseline: f64) -> Option<Finding> {
    if !(current.is_finite() && baseline.is_finite()) || baseline <= 0.0 || current <= 0.0 {
        return None;
    }
    if current >= baseline * RATE_COLLAPSE_RATIO {
        return None;
    }
    let ratio = current / baseline;
    Some(Finding {
        rule: "rate_collapse",
        severity: Severity::Warn,
        score: (1.0 / ratio.max(1e-9)) as f32,
        iter: 0,
        message: format!(
            "{current:.1} iterations/sec is {:.0}% of the last comparable run's {baseline:.1} — the run is anomalously slow",
            ratio * 100.0
        ),
        evidence: vec![(0, baseline as f32), (0, current as f32)],
    })
}

/// Replays telemetry rows (oldest first) through a fresh [`RuleEngine`]
/// and returns every finding, ranked most severe first. This is the
/// engine behind `dgr doctor`.
pub fn analyze_rows(rows: &[IterationRow]) -> Vec<Finding> {
    let mut engine = RuleEngine::new();
    let mut findings = Vec::new();
    for row in rows {
        findings.extend(engine.observe(row));
    }
    rank_findings(&mut findings);
    findings
}

/// Parses telemetry JSONL text into rows (the inverse of
/// [`IterationRow::to_json`]; `null` numerics map to NaN so the
/// poisoning rule sees them).
///
/// # Errors
///
/// Returns `(line_number, message)` on malformed JSON.
pub fn rows_from_jsonl(text: &str) -> Result<Vec<IterationRow>, (usize, String)> {
    let values = parse_jsonl(text).map_err(|(line, e)| (line, e.to_string()))?;
    let mut rows = Vec::with_capacity(values.len());
    for (i, v) in values.iter().enumerate() {
        let num = |key: &str| -> f32 {
            match v.get(key) {
                Some(JsonValue::Num(n)) => *n as f32,
                _ => f32::NAN,
            }
        };
        let iter = v
            .get("iter")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| (i + 1, "row missing `iter`".to_string()))?;
        rows.push(IterationRow {
            iter: iter as usize,
            loss: num("loss"),
            wl: num("wl"),
            vias: num("vias"),
            overflow: num("overflow"),
            temperature: num("temperature"),
            grad_norm: num("grad_norm"),
            mem_rss: v.get("mem_rss").and_then(JsonValue::as_u64),
            lane: v.get("lane").and_then(JsonValue::as_u64),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: usize, loss: f32) -> IterationRow {
        IterationRow {
            iter,
            loss,
            wl: loss * 0.6,
            vias: loss * 0.1,
            overflow: 0.0,
            temperature: 1.0,
            grad_norm: loss * 0.01,
            mem_rss: None,
            lane: None,
        }
    }

    #[test]
    fn healthy_decay_trips_nothing() {
        let rows: Vec<_> = (0..400)
            .map(|i| row(i, 100.0 * (-0.01 * i as f32).exp() + 5.0))
            .collect();
        assert_eq!(analyze_rows(&rows), vec![]);
    }

    #[test]
    fn exploding_loss_trips_divergence() {
        let rows: Vec<_> = (0..120)
            .map(|i| row(i, 50.0 * (1.0 + 0.08 * i as f32)))
            .collect();
        let findings = analyze_rows(&rows);
        let div = findings
            .iter()
            .find(|f| f.rule == "divergence")
            .expect("divergence tripped");
        assert_eq!(div.severity, Severity::Critical);
        assert!(!div.evidence.is_empty(), "evidence window recorded");
        assert!(div.evidence.first().unwrap().0 < div.iter);
    }

    #[test]
    fn nan_trips_poisoning_once() {
        let mut rows: Vec<_> = (0..40).map(|i| row(i, 80.0 - i as f32)).collect();
        rows[20].loss = f32::NAN;
        rows[25].grad_norm = f32::INFINITY;
        let findings = analyze_rows(&rows);
        let poison: Vec<_> = findings.iter().filter(|f| f.rule == "poisoning").collect();
        assert_eq!(poison.len(), 1, "{findings:?}");
        assert_eq!(poison[0].iter, 20);
        assert_eq!(poison[0].severity, Severity::Critical);
    }

    #[test]
    fn big_swings_trip_oscillation_but_jitter_does_not() {
        // 30% swings around a flat loss: oscillation
        let noisy: Vec<_> = (0..200)
            .map(|i| row(i, 100.0 + if i % 2 == 0 { 30.0 } else { -30.0 }))
            .collect();
        let findings = analyze_rows(&noisy);
        assert!(
            findings.iter().any(|f| f.rule == "oscillation"),
            "{findings:?}"
        );
        // 0.1% jitter: healthy late-stage noise
        let calm: Vec<_> = (0..200)
            .map(|i| row(i, 100.0 + if i % 2 == 0 { 0.1 } else { -0.1 }))
            .collect();
        assert!(analyze_rows(&calm).iter().all(|f| f.rule != "oscillation"));
    }

    #[test]
    fn gradient_spike_trips_after_warmup() {
        let mut rows: Vec<_> = (0..60).map(|i| row(i, 90.0 - i as f32)).collect();
        rows[40].grad_norm = 500.0;
        let findings = analyze_rows(&rows);
        let spike = findings.iter().find(|f| f.rule == "grad_spike").unwrap();
        assert_eq!(spike.iter, 40);
    }

    #[test]
    fn stuck_overflow_trips_the_stall_rule() {
        let rows: Vec<_> = (0..400)
            .map(|i| {
                let mut r = row(i, 50.0 - 0.01 * i as f32);
                r.overflow = 3.0;
                r
            })
            .collect();
        let findings = analyze_rows(&rows);
        assert!(
            findings.iter().any(|f| f.rule == "overflow_stall"),
            "{findings:?}"
        );
    }

    #[test]
    fn a_plateau_under_half_the_starting_overflow_is_not_a_stall() {
        // overflow decays towards `floor` × its start and stays there
        let run = |floor: f32| -> Vec<IterationRow> {
            (0..600)
                .map(|i| {
                    let mut r = row(i, 50.0 - 0.01 * i as f32);
                    r.overflow = 400.0 * (floor + (1.0 - floor) * (-0.05 * i as f32).exp());
                    r
                })
                .collect()
        };
        let stalled = |rows: &[IterationRow]| {
            let findings = analyze_rows(rows);
            findings.iter().any(|f| f.rule == "overflow_stall")
        };
        assert!(!stalled(&run(0.35)), "settled at a third of its start");
        assert!(stalled(&run(0.8)), "stuck at four fifths of its start");
    }

    #[test]
    fn findings_rank_critical_first() {
        let mut f = vec![
            Finding {
                rule: "oscillation",
                severity: Severity::Warn,
                score: 0.9,
                iter: 5,
                message: String::new(),
                evidence: vec![],
            },
            Finding {
                rule: "divergence",
                severity: Severity::Critical,
                score: 3.0,
                iter: 9,
                message: String::new(),
                evidence: vec![],
            },
        ];
        rank_findings(&mut f);
        assert_eq!(f[0].rule, "divergence");
    }

    #[test]
    fn rate_collapse_compares_against_baseline() {
        assert!(rate_collapse_finding(10.0, 15.0).is_none());
        let f = rate_collapse_finding(4.0, 100.0).unwrap();
        assert_eq!(f.rule, "rate_collapse");
        assert!(f.message.contains("4.0"));
        assert!(rate_collapse_finding(4.0, 0.0).is_none());
        assert!(rate_collapse_finding(f64::NAN, 10.0).is_none());
    }

    #[test]
    fn jsonl_round_trips_rows_including_nan() {
        let mut r = row(3, 12.5);
        r.loss = f32::NAN; // serializes as null
        let text = format!("{}\n{}\n", row(2, 13.0).to_json(), r.to_json());
        let rows = rows_from_jsonl(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].iter, 2);
        assert!(rows[1].loss.is_nan(), "null loss re-read as NaN");
        assert!(rows_from_jsonl("{\"loss\":1}\n").is_err(), "iter required");
    }

    #[test]
    fn finding_json_carries_the_evidence_window() {
        let f = Finding {
            rule: "divergence",
            severity: Severity::Critical,
            score: 2.5,
            iter: 40,
            message: "boom".into(),
            evidence: vec![(38, 1.0), (39, 2.0), (40, 4.0)],
        };
        let json = f.to_json();
        assert!(json.contains("\"rule\":\"divergence\""));
        assert!(json.contains("\"window_start\":38"));
        assert!(json.contains("\"window_end\":40"));
        assert!(json.contains("\"window_values\":[1,2,4]"));
    }
}
