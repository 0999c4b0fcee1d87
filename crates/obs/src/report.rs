//! Deterministic self-contained HTML post-mortem reports (`dgr report`).
//!
//! [`render_report`] is a pure function of a routing run's records —
//! telemetry rows, a phase table, a span profile and sentinel findings —
//! and renders one HTML document with:
//!
//! * loss / overflow / temperature training curves (inline SVG),
//! * a per-phase span breakdown,
//! * the span profile's hot frames and heaviest stacks, and
//! * the sentinel health band with its ranked findings.
//!
//! It reads no text: `dgr report` reads each file with the reader that
//! lives beside its writer ([`crate::rows_from_jsonl`],
//! [`crate::span::parse_trace`], [`FoldedProfile::parse`]), and a `dgrd`
//! job's `/report` hands over the rows and findings its scope already
//! holds ([`crate::report_of`]).
//!
//! The output is **deterministic**: identical inputs yield byte-identical
//! HTML (no timestamps, no randomized ids, no map-ordered iteration), so
//! reports can be golden-tested and diffed across runs. It is also
//! **self-contained**: inline CSS and SVG only, no scripts, no external
//! fetches — one file that renders anywhere, offline.

use crate::profile::FoldedProfile;
use crate::sentinel::{Finding, Severity};
use crate::span::PhaseTotal;
use crate::telemetry::IterationRow;
use std::fmt::Write as _;

/// The records a report is rendered from. Every field is optional;
/// missing inputs render as an explanatory placeholder section.
#[derive(Debug, Clone, Default)]
pub struct ReportInputs {
    /// Report title (design or run name).
    pub title: String,
    /// Telemetry rows, oldest first.
    pub telemetry: Option<Vec<IterationRow>>,
    /// The phase table, longest total first.
    pub phases: Option<Vec<PhaseTotal>>,
    /// A span profile. Unlike the inputs above this section renders only
    /// when present — profiles are opt-in (`--profile`), so reports
    /// rendered without one stay byte-identical to pre-profiler reports.
    pub profile: Option<FoldedProfile>,
    /// Sentinel findings, worst first ([`crate::report_of`] fills them
    /// in). Renders a health-timeline annotation band plus the ranked
    /// finding table; like `profile`, the section only appears when the
    /// input is present, so pre-sentinel reports stay byte-identical.
    pub health: Option<Vec<Finding>>,
}

/// Renders the post-mortem HTML document.
pub fn render_report(inputs: &ReportInputs) -> String {
    let mut html = String::with_capacity(64 * 1024);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        html,
        "<title>DGR report — {}</title>",
        escape(&inputs.title)
    );
    html.push_str(STYLE);
    html.push_str("</head>\n<body>\n");
    let _ = writeln!(html, "<h1>DGR post-mortem — {}</h1>", escape(&inputs.title));

    render_curves(&mut html, inputs.telemetry.as_deref());
    render_spans(&mut html, inputs.phases.as_deref());
    if let Some(profile) = &inputs.profile {
        render_profile(&mut html, profile);
    }
    if let Some(findings) = &inputs.health {
        render_health(&mut html, findings);
    }

    html.push_str("</body>\n</html>\n");
    html
}

const STYLE: &str = "<style>\n\
body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
padding:0 1rem;color:#1a1a2e;background:#fafafa}\n\
h1{font-size:1.4rem;border-bottom:2px solid #1a1a2e;padding-bottom:.3rem}\n\
h2{font-size:1.1rem;margin-top:2rem}\n\
table{border-collapse:collapse;font-size:.85rem;font-variant-numeric:tabular-nums}\n\
th,td{border:1px solid #ccc;padding:.25rem .6rem;text-align:right}\n\
th{background:#eee}td.l,th.l{text-align:left}\n\
figure{display:inline-block;margin:.5rem 1rem .5rem 0;vertical-align:top}\n\
figcaption{font-size:.78rem;color:#555;max-width:24rem}\n\
p.missing{color:#777;font-style:italic}\n\
p.note{font-size:.8rem;color:#555}\n\
svg{background:#fff;border:1px solid #ddd}\n\
</style>\n";

// ---------------------------------------------------------------------------
// telemetry curves
// ---------------------------------------------------------------------------

/// `v` as the `f64` its shortest decimal spells: the value the row's JSON
/// line reads back as, so curves plotted from live rows and from the
/// telemetry file print the same digits (`38962.92`, where widening the
/// `f32` itself prints `38962.922`).
fn wide(v: f32) -> f64 {
    v.to_string().parse().unwrap_or(f64::NAN)
}

/// A plotted telemetry metric: label, stroke colour, row accessor.
type CurveMetric = (&'static str, &'static str, fn(&IterationRow) -> f32);

const CURVE_METRICS: [CurveMetric; 3] = [
    ("loss", "#b13a3a", |r: &IterationRow| r.loss),
    ("overflow", "#3a66b1", |r: &IterationRow| r.overflow),
    ("temperature", "#3a9b57", |r: &IterationRow| r.temperature),
];

fn render_curves(html: &mut String, rows: Option<&[IterationRow]>) {
    html.push_str("<h2>Training curves</h2>\n");
    let Some(rows) = rows else {
        html.push_str("<p class=\"missing\">No telemetry supplied (--telemetry).</p>\n");
        return;
    };
    if rows.is_empty() {
        html.push_str("<p class=\"missing\">Telemetry file contained no rows.</p>\n");
        return;
    }
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    let _ = writeln!(
        html,
        "<p class=\"note\">{} iterations · loss {} → {} · final overflow term {}</p>",
        rows.len(),
        fmt(wide(first.loss)),
        fmt(wide(last.loss)),
        fmt(wide(last.overflow)),
    );
    for (label, color, pick) in CURVE_METRICS {
        let series: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| (r.iter as f64, wide(pick(r))))
            .filter(|&(_, y)| y.is_finite())
            .collect();
        html.push_str("<figure>");
        html.push_str(&line_chart(&series, color));
        let _ = write!(html, "<figcaption>{label} vs. iteration</figcaption>");
        html.push_str("</figure>\n");
    }
}

/// Renders one 360×140 line chart as inline SVG.
fn line_chart(series: &[(f64, f64)], color: &str) -> String {
    const W: f64 = 360.0;
    const H: f64 = 140.0;
    const L: f64 = 52.0; // left margin (y labels)
    const R: f64 = 8.0;
    const T: f64 = 10.0;
    const B: f64 = 22.0;
    let mut svg = format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    if series.is_empty() {
        svg.push_str(
            "<text x=\"180\" y=\"74\" text-anchor=\"middle\" \
             font-size=\"11\" fill=\"#777\">no finite samples</text></svg>",
        );
        return svg;
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in series {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 - x0 < 1e-12 {
        x0 -= 0.5;
        x1 += 0.5;
    }
    if y1 - y0 < 1e-12 {
        let pad = if y0.abs() < 1e-12 {
            0.5
        } else {
            y0.abs() * 0.1
        };
        y0 -= pad;
        y1 += pad;
    }
    let px = |x: f64| L + (x - x0) / (x1 - x0) * (W - L - R);
    let py = |y: f64| H - B - (y - y0) / (y1 - y0) * (H - T - B);
    // frame + axis labels
    let _ = write!(
        svg,
        "<rect x=\"{L}\" y=\"{T}\" width=\"{:.1}\" height=\"{:.1}\" \
         fill=\"none\" stroke=\"#bbb\"/>",
        W - L - R,
        H - T - B
    );
    let _ = write!(
        svg,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#555\" \
         text-anchor=\"end\">{}</text>",
        L - 4.0,
        T + 8.0,
        fmt(y1)
    );
    let _ = write!(
        svg,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#555\" \
         text-anchor=\"end\">{}</text>",
        L - 4.0,
        H - B,
        fmt(y0)
    );
    let _ = write!(
        svg,
        "<text x=\"{L}\" y=\"{:.1}\" font-size=\"9\" fill=\"#555\">{}</text>",
        H - B + 12.0,
        fmt(x0)
    );
    let _ = write!(
        svg,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#555\" \
         text-anchor=\"end\">{}</text>",
        W - R,
        H - B + 12.0,
        fmt(x1)
    );
    let mut points = String::new();
    for &(x, y) in series {
        let _ = write!(points, "{:.1},{:.1} ", px(x), py(y));
    }
    let _ = write!(
        svg,
        "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" \
         points=\"{}\"/></svg>",
        points.trim_end()
    );
    svg
}

// ---------------------------------------------------------------------------
// span breakdown
// ---------------------------------------------------------------------------

fn render_spans(html: &mut String, spans: Option<&[PhaseTotal]>) {
    html.push_str("<h2>Phase breakdown</h2>\n");
    let Some(spans) = spans else {
        html.push_str("<p class=\"missing\">No Chrome trace supplied (--trace).</p>\n");
        return;
    };
    if spans.is_empty() {
        html.push_str("<p class=\"missing\">Trace contains no complete span events.</p>\n");
        return;
    }
    html.push_str(
        "<table>\n<tr><th class=\"l\">span</th><th>count</th><th>total ms</th>\
         <th>mean ms</th></tr>\n",
    );
    for s in spans {
        let _ = writeln!(
            html,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            escape(&s.name),
            s.count,
            fmt(s.total_us / 1e3),
            fmt(s.total_us / 1e3 / s.count.max(1) as f64),
        );
    }
    html.push_str("</table>\n");
}

// ---------------------------------------------------------------------------
// span profile
// ---------------------------------------------------------------------------

/// Renders the collapsed-stack profile section: total self time, the
/// hot-leaf-frame ranking, and the heaviest whole stacks. Only called
/// when a profile input is present.
fn render_profile(html: &mut String, profile: &FoldedProfile) {
    html.push_str("<h2>Span profile</h2>\n");
    let total = profile.total();
    if total == 0 {
        html.push_str("<p class=\"missing\">Profile contains no stacks.</p>\n");
        return;
    }
    let _ = writeln!(
        html,
        "<p class=\"note\">{} ms of self time in spans, over {} stacks</p>",
        fmt(total as f64 / 1e3),
        profile.counts.len()
    );
    let hot = profile.hot_frames();
    let hot = hot.iter().map(|(name, us)| (name.as_str(), *us));
    share_table(html, "Hot frames (self time)", "frame", hot, total);
    let mut stacks: Vec<(&str, u64)> = profile
        .counts
        .iter()
        .map(|(s, &us)| (s.as_str(), us))
        .collect();
    stacks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    share_table(html, "Heaviest stacks", "stack", stacks.into_iter(), total);
}

/// The first 20 `(label, µs)` rows with their share of `total`.
fn share_table<'a>(
    html: &mut String,
    title: &str,
    label: &str,
    rows: impl Iterator<Item = (&'a str, u64)>,
    total: u64,
) {
    let _ = writeln!(
        html,
        "<h3>{title}</h3>\n<table>\n<tr><th class=\"l\">{label}</th><th>self µs</th><th>%</th></tr>"
    );
    for (name, us) in rows.take(20) {
        let _ = writeln!(
            html,
            "<tr><td class=\"l\">{}</td><td>{us}</td><td>{}%</td></tr>",
            escape(name),
            fmt(us as f64 / total as f64 * 100.0),
        );
    }
    html.push_str("</table>\n");
}

// ---------------------------------------------------------------------------
// sentinel health band
// ---------------------------------------------------------------------------

/// Renders the sentinel health section: a timeline annotation band (one
/// colored span per finding's evidence window over the iteration axis)
/// plus the ranked finding table. Only called when a health input is
/// present; a run with no findings renders an explicit all-clear.
fn render_health(html: &mut String, findings: &[Finding]) {
    html.push_str("<h2>Convergence health</h2>\n");
    if findings.is_empty() {
        html.push_str("<p class=\"note\">All sentinel rules passed — no findings.</p>\n");
        return;
    }
    let max_iter = findings
        .iter()
        .map(|f| f.window().1.max(f.iter))
        .max()
        .unwrap_or(0)
        .max(1);
    // annotation band: iteration axis with one span per evidence window
    const W: f64 = 720.0;
    const LANE_H: f64 = 16.0;
    let h = 24.0 + findings.len() as f64 * LANE_H;
    let _ = write!(
        html,
        "<figure><svg class=\"healthband\" width=\"{W}\" height=\"{h}\" \
         viewBox=\"0 0 {W} {h}\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    let px = |it: u64| 4.0 + it as f64 / max_iter as f64 * (W - 8.0);
    let _ = write!(
        html,
        "<line x1=\"4\" y1=\"{0:.1}\" x2=\"{1:.1}\" y2=\"{0:.1}\" stroke=\"#bbb\"/>",
        h - 14.0,
        W - 4.0
    );
    let _ = write!(
        html,
        "<text x=\"4\" y=\"{:.1}\" font-size=\"9\" fill=\"#555\">iter 0</text>\
         <text x=\"{:.1}\" y=\"{0:.1}\" font-size=\"9\" fill=\"#555\" \
         text-anchor=\"end\">iter {max_iter}</text>",
        h - 2.0,
        W - 4.0
    );
    for (lane, f) in findings.iter().enumerate() {
        let color = match f.severity {
            Severity::Critical => "#b13a3a",
            Severity::Warn => "#d98e2b",
        };
        let (start, end) = f.window();
        let x0 = px(start);
        let x1 = px(end.max(start)).max(x0 + 2.0);
        let y = 4.0 + lane as f64 * LANE_H;
        let _ = write!(
            html,
            "<rect x=\"{x0:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"10\" \
             fill=\"{color}\" fill-opacity=\"0.75\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#333\">{}</text>",
            x1 - x0,
            x1 + 4.0,
            y + 9.0,
            escape(f.rule)
        );
    }
    html.push_str(
        "</svg><figcaption>health timeline — each bar spans a finding's evidence \
         window (orange = warn, red = critical)</figcaption></figure>\n",
    );
    html.push_str(
        "<table>\n<tr><th>#</th><th class=\"l\">rule</th><th class=\"l\">severity</th>\
         <th>iter</th><th>window</th><th class=\"l\">finding</th></tr>\n",
    );
    for (rank, f) in findings.iter().enumerate() {
        let (start, end) = f.window();
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td>\
             <td>{start}–{end}</td><td class=\"l\">{}</td></tr>",
            rank + 1,
            escape(f.rule),
            f.severity.as_str(),
            f.iter,
            escape(&f.message),
        );
    }
    html.push_str("</table>\n");
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Escapes text for HTML element/attribute content.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Compact deterministic number formatting: up to 3 decimals, trailing
/// zeros trimmed.
fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "∞".to_string();
    }
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" || s == "-0" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: usize, loss: f32, overflow: f32, temperature: f32) -> IterationRow {
        IterationRow {
            iter,
            loss,
            wl: 8.0,
            vias: 2.0,
            overflow,
            temperature,
            grad_norm: 3.0,
        }
    }

    fn tiny_inputs() -> ReportInputs {
        ReportInputs {
            title: "unit <0>".into(),
            telemetry: Some(vec![row(0, 10.0, 1.0, 1.0), row(1, 9.0, 0.5, 0.9)]),
            phases: Some(vec![PhaseTotal {
                name: "train".into(),
                count: 2,
                total_us: 2000.0,
            }]),
            profile: None,
            health: None,
        }
    }

    #[test]
    fn full_report_contains_every_section() {
        let html = render_report(&tiny_inputs());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Training curves</h2>"));
        assert!(html.contains(
            "<p class=\"note\">2 iterations · loss 10 → 9 · final overflow term 0.5</p>"
        ));
        assert!(html.contains("<h1>DGR post-mortem — unit &lt;0&gt;</h1>"));
        assert!(html.contains("<tr><td class=\"l\">train</td><td>2</td><td>2</td><td>1</td></tr>"));
        assert!(html.contains("<polyline"));
        assert!(!html.contains("<script"), "report must be JS-free");
    }

    #[test]
    fn report_is_deterministic() {
        let inputs = tiny_inputs();
        assert_eq!(render_report(&inputs), render_report(&inputs));
    }

    #[test]
    fn missing_inputs_render_placeholders() {
        let html = render_report(&ReportInputs {
            title: "empty".into(),
            ..Default::default()
        });
        assert_eq!(html.matches("class=\"missing\"").count(), 2);
    }

    #[test]
    fn profile_section_renders_only_when_supplied() {
        let without = render_report(&tiny_inputs());
        assert!(!without.contains("Span profile"));
        let mut inputs = tiny_inputs();
        inputs.profile = Some(FoldedProfile::parse(
            "route;train;forward 30\nroute;train;backward 50\n",
        ));
        let with = render_report(&inputs);
        assert!(with.contains("<h2>Span profile</h2>"));
        assert!(with.contains("0.08 ms of self time in spans, over 2 stacks"));
        assert!(with.contains("route;train;backward"));
        assert!(with.contains("Hot frames"));
    }

    #[test]
    fn health_section_renders_only_when_supplied() {
        let without = render_report(&tiny_inputs());
        assert!(!without.contains("Convergence health"));
        // findings render the band and the ranked table
        let mut inputs = tiny_inputs();
        inputs.health = Some(vec![Finding {
            rule: "divergence",
            severity: Severity::Critical,
            score: 2.5,
            iter: 40,
            message: "loss 2.5x its minimum".into(),
            evidence: vec![(20, 1.0), (30, 2.0), (40, 4.0)],
        }]);
        let with = render_report(&inputs);
        assert!(with.contains("<h2>Convergence health</h2>"));
        assert!(with.contains("class=\"healthband\""));
        assert!(with.contains(
            "<td class=\"l\">divergence</td><td class=\"l\">critical</td><td>40</td><td>20–40</td>"
        ));
        assert!(!with.contains("<script"));
        // an empty (healthy) timeline renders the all-clear note
        let mut inputs = tiny_inputs();
        inputs.health = Some(Vec::new());
        let ok = render_report(&inputs);
        assert!(ok.contains("All sentinel rules passed"));
    }

    /// Curves print an `f32` as its shortest decimal, which is what the
    /// row's JSON line says; the widened `f32` has more digits.
    #[test]
    fn curve_values_print_their_shortest_decimal() {
        assert_eq!(fmt(wide(38962.92)), "38962.92");
        assert_eq!(fmt(f64::from(38962.92f32)), "38962.922");
        assert!(wide(f32::NAN).is_nan() && wide(f32::INFINITY).is_infinite());
        let mut inputs = tiny_inputs();
        inputs.telemetry = Some(vec![row(0, 38962.92, 0.1, 1.0)]);
        let html = render_report(&inputs);
        assert!(html.contains("loss 38962.92 → 38962.92 · final overflow term 0.1</p>"));
    }

    #[test]
    fn chart_handles_degenerate_series() {
        // single point and flat series must not divide by zero
        let svg = line_chart(&[(0.0, 5.0)], "#000");
        assert!(svg.contains("<polyline"));
        let svg = line_chart(&[(0.0, 5.0), (1.0, 5.0)], "#000");
        assert!(svg.contains("<polyline"));
        let svg = line_chart(&[], "#000");
        assert!(svg.contains("no finite samples"));
    }

    #[test]
    fn number_formatting_is_compact() {
        assert_eq!(fmt(1.0), "1");
        assert_eq!(fmt(0.125), "0.125");
        assert_eq!(fmt(0.12345), "0.123");
        assert_eq!(fmt(-0.0001), "0");
        assert_eq!(fmt(f64::INFINITY), "∞");
    }
}
