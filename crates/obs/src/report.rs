//! Deterministic self-contained HTML post-mortem reports (`dgr report`).
//!
//! [`render_report`] is a pure function of a routing run's records —
//! telemetry rows, a snapshot stream, a phase table, a span profile and
//! sentinel findings — and renders one HTML document with:
//!
//! * loss / overflow / temperature training curves (inline SVG),
//! * one overflow heatmap per congestion snapshot (per-g-cell worst
//!   incident-edge utilization),
//! * the ranked per-net attribution table, and
//! * a per-phase span breakdown.
//!
//! It reads no text: `dgr report` reads each file with the reader that
//! lives beside its writer ([`crate::rows_from_jsonl`],
//! [`SnapshotStream::parse`], [`crate::span::parse_trace`],
//! [`FoldedProfile::parse`]), and the live `/report` hands over the rows,
//! findings and span totals it already holds ([`crate::report_of`]).
//!
//! The output is **deterministic**: identical inputs yield byte-identical
//! HTML (no timestamps, no randomized ids, no map-ordered iteration), so
//! reports can be golden-tested and diffed across runs. It is also
//! **self-contained**: inline CSS and SVG only, no scripts, no external
//! fetches — one file that renders anywhere, offline.

use crate::profile::FoldedProfile;
use crate::sentinel::{Finding, Severity};
use crate::snapshot::{SnapshotHeader, SnapshotRecord, SnapshotStream};
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
    /// A snapshot stream.
    pub snapshots: Option<SnapshotStream>,
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
    render_snapshots(&mut html, inputs.snapshots.as_ref());
    render_attribution(&mut html, inputs.snapshots.as_ref());
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
// congestion heatmaps
// ---------------------------------------------------------------------------

fn render_snapshots(html: &mut String, stream: Option<&SnapshotStream>) {
    html.push_str("<h2>Congestion snapshots</h2>\n");
    let Some(stream) = stream else {
        html.push_str("<p class=\"missing\">No snapshot stream supplied (--snap).</p>\n");
        return;
    };
    let Some(header) = &stream.header else {
        html.push_str("<p class=\"missing\">Snapshot stream has no header record.</p>\n");
        return;
    };
    if stream.snapshots.is_empty() {
        html.push_str("<p class=\"missing\">Snapshot stream contains no snapshots.</p>\n");
        return;
    }
    let _ = writeln!(
        html,
        "<p class=\"note\">{}×{} g-cells · {} snapshots · color = worst incident-edge \
         utilization per g-cell (white ≤ 50%, blue → orange → dark red ≥ 125% of \
         capacity)</p>",
        header.width,
        header.height,
        stream.snapshots.len()
    );
    for snap in &stream.snapshots {
        html.push_str("<figure>");
        html.push_str(&heatmap_svg(header, snap));
        let _ = write!(
            html,
            "<figcaption>iter {} ({}) — {} overflowed edges, total overflow {}, \
             peak {}</figcaption>",
            snap.iter,
            escape(&snap.phase),
            snap.overflowed_edges,
            fmt(snap.total_overflow as f64),
            fmt(snap.peak_overflow as f64)
        );
        html.push_str("</figure>\n");
    }
}

/// Piecewise-linear color ramp over utilization (deterministic integer
/// RGB).
fn ramp_color(u: f32) -> String {
    const STOPS: [(f32, [i32; 3]); 5] = [
        (0.0, [247, 251, 255]),
        (0.5, [107, 174, 214]),
        (0.8, [254, 217, 118]),
        (1.0, [253, 141, 60]),
        (1.25, [165, 15, 21]),
    ];
    let u = if u.is_finite() { u } else { f32::MAX };
    if u <= STOPS[0].0 {
        let [r, g, b] = STOPS[0].1;
        return format!("#{r:02x}{g:02x}{b:02x}");
    }
    for w in STOPS.windows(2) {
        let (u0, c0) = w[0];
        let (u1, c1) = w[1];
        if u <= u1 {
            let t = ((u - u0) / (u1 - u0)) as f64;
            let mix = |a: i32, b: i32| (a as f64 + t * (b - a) as f64).round() as i32;
            return format!(
                "#{:02x}{:02x}{:02x}",
                mix(c0[0], c1[0]),
                mix(c0[1], c1[1]),
                mix(c0[2], c1[2])
            );
        }
    }
    let [r, g, b] = STOPS[STOPS.len() - 1].1;
    format!("#{r:02x}{g:02x}{b:02x}")
}

/// Worst incident-edge utilization of cell `(x, y)`.
fn cell_utilization(header: &SnapshotHeader, snap: &SnapshotRecord, x: u32, y: u32) -> f32 {
    let w = header.width as usize;
    let h = header.height as usize;
    let (x, y) = (x as usize, y as usize);
    let mut worst = 0.0f32;
    let mut consider = |demand: f32, cap: f32| {
        let u = if cap > 0.0 {
            demand / cap
        } else if demand > 1e-6 {
            f32::INFINITY
        } else {
            0.0
        };
        worst = worst.max(u);
    };
    // horizontal edges left/right of the cell: row-major, w−1 per row
    if w > 1 {
        if x > 0 {
            let e = y * (w - 1) + (x - 1);
            consider(snap.h_demand[e], header.h_capacity[e]);
        }
        if x < w - 1 {
            let e = y * (w - 1) + x;
            consider(snap.h_demand[e], header.h_capacity[e]);
        }
    }
    // vertical edges below/above the cell: row-major, w per row, h−1 rows
    if h > 1 {
        if y > 0 {
            let e = (y - 1) * w + x;
            consider(snap.v_demand[e], header.v_capacity[e]);
        }
        if y < h - 1 {
            let e = y * w + x;
            consider(snap.v_demand[e], header.v_capacity[e]);
        }
    }
    worst
}

/// Renders one snapshot as a per-cell heatmap SVG, top row = max y
/// (schematic orientation).
fn heatmap_svg(header: &SnapshotHeader, snap: &SnapshotRecord) -> String {
    let w = header.width.max(1);
    let h = header.height.max(1);
    let cell = (320 / w.max(h)).clamp(3, 14);
    let (sw, sh) = (w * cell, h * cell);
    let mut svg = format!(
        "<svg class=\"heatmap\" width=\"{sw}\" height=\"{sh}\" \
         viewBox=\"0 0 {sw} {sh}\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    for y in 0..h {
        for x in 0..w {
            let u = cell_utilization(header, snap, x, y);
            let _ = write!(
                svg,
                "<rect x=\"{}\" y=\"{}\" width=\"{cell}\" height=\"{cell}\" fill=\"{}\"/>",
                x * cell,
                (h - 1 - y) * cell,
                ramp_color(u)
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

// ---------------------------------------------------------------------------
// attribution table
// ---------------------------------------------------------------------------

fn render_attribution(html: &mut String, stream: Option<&SnapshotStream>) {
    html.push_str("<h2>Per-net cost attribution</h2>\n");
    let Some(attr) = stream.and_then(|s| s.attributions.last()) else {
        html.push_str(
            "<p class=\"missing\">No attribution record in the snapshot stream \
             (written when a solution is extracted with --snap).</p>\n",
        );
        return;
    };
    let _ = writeln!(
        html,
        "<p class=\"note\">phase {} · {} nets · overflow mass {} ({} charged to nets; \
         the remainder sits on edges crossed by no net wire — pure via pressure)</p>",
        escape(&attr.phase),
        attr.total_nets,
        fmt(attr.total_excess as f64),
        fmt(attr.charged_excess as f64),
    );
    if attr.nets.is_empty() {
        html.push_str("<p class=\"missing\">No nets carry overflow — nothing to rank.</p>\n");
        return;
    }
    html.push_str(
        "<table>\n<tr><th>#</th><th class=\"l\">net</th><th>WL</th><th>turns</th>\
         <th>overflow share</th><th>share %</th><th>edges</th><th>weighted cost</th></tr>\n",
    );
    let total = attr.total_excess.max(1e-12);
    for (rank, n) in attr.nets.iter().enumerate() {
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td class=\"l\">{} <small>(#{})</small></td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}%</td><td>{}</td><td>{}</td></tr>",
            rank + 1,
            escape(&n.name),
            n.net,
            n.wirelength,
            n.turns,
            fmt(n.overflow_share as f64),
            fmt((n.overflow_share / total * 100.0) as f64),
            n.overflowed_edges,
            fmt(n.cost),
        );
    }
    html.push_str("</table>\n");
    if attr.ranked_nets as usize > attr.nets.len() {
        let _ = writeln!(
            html,
            "<p class=\"note\">table truncated: {} of {} offending nets shown.</p>",
            attr.nets.len(),
            attr.ranked_nets
        );
    }
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
    use crate::snapshot::{AttributionRecord, NetShare};

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
        let header = SnapshotHeader {
            width: 2,
            height: 2,
            h_capacity: vec![1.0, 1.0],
            v_capacity: vec![1.0, 1.0],
        };
        let snap = SnapshotRecord {
            iter: 1,
            phase: "final".into(),
            h_demand: vec![2.0, 0.0],
            v_demand: vec![0.0, 0.0],
            h_overflow: vec![1.0, 0.0],
            v_overflow: vec![0.0, 0.0],
            overflowed_edges: 1,
            total_overflow: 1.0,
            peak_overflow: 1.0,
        };
        let attr = AttributionRecord {
            phase: "final".into(),
            total_nets: 2,
            ranked_nets: 1,
            total_excess: 1.0,
            charged_excess: 1.0,
            nets: vec![NetShare {
                net: 0,
                name: "n<0>".into(),
                wirelength: 3,
                turns: 1,
                overflow_share: 1.0,
                overflowed_edges: 1,
                cost: 505.5,
            }],
        };
        ReportInputs {
            title: "unit".into(),
            telemetry: Some(vec![row(0, 10.0, 1.0, 1.0), row(1, 9.0, 0.5, 0.9)]),
            snapshots: Some(SnapshotStream {
                header: Some(header),
                snapshots: vec![snap],
                attributions: vec![attr],
            }),
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
        assert!(html.contains("<svg class=\"heatmap\""));
        assert!(html.contains("n&lt;0&gt;"), "net names are escaped");
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
        assert_eq!(html.matches("class=\"missing\"").count(), 4);
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
    fn ramp_is_monotone_and_clamped() {
        assert_eq!(ramp_color(0.0), "#f7fbff");
        assert_eq!(ramp_color(1.25), "#a50f15");
        assert_eq!(ramp_color(9.0), "#a50f15");
        assert_eq!(ramp_color(f32::INFINITY), "#a50f15");
        // interior stops reproduce exactly
        assert_eq!(ramp_color(1.0), "#fd8d3c");
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
