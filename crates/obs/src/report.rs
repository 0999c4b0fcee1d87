//! Deterministic self-contained HTML post-mortem reports (`dgr report`).
//!
//! [`render_report`] consumes up to three artifacts of a routing run —
//! telemetry JSONL, a snapshot stream, and a Chrome trace — and renders
//! one HTML document with:
//!
//! * loss / overflow / temperature training curves (inline SVG),
//! * one overflow heatmap per congestion snapshot (per-g-cell worst
//!   incident-edge utilization),
//! * the ranked per-net attribution table, and
//! * a per-phase span breakdown aggregated from the trace.
//!
//! The output is **deterministic**: identical inputs yield byte-identical
//! HTML (no timestamps, no randomized ids, no map-ordered iteration), so
//! reports can be golden-tested and diffed across runs. It is also
//! **self-contained**: inline CSS and SVG only, no scripts, no external
//! fetches — one file that renders anywhere, offline.

use crate::parse::parse_json;
use crate::snapshot::{AttributionRecord, SnapshotHeader, SnapshotRecord, SnapshotStream};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The artifacts a report is rendered from. Every field is optional;
/// missing inputs render as an explanatory placeholder section.
#[derive(Debug, Clone, Default)]
pub struct ReportInputs {
    /// Report title (design or run name).
    pub title: String,
    /// Telemetry JSONL text ([`crate::TelemetrySink`] output).
    pub telemetry: Option<String>,
    /// Snapshot-stream JSONL text ([`crate::SnapshotSink`] output).
    pub snapshots: Option<String>,
    /// Chrome trace JSON text ([`crate::chrome_trace`] output).
    pub trace: Option<String>,
    /// Collapsed-stack profile text ([`crate::FoldedProfile`] output).
    /// Unlike the other inputs this section renders only when present —
    /// profiles are opt-in (`--profile`), so reports rendered without
    /// one stay byte-identical to pre-profiler reports.
    pub profile: Option<String>,
    /// Sentinel health-finding JSONL (one [`crate::Finding::to_json`]
    /// per line, worst first — [`crate::report_of`] fills it in). Renders
    /// a health-timeline annotation band plus the ranked finding table;
    /// like `profile`, the section only appears when the input is
    /// present, so pre-sentinel reports stay byte-identical.
    pub health: Option<String>,
}

/// Renders the post-mortem HTML document.
///
/// # Errors
///
/// Returns a description of the first malformed input file. Absent
/// inputs are not errors.
pub fn render_report(inputs: &ReportInputs) -> Result<String, String> {
    let telemetry = match &inputs.telemetry {
        Some(text) => Some(parse_telemetry(text)?),
        None => None,
    };
    let stream = match &inputs.snapshots {
        Some(text) => Some(SnapshotStream::parse(text).map_err(|e| format!("snapshots: {e}"))?),
        None => None,
    };
    let spans = match &inputs.trace {
        Some(text) => Some(parse_trace(text)?),
        None => None,
    };

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

    render_curves(&mut html, telemetry.as_deref());
    render_snapshots(&mut html, stream.as_ref());
    render_attribution(&mut html, stream.as_ref());
    render_spans(&mut html, spans.as_deref());
    if let Some(folded) = &inputs.profile {
        render_profile(&mut html, &crate::profile::FoldedProfile::parse(folded));
    }
    if let Some(health) = &inputs.health {
        render_health(&mut html, health)?;
    }

    html.push_str("</body>\n</html>\n");
    Ok(html)
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

/// One parsed telemetry row (only the fields the report plots).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CurveRow {
    iter: f64,
    loss: f64,
    overflow: f64,
    temperature: f64,
    lane: Option<u64>,
}

fn parse_telemetry(text: &str) -> Result<Vec<CurveRow>, String> {
    let values = crate::parse::parse_jsonl(text)
        .map_err(|(line, e)| format!("telemetry: line {line}: {e}"))?;
    Ok(values
        .iter()
        .map(|v| CurveRow {
            iter: v.num("iter").unwrap_or(0.0),
            loss: v.num("loss").unwrap_or(f64::NAN),
            overflow: v.num("overflow").unwrap_or(f64::NAN),
            temperature: v.num("temperature").unwrap_or(f64::NAN),
            lane: v.get("lane").and_then(crate::parse::JsonValue::as_u64),
        })
        .collect())
}

/// A plotted telemetry metric: label, stroke colour, row accessor.
type CurveMetric = (&'static str, &'static str, fn(&CurveRow) -> f64);

const CURVE_METRICS: [CurveMetric; 3] = [
    ("loss", "#b13a3a", |r: &CurveRow| r.loss),
    ("overflow", "#3a66b1", |r: &CurveRow| r.overflow),
    ("temperature", "#3a9b57", |r: &CurveRow| r.temperature),
];

fn render_curves(html: &mut String, rows: Option<&[CurveRow]>) {
    html.push_str("<h2>Training curves</h2>\n");
    let Some(rows) = rows else {
        html.push_str("<p class=\"missing\">No telemetry supplied (--telemetry).</p>\n");
        return;
    };
    if rows.is_empty() {
        html.push_str("<p class=\"missing\">Telemetry file contained no rows.</p>\n");
        return;
    }
    let mut lanes: Vec<Option<u64>> = rows.iter().map(|r| r.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    if lanes.len() > 1 {
        render_lane_curves(html, rows, &lanes);
        return;
    }
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    let _ = writeln!(
        html,
        "<p class=\"note\">{} iterations · loss {} → {} · final overflow term {}</p>",
        rows.len(),
        fmt(first.loss),
        fmt(last.loss),
        fmt(last.overflow),
    );
    for (label, color, pick) in CURVE_METRICS {
        let series: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| pick(r).is_finite())
            .map(|r| (r.iter, pick(r)))
            .collect();
        html.push_str("<figure>");
        html.push_str(&line_chart(&series, color));
        let _ = write!(html, "<figcaption>{label} vs. iteration</figcaption>");
        html.push_str("</figure>\n");
    }
}

/// Per-lane curves for batched (`--batch N`) runs: one figure per
/// metric per lane, grouped metric-first so lanes sit side by side.
fn render_lane_curves(html: &mut String, rows: &[CurveRow], lanes: &[Option<u64>]) {
    let iters = rows.iter().filter(|r| r.lane == lanes[0]).count();
    let _ = writeln!(
        html,
        "<p class=\"note\">{} batch lanes · {} iterations per lane \
         (rows tagged with their lane index)</p>",
        lanes.len(),
        iters,
    );
    for (label, color, pick) in CURVE_METRICS {
        for lane in lanes {
            let series: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.lane == *lane && pick(r).is_finite())
                .map(|r| (r.iter, pick(r)))
                .collect();
            html.push_str("<figure>");
            html.push_str(&line_chart(&series, color));
            match lane {
                Some(l) => {
                    let _ = write!(
                        html,
                        "<figcaption>{label} vs. iteration — lane {l}</figcaption>"
                    );
                }
                None => {
                    let _ = write!(
                        html,
                        "<figcaption>{label} vs. iteration — untagged</figcaption>"
                    );
                }
            }
            html.push_str("</figure>\n");
        }
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
        let lane = match snap.lane {
            Some(l) => format!(", lane {l}"),
            None => String::new(),
        };
        let _ = write!(
            html,
            "<figcaption>iter {} ({}{lane}) — {} overflowed edges, total overflow {}, \
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
    render_attribution_record(html, attr);
}

fn render_attribution_record(html: &mut String, attr: &AttributionRecord) {
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

/// Per-name aggregate parsed back out of a Chrome trace.
#[derive(Debug, Clone, PartialEq)]
struct SpanAgg {
    name: String,
    count: u64,
    total_us: f64,
}

fn parse_trace(text: &str) -> Result<Vec<SpanAgg>, String> {
    let v = parse_json(text).map_err(|e| format!("trace: {e}"))?;
    let events = v.as_arr().ok_or("trace: expected a JSON array")?;
    let mut totals: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for e in events {
        if e.str("ph") != Some("X") {
            continue;
        }
        let name = e.str("name").unwrap_or("?").to_string();
        let dur = e.num("dur").unwrap_or(0.0);
        let t = totals.entry(name).or_insert((0, 0.0));
        t.0 += 1;
        t.1 += dur;
    }
    let mut out: Vec<SpanAgg> = totals
        .into_iter()
        .map(|(name, (count, total_us))| SpanAgg {
            name,
            count,
            total_us,
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_us
            .total_cmp(&a.total_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(out)
}

fn render_spans(html: &mut String, spans: Option<&[SpanAgg]>) {
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
// sampling profile
// ---------------------------------------------------------------------------

/// Renders the collapsed-stack profile section: headline sample stats,
/// the hot-leaf-frame ranking, and the heaviest whole stacks. Only
/// called when a profile input is present.
fn render_profile(html: &mut String, profile: &crate::profile::FoldedProfile) {
    html.push_str("<h2>Sampling profile</h2>\n");
    let busy = profile.busy_samples();
    if busy == 0 {
        html.push_str("<p class=\"missing\">Profile contains no stack samples.</p>\n");
        return;
    }
    let mut note = format!(
        "<p class=\"note\">{} samples ({} in spans, {} idle)",
        profile.samples, busy, profile.idle
    );
    if profile.peak_rss > 0 {
        let _ = write!(
            note,
            " · peak RSS {} MiB",
            fmt(profile.peak_rss as f64 / (1024.0 * 1024.0))
        );
    }
    note.push_str("</p>\n");
    html.push_str(&note);

    html.push_str(
        "<h3>Hot frames (self samples)</h3>\n\
         <table>\n<tr><th class=\"l\">frame</th><th>samples</th><th>%</th></tr>\n",
    );
    for (name, count) in profile.hot_frames().into_iter().take(20) {
        let _ = writeln!(
            html,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}%</td></tr>",
            escape(&name),
            count,
            fmt(count as f64 / busy as f64 * 100.0),
        );
    }
    html.push_str("</table>\n");

    let mut stacks: Vec<(&String, &u64)> = profile.counts.iter().collect();
    stacks.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    html.push_str(
        "<h3>Heaviest stacks</h3>\n\
         <table>\n<tr><th class=\"l\">stack</th><th>samples</th><th>%</th></tr>\n",
    );
    for (stack, count) in stacks.into_iter().take(20) {
        let _ = writeln!(
            html,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}%</td></tr>",
            escape(stack),
            count,
            fmt(*count as f64 / busy as f64 * 100.0),
        );
    }
    html.push_str("</table>\n");
}

// ---------------------------------------------------------------------------
// sentinel health band
// ---------------------------------------------------------------------------

/// One parsed sentinel finding (the fields the band renders).
#[derive(Debug, Clone, PartialEq)]
struct HealthRow {
    rule: String,
    severity: String,
    iter: u64,
    message: String,
    window_start: u64,
    window_end: u64,
}

fn parse_health(text: &str) -> Result<Vec<HealthRow>, String> {
    let values =
        crate::parse::parse_jsonl(text).map_err(|(line, e)| format!("health: line {line}: {e}"))?;
    Ok(values
        .iter()
        .map(|v| HealthRow {
            rule: v.str("rule").unwrap_or("?").to_string(),
            severity: v.str("severity").unwrap_or("warn").to_string(),
            iter: v
                .get("iter")
                .and_then(crate::parse::JsonValue::as_u64)
                .unwrap_or(0),
            message: v.str("message").unwrap_or("").to_string(),
            window_start: v
                .get("window_start")
                .and_then(crate::parse::JsonValue::as_u64)
                .unwrap_or(0),
            window_end: v
                .get("window_end")
                .and_then(crate::parse::JsonValue::as_u64)
                .unwrap_or(0),
        })
        .collect())
}

/// Renders the sentinel health section: a timeline annotation band (one
/// colored span per finding's evidence window over the iteration axis)
/// plus the ranked finding table. Only called when a health input is
/// present; a run with no findings renders an explicit all-clear.
fn render_health(html: &mut String, text: &str) -> Result<(), String> {
    html.push_str("<h2>Convergence health</h2>\n");
    let rows = parse_health(text)?;
    if rows.is_empty() {
        html.push_str("<p class=\"note\">All sentinel rules passed — no findings.</p>\n");
        return Ok(());
    }
    let max_iter = rows
        .iter()
        .map(|r| r.window_end.max(r.iter))
        .max()
        .unwrap_or(0)
        .max(1);
    // annotation band: iteration axis with one span per evidence window
    const W: f64 = 720.0;
    const LANE_H: f64 = 16.0;
    let h = 24.0 + rows.len() as f64 * LANE_H;
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
    for (lane, r) in rows.iter().enumerate() {
        let color = if r.severity == "critical" {
            "#b13a3a"
        } else {
            "#d98e2b"
        };
        let x0 = px(r.window_start);
        let x1 = px(r.window_end.max(r.window_start)).max(x0 + 2.0);
        let y = 4.0 + lane as f64 * LANE_H;
        let _ = write!(
            html,
            "<rect x=\"{x0:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"10\" \
             fill=\"{color}\" fill-opacity=\"0.75\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#333\">{}</text>",
            x1 - x0,
            x1 + 4.0,
            y + 9.0,
            escape(&r.rule)
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
    for (rank, r) in rows.iter().enumerate() {
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td>\
             <td>{}–{}</td><td class=\"l\">{}</td></tr>",
            rank + 1,
            escape(&r.rule),
            escape(&r.severity),
            r.iter,
            r.window_start,
            r.window_end,
            escape(&r.message),
        );
    }
    html.push_str("</table>\n");
    Ok(())
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
    use crate::snapshot::NetShare;

    fn tiny_inputs() -> ReportInputs {
        let telemetry = "{\"iter\":0,\"loss\":10.0,\"wl\":8.0,\"vias\":2.0,\
                         \"overflow\":1.0,\"temperature\":1.0,\"grad_norm\":3.0,\"mem_rss\":null}\n\
                         {\"iter\":1,\"loss\":9.0,\"wl\":8.0,\"vias\":2.0,\
                         \"overflow\":0.5,\"temperature\":0.9,\"grad_norm\":2.0,\"mem_rss\":null}\n";
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
            lane: None,
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
        let snaps = format!(
            "{}\n{}\n{}\n",
            header.to_json(),
            snap.to_json(),
            attr.to_json()
        );
        let trace = "[\n{\"name\":\"train\",\"cat\":\"core\",\"ph\":\"X\",\"pid\":1,\
                     \"tid\":0,\"ts\":0,\"dur\":1500},\n{\"name\":\"train\",\"cat\":\"core\",\
                     \"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2000,\"dur\":500}\n]\n";
        ReportInputs {
            title: "unit".into(),
            telemetry: Some(telemetry.to_string()),
            snapshots: Some(snaps),
            trace: Some(trace.to_string()),
            profile: None,
            health: None,
        }
    }

    #[test]
    fn full_report_contains_every_section() {
        let html = render_report(&tiny_inputs()).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Training curves</h2>"));
        assert!(html.contains("<svg class=\"heatmap\""));
        assert!(html.contains("n&lt;0&gt;"), "net names are escaped");
        assert!(html.contains("Phase breakdown"));
        assert!(html.contains("<polyline"));
        assert!(!html.contains("<script"), "report must be JS-free");
    }

    #[test]
    fn report_is_deterministic() {
        let inputs = tiny_inputs();
        assert_eq!(
            render_report(&inputs).unwrap(),
            render_report(&inputs).unwrap()
        );
    }

    #[test]
    fn missing_inputs_render_placeholders() {
        let html = render_report(&ReportInputs {
            title: "empty".into(),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(html.matches("class=\"missing\"").count(), 4);
    }

    #[test]
    fn profile_section_renders_only_when_supplied() {
        let without = render_report(&tiny_inputs()).unwrap();
        assert!(!without.contains("Sampling profile"));
        let mut inputs = tiny_inputs();
        inputs.profile = Some("route;train;forward 30\nroute;train;backward 50\n(idle) 5\n".into());
        let with = render_report(&inputs).unwrap();
        assert!(with.contains("<h2>Sampling profile</h2>"));
        assert!(with.contains("route;train;backward"));
        assert!(with.contains("Hot frames"));
    }

    #[test]
    fn health_section_renders_only_when_supplied() {
        let without = render_report(&tiny_inputs()).unwrap();
        assert!(!without.contains("Convergence health"));
        // findings render the band and the ranked table
        let mut inputs = tiny_inputs();
        inputs.health = Some(
            "{\"rule\":\"divergence\",\"severity\":\"critical\",\"score\":2.5,\"iter\":40,\
             \"message\":\"loss 2.5x its minimum\",\"window_start\":20,\"window_end\":40,\
             \"window_values\":[1,2,4]}\n"
                .into(),
        );
        let with = render_report(&inputs).unwrap();
        assert!(with.contains("<h2>Convergence health</h2>"));
        assert!(with.contains("class=\"healthband\""));
        assert!(with.contains("divergence"));
        assert!(with.contains("20–40"));
        assert!(!with.contains("<script"));
        // an empty (healthy) timeline renders the all-clear note
        let mut inputs = tiny_inputs();
        inputs.health = Some(String::new());
        let ok = render_report(&inputs).unwrap();
        assert!(ok.contains("All sentinel rules passed"));
    }

    #[test]
    fn lane_tagged_telemetry_renders_per_lane_curves() {
        let mut inputs = tiny_inputs();
        inputs.telemetry = Some(
            "{\"iter\":0,\"loss\":10.0,\"overflow\":1.0,\"temperature\":1.0,\"lane\":0}\n\
             {\"iter\":0,\"loss\":12.0,\"overflow\":1.5,\"temperature\":1.0,\"lane\":1}\n\
             {\"iter\":1,\"loss\":9.0,\"overflow\":0.5,\"temperature\":0.9,\"lane\":0}\n\
             {\"iter\":1,\"loss\":11.0,\"overflow\":1.2,\"temperature\":0.9,\"lane\":1}\n"
                .into(),
        );
        let html = render_report(&inputs).unwrap();
        assert!(html.contains("2 batch lanes"));
        assert!(html.contains("loss vs. iteration — lane 0"));
        assert!(html.contains("loss vs. iteration — lane 1"));
        // single-lane rendering is byte-stable: untagged input keeps the
        // original captions
        let single = render_report(&tiny_inputs()).unwrap();
        assert!(single.contains("<figcaption>loss vs. iteration</figcaption>"));
    }

    #[test]
    fn malformed_inputs_error() {
        let mut bad = tiny_inputs();
        bad.telemetry = Some("not json\n".into());
        assert!(render_report(&bad).unwrap_err().contains("telemetry"));
        let mut bad = tiny_inputs();
        bad.trace = Some("{}".into());
        assert!(render_report(&bad).unwrap_err().contains("trace"));
    }

    #[test]
    fn span_aggregation_sums_and_ranks() {
        let spans = parse_trace(
            "[{\"name\":\"b\",\"ph\":\"X\",\"dur\":5},\
              {\"name\":\"a\",\"ph\":\"X\",\"dur\":10},\
              {\"name\":\"b\",\"ph\":\"X\",\"dur\":6},\
              {\"name\":\"meta\",\"ph\":\"M\"}]",
        )
        .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[0].count, 2);
        assert!((spans[0].total_us - 11.0).abs() < 1e-9);
        assert_eq!(spans[1].name, "a");
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
