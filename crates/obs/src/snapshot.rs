//! Spatial congestion snapshots and per-net attribution records.
//!
//! A *snapshot stream* is a JSONL file (`dgr route --snap out.snaps`)
//! describing where on the grid the overflow term of Eq. (3) lives and
//! which nets put it there. The stream is self-describing — three record
//! kinds, discriminated by a `"kind"` field:
//!
//! * **header** (first line, once): grid dimensions plus the H/V edge
//!   capacity grids, which are invariant across the run:
//!   `{"kind":"header","version":2,"width":W,"height":H,
//!   "h_capacity":[...],"v_capacity":[...]}`. H edges are listed
//!   row-major, `(width−1)·height` of them; V edges row-major,
//!   `width·(height−1)`.
//! * **snapshot** (every stride iterations and at phase boundaries): the
//!   Eq. (2)/Eq. (10) total-demand grids plus the aggregates of their
//!   per-edge overflow (`max(0, demand − capacity)`): edges over, sum and
//!   peak. The `phase` field is `"train"`, `"extract"` or `"final"`.
//!   Version 1 also wrote the per-edge overflow rasters `h_overflow` /
//!   `v_overflow`; the reader ignores them, so a version 1 stream reads.
//! * **attribution** (once per extracted solution): each overflowed
//!   edge's excess split evenly among the nets crossing it, yielding a
//!   ranked per-net share of the overflow mass alongside that net's
//!   wirelength/turn counts and ICCAD'19 weighted cost.
//!
//! This crate stays dependency-free, so records hold plain vectors —
//! the capture that fills them from grid types is `dgr_core::snapshot`.
//! [`SnapshotStream::parse`] is the one reader of the format.

use crate::json::JsonObject;
use crate::parse::{parse_jsonl, JsonValue};
use crate::sink::LineOut;

/// Schema version written in the header record.
pub const SNAPSHOT_VERSION: u64 = 2;

/// The run-invariant prelude of a snapshot stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHeader {
    /// Grid width in g-cells.
    pub width: u32,
    /// Grid height in g-cells.
    pub height: u32,
    /// Horizontal-edge capacities, row-major (`(width−1)·height`).
    pub h_capacity: Vec<f32>,
    /// Vertical-edge capacities, row-major (`width·(height−1)`).
    pub v_capacity: Vec<f32>,
}

impl SnapshotHeader {
    /// Serializes the header record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("kind", "header");
        o.field_u64("version", SNAPSHOT_VERSION);
        o.field_u64("width", self.width as u64);
        o.field_u64("height", self.height as u64);
        o.field_f32_array("h_capacity", &self.h_capacity);
        o.field_f32_array("v_capacity", &self.v_capacity);
        o.finish()
    }
}

/// One spatial congestion capture.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Iteration the capture was taken at (monotone across rounds).
    pub iter: u64,
    /// Pipeline phase: `"train"`, `"extract"` or `"final"`.
    pub phase: String,
    /// Horizontal-edge total demand (Eq. 2 discrete or Eq. 10 expected).
    pub h_demand: Vec<f32>,
    /// Vertical-edge total demand.
    pub v_demand: Vec<f32>,
    /// Edges over capacity by more than the solver epsilon.
    pub overflowed_edges: u64,
    /// Sum of per-edge overflow.
    pub total_overflow: f32,
    /// Largest per-edge overflow.
    pub peak_overflow: f32,
}

impl SnapshotRecord {
    /// Serializes the snapshot record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("kind", "snapshot");
        o.field_u64("iter", self.iter);
        o.field_str("phase", &self.phase);
        o.field_f32_array("h_demand", &self.h_demand);
        o.field_f32_array("v_demand", &self.v_demand);
        o.field_u64("overflowed_edges", self.overflowed_edges);
        o.field_f32("total_overflow", self.total_overflow);
        o.field_f32("peak_overflow", self.peak_overflow);
        o.finish()
    }
}

/// One net's share of the solution cost, as charged by the attribution
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct NetShare {
    /// Net index in the input design.
    pub net: u64,
    /// Net name from the design.
    pub name: String,
    /// The net's routed wirelength in g-cell edge units.
    pub wirelength: u64,
    /// The net's 2D turning points.
    pub turns: u64,
    /// Overflow mass charged to this net (excess of each overflowed edge
    /// it crosses, split evenly among that edge's crossing nets).
    pub overflow_share: f32,
    /// Number of overflowed edges this net crosses.
    pub overflowed_edges: u64,
    /// The net's ICCAD'19 weighted cost contribution:
    /// `w_ovf·overflow_share + w_via·turns + w_wl·wirelength`.
    pub cost: f64,
}

impl NetShare {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("net", self.net);
        o.field_str("name", &self.name);
        o.field_u64("wl", self.wirelength);
        o.field_u64("turns", self.turns);
        o.field_f32("overflow", self.overflow_share);
        o.field_u64("edges", self.overflowed_edges);
        o.field_f64("cost", self.cost);
        o.finish()
    }
}

/// The per-net attribution of one extracted solution.
///
/// `nets` is ranked worst-offender first (overflow share, then cost,
/// then net index) and may be truncated for stream compactness —
/// `ranked_nets` counts how many nets carried a nonzero overflow share
/// before truncation, so consumers can tell when the table is partial.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRecord {
    /// Pipeline phase the attribution describes (normally `"final"`).
    pub phase: String,
    /// Number of nets in the design.
    pub total_nets: u64,
    /// Nets with a nonzero overflow share (before any truncation).
    pub ranked_nets: u64,
    /// Total overflow mass of the solution.
    pub total_excess: f32,
    /// Portion of `total_excess` charged to nets. The remainder sits on
    /// edges no net wire crosses (pure via-pressure overflow).
    pub charged_excess: f32,
    /// Ranked per-net shares, worst offender first (possibly truncated).
    pub nets: Vec<NetShare>,
}

impl AttributionRecord {
    /// Serializes the attribution record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("kind", "attribution");
        o.field_str("phase", &self.phase);
        o.field_u64("total_nets", self.total_nets);
        o.field_u64("ranked_nets", self.ranked_nets);
        o.field_f32("total_excess", self.total_excess);
        o.field_f32("charged_excess", self.charged_excess);
        let items: Vec<String> = self.nets.iter().map(NetShare::to_json).collect();
        o.field_raw("nets", &format!("[{}]", items.join(",")));
        o.finish()
    }
}

/// A JSONL snapshot-stream destination (file or in-memory buffer).
pub struct SnapshotSink {
    out: LineOut,
    header_written: bool,
    snapshots: usize,
}

impl std::fmt::Debug for SnapshotSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSink")
            .field("snapshots", &self.snapshots)
            .field("kind", &self.out.kind())
            .finish()
    }
}

impl SnapshotSink {
    /// Creates (truncating) a snapshot file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_path(path: &str) -> std::io::Result<Self> {
        Ok(SnapshotSink {
            out: LineOut::to_path(path)?,
            header_written: false,
            snapshots: 0,
        })
    }

    /// Creates an in-memory sink (tests, determinism checks).
    pub fn in_memory() -> Self {
        SnapshotSink {
            out: LineOut::in_memory(),
            header_written: false,
            snapshots: 0,
        }
    }

    /// Writes the header record. Subsequent calls are ignored, so capture
    /// sites can call this unconditionally before each record.
    pub fn write_header(&mut self, header: &SnapshotHeader) {
        if !self.header_written {
            self.header_written = true;
            self.out.write_line(&header.to_json());
        }
    }

    /// Whether the header record has been written.
    pub fn header_written(&self) -> bool {
        self.header_written
    }

    /// Appends one snapshot record.
    pub fn write_snapshot(&mut self, snap: &SnapshotRecord) {
        self.snapshots += 1;
        self.out.write_line(&snap.to_json());
    }

    /// Appends one attribution record.
    pub fn write_attribution(&mut self, attr: &AttributionRecord) {
        self.out.write_line(&attr.to_json());
    }

    /// Snapshot records written so far (header and attribution excluded).
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }

    /// Flushes buffered output (no-op for memory sinks).
    pub fn flush(&mut self) {
        self.out.flush();
    }

    /// The accumulated JSONL text of an in-memory sink (`None` for file
    /// sinks).
    pub fn memory_contents(&self) -> Option<&str> {
        self.out.memory_contents()
    }
}

impl Drop for SnapshotSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A fully parsed snapshot stream, ready for report rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotStream {
    /// The header record, if the stream had one.
    pub header: Option<SnapshotHeader>,
    /// All snapshot records, in stream order.
    pub snapshots: Vec<SnapshotRecord>,
    /// All attribution records, in stream order.
    pub attributions: Vec<AttributionRecord>,
}

impl SnapshotStream {
    /// Parses the JSONL text of a snapshot stream. Unknown record kinds
    /// and keys are skipped (forward compatibility, and version 1's
    /// overflow rasters). Every raster must have the
    /// length the (last) header's grid gives it: `(width−1)·height` H
    /// edges and `width·(height−1)` V edges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, or of the
    /// first record whose raster lengths disagree with the header.
    pub fn parse(text: &str) -> Result<SnapshotStream, String> {
        let values = parse_jsonl(text).map_err(|(line, e)| format!("line {line}: {e}"))?;
        let mut stream = SnapshotStream::default();
        // record numbers of the header and of each snapshot, for the
        // length check once the whole stream is read
        let mut header_record = 0;
        let mut snapshot_records = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let fail = |what: &str| format!("record {}: {what}", i + 1);
            match v.str("kind") {
                Some("header") => {
                    header_record = i + 1;
                    stream.header = Some(SnapshotHeader {
                        width: v.num("width").unwrap_or(0.0) as u32,
                        height: v.num("height").unwrap_or(0.0) as u32,
                        h_capacity: v.f32s("h_capacity").ok_or_else(|| fail("no h_capacity"))?,
                        v_capacity: v.f32s("v_capacity").ok_or_else(|| fail("no v_capacity"))?,
                    });
                }
                Some("snapshot") => {
                    snapshot_records.push(i + 1);
                    stream.snapshots.push(SnapshotRecord {
                        iter: v.get("iter").and_then(JsonValue::as_u64).unwrap_or(0),
                        phase: v.str("phase").unwrap_or("train").to_string(),
                        h_demand: v.f32s("h_demand").ok_or_else(|| fail("no h_demand"))?,
                        v_demand: v.f32s("v_demand").ok_or_else(|| fail("no v_demand"))?,
                        overflowed_edges: v
                            .get("overflowed_edges")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0),
                        total_overflow: v.num("total_overflow").unwrap_or(0.0) as f32,
                        peak_overflow: v.num("peak_overflow").unwrap_or(0.0) as f32,
                    });
                }
                Some("attribution") => {
                    let nets = v
                        .get("nets")
                        .and_then(JsonValue::as_arr)
                        .ok_or_else(|| fail("no nets array"))?
                        .iter()
                        .map(|n| NetShare {
                            net: n.get("net").and_then(JsonValue::as_u64).unwrap_or(0),
                            name: n.str("name").unwrap_or("").to_string(),
                            wirelength: n.get("wl").and_then(JsonValue::as_u64).unwrap_or(0),
                            turns: n.get("turns").and_then(JsonValue::as_u64).unwrap_or(0),
                            overflow_share: n.num("overflow").unwrap_or(0.0) as f32,
                            overflowed_edges: n
                                .get("edges")
                                .and_then(JsonValue::as_u64)
                                .unwrap_or(0),
                            cost: n.num("cost").unwrap_or(0.0),
                        })
                        .collect();
                    stream.attributions.push(AttributionRecord {
                        phase: v.str("phase").unwrap_or("final").to_string(),
                        total_nets: v.get("total_nets").and_then(JsonValue::as_u64).unwrap_or(0),
                        ranked_nets: v
                            .get("ranked_nets")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0),
                        total_excess: v.num("total_excess").unwrap_or(0.0) as f32,
                        charged_excess: v.num("charged_excess").unwrap_or(0.0) as f32,
                        nets,
                    });
                }
                _ => {} // unknown kinds are skipped
            }
        }
        let Some(header) = &stream.header else {
            return Ok(stream); // nothing indexes a raster without a grid
        };
        let (w, h) = (header.width as usize, header.height as usize);
        if w == 0 || h == 0 {
            return Err(format!(
                "record {header_record}: a {w}×{h} grid has no g-cells"
            ));
        }
        let (num_h, num_v) = ((w - 1) * h, w * (h - 1));
        let check = |record: usize, name: &str, raster: &[f32], want: usize| {
            let len = raster.len();
            if len == want {
                return Ok(());
            }
            Err(format!(
                "record {record}: {name} has length {len}, but the {w}×{h} header needs {want}"
            ))
        };
        check(header_record, "h_capacity", &header.h_capacity, num_h)?;
        check(header_record, "v_capacity", &header.v_capacity, num_v)?;
        for (s, &record) in stream.snapshots.iter().zip(&snapshot_records) {
            check(record, "h_demand", &s.h_demand, num_h)?;
            check(record, "v_demand", &s.v_demand, num_v)?;
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            width: 3,
            height: 2,
            h_capacity: vec![2.0, 2.0, 1.0, 1.0],
            v_capacity: vec![2.0, 2.0, 2.0],
        }
    }

    fn snap(iter: u64, phase: &str) -> SnapshotRecord {
        SnapshotRecord {
            iter,
            phase: phase.to_string(),
            h_demand: vec![1.0, 0.0, 2.5, 0.0],
            v_demand: vec![0.0, 0.5, 0.0],
            overflowed_edges: 1,
            total_overflow: 1.5,
            peak_overflow: 1.5,
        }
    }

    fn attribution() -> AttributionRecord {
        AttributionRecord {
            phase: "final".to_string(),
            total_nets: 5,
            ranked_nets: 2,
            total_excess: 1.5,
            charged_excess: 1.25,
            nets: vec![
                NetShare {
                    net: 3,
                    name: "n3".to_string(),
                    wirelength: 12,
                    turns: 2,
                    overflow_share: 1.0,
                    overflowed_edges: 1,
                    cost: 514.0,
                },
                NetShare {
                    net: 0,
                    name: "n0".to_string(),
                    wirelength: 4,
                    turns: 1,
                    overflow_share: 0.25,
                    overflowed_edges: 1,
                    cost: 131.0,
                },
            ],
        }
    }

    #[test]
    fn stream_round_trips() {
        let mut sink = SnapshotSink::in_memory();
        sink.write_header(&header());
        sink.write_header(&header()); // second call is a no-op
        sink.write_snapshot(&snap(0, "train"));
        sink.write_snapshot(&snap(16, "final"));
        sink.write_attribution(&attribution());
        assert_eq!(sink.snapshots(), 2);
        let text = sink.memory_contents().unwrap().to_string();
        assert_eq!(text.lines().count(), 4);

        let stream = SnapshotStream::parse(&text).unwrap();
        assert_eq!(stream.header, Some(header()));
        assert_eq!(stream.snapshots, vec![snap(0, "train"), snap(16, "final")]);
        assert_eq!(stream.attributions, vec![attribution()]);
    }

    #[test]
    fn header_record_shape() {
        let json = header().to_json();
        assert!(json.starts_with(r#"{"kind":"header","version":2,"width":3,"height":2,"#));
        assert!(json.contains(r#""h_capacity":[2,2,1,1]"#));
    }

    /// A version 1 stream, whose snapshots also carried the overflow
    /// rasters, reads as the version 2 stream without them.
    #[test]
    fn a_version_1_stream_still_parses() {
        let v1 = concat!(
            r#"{"kind":"header","version":1,"width":3,"height":2,"h_capacity":[2,2,1,1],"v_capacity":[2,2,2]}"#,
            "\n",
            r#"{"kind":"snapshot","iter":0,"phase":"train","h_demand":[1,0,2.5,0],"v_demand":[0,0.5,0],"h_overflow":[0,0,1.5,0],"v_overflow":[0,0,0],"overflowed_edges":1,"total_overflow":1.5,"peak_overflow":1.5}"#,
            "\n",
        );
        let stream = SnapshotStream::parse(v1).unwrap();
        assert_eq!(stream.header, Some(header()));
        assert_eq!(stream.snapshots, vec![snap(0, "train")]);
    }

    #[test]
    fn unknown_kinds_are_skipped() {
        let text = format!("{}\n{{\"kind\":\"future\"}}\n", header().to_json());
        let stream = SnapshotStream::parse(&text).unwrap();
        assert!(stream.header.is_some());
        assert!(stream.snapshots.is_empty());
    }

    #[test]
    fn malformed_line_is_reported() {
        let err = SnapshotStream::parse("{\"kind\":\"header\"}\nnope\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // header without capacities is also rejected
        let err = SnapshotStream::parse("{\"kind\":\"header\"}\n").unwrap_err();
        assert!(err.contains("h_capacity"), "{err}");
    }

    /// A snapshot whose raster is shorter than its header's grid is the
    /// reader's error, not an index out of bounds in the heatmap.
    #[test]
    fn rasters_must_match_the_header() {
        let truncated = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/truncated_raster.snaps"
        ));
        assert_eq!(
            SnapshotStream::parse(truncated).unwrap_err(),
            "record 2: h_demand has length 1, but the 3×2 header needs 4"
        );
        // the header's own rasters, and a grid without cells
        let mut short = header();
        short.v_capacity.pop();
        let err = SnapshotStream::parse(&short.to_json()).unwrap_err();
        assert_eq!(
            err,
            "record 1: v_capacity has length 2, but the 3×2 header needs 3"
        );
        let empty = SnapshotHeader {
            width: 0,
            ..header()
        };
        let err = SnapshotStream::parse(&empty.to_json()).unwrap_err();
        assert_eq!(err, "record 1: a 0×2 grid has no g-cells");
        // every raster of every snapshot is checked, whatever the order
        let mut bad = snap(4, "final");
        bad.v_demand.push(0.0);
        let text = format!("{}\n{}\n", bad.to_json(), header().to_json());
        let err = SnapshotStream::parse(&text).unwrap_err();
        assert_eq!(
            err,
            "record 1: v_demand has length 4, but the 3×2 header needs 3"
        );
        // without a header nothing indexes a raster, so nothing is checked
        assert!(SnapshotStream::parse(&bad.to_json()).is_ok());
    }
}
