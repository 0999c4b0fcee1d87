//! Per-iteration training telemetry: JSONL rows, one per iteration.
//!
//! A [`TelemetrySink`] is an explicit object (not ambient global state —
//! several trainings can run concurrently in tests without interleaving
//! rows). A row is one iteration of one run, and each [`IterationRow`]
//! serializes to one JSON line with a fixed schema:
//!
//! ```json
//! {"iter":0,"loss":873.2,"wl":512.0,"vias":96.5,"overflow":0.53,
//!  "temperature":1.0,"grad_norm":12.94}
//! ```
//!
//! `wl`, `vias` and `overflow` are the three *unweighted* cost terms of
//! Eq. (3) as evaluated on that iteration's forward pass, and `grad_norm`
//! is the L2 norm of the logit gradients. Every field is a function of
//! the run's inputs, so the rows are byte-deterministic for a fixed seed
//! at any thread count. The process's memory is `/status`'s and the
//! `process.rss_bytes` gauge's business, not a row's.
//!
//! [`rows_from_jsonl`] is the one reader of the format: `dgr doctor` and
//! `dgr report` read rows through it.

use std::io::Write;

use crate::json::JsonObject;
use crate::parse::{parse_jsonl, JsonValue};

/// One training iteration's telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRow {
    /// Iteration index (monotone across adaptive rounds).
    pub iter: usize,
    /// Total loss (Eq. 3, weighted).
    pub loss: f32,
    /// Expected wirelength term (unweighted).
    pub wl: f32,
    /// Expected via term (unweighted, √L-scaled).
    pub vias: f32,
    /// Expected overflow term (unweighted).
    pub overflow: f32,
    /// Gumbel-softmax temperature this iteration.
    pub temperature: f32,
    /// L2 norm of the tree+path logit gradients.
    pub grad_norm: f32,
}

impl IterationRow {
    /// Serializes the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("iter", self.iter as u64);
        o.field_f32("loss", self.loss);
        o.field_f32("wl", self.wl);
        o.field_f32("vias", self.vias);
        o.field_f32("overflow", self.overflow);
        o.field_f32("temperature", self.temperature);
        o.field_f32("grad_norm", self.grad_norm);
        o.finish()
    }

    /// The schema keys, in serialization order (used by validators).
    pub const KEYS: [&'static str; 7] = [
        "iter",
        "loss",
        "wl",
        "vias",
        "overflow",
        "temperature",
        "grad_norm",
    ];
}

/// Parses telemetry JSONL text into rows (the inverse of
/// [`IterationRow::to_json`]; `null` numerics map to NaN so the
/// poisoning rule sees them). Keys outside the schema are ignored: a
/// file of the older schema, whose rows also carried the process RSS and
/// a batch tag, still reads — a batched one as its runs concatenated.
///
/// # Errors
///
/// Returns `(line_number, message)` on malformed JSON or a row without
/// `iter`.
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
        });
    }
    Ok(rows)
}

/// Where a [`TelemetrySink`]'s lines go.
enum Out {
    /// Buffered file output.
    File(std::io::BufWriter<std::fs::File>),
    /// In-memory accumulation (tests, determinism checks).
    Memory(Vec<u8>),
}

/// A JSONL telemetry destination (file or in-memory buffer).
pub struct TelemetrySink {
    out: Out,
    rows: usize,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.out {
            Out::File(_) => "file",
            Out::Memory(_) => "memory",
        };
        f.debug_struct("TelemetrySink")
            .field("rows", &self.rows)
            .field("kind", &kind)
            .finish()
    }
}

impl TelemetrySink {
    /// Creates (truncating) a JSONL file sink at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_path(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(TelemetrySink {
            out: Out::File(std::io::BufWriter::new(file)),
            rows: 0,
        })
    }

    /// Creates an in-memory sink (tests, determinism checks).
    pub fn in_memory() -> Self {
        TelemetrySink {
            out: Out::Memory(Vec::new()),
            rows: 0,
        }
    }

    /// Appends one row as a JSON line. I/O errors are deliberately
    /// swallowed after the sink is created — telemetry must never abort a
    /// training run.
    pub fn record(&mut self, row: &IterationRow) {
        self.rows += 1;
        let mut line = row.to_json();
        line.push('\n');
        match &mut self.out {
            Out::File(w) => {
                let _ = w.write_all(line.as_bytes());
            }
            Out::Memory(buf) => buf.extend_from_slice(line.as_bytes()),
        }
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Flushes buffered output (no-op for memory sinks).
    pub fn flush(&mut self) {
        if let Out::File(w) = &mut self.out {
            let _ = w.flush();
        }
    }

    /// The accumulated JSONL text of an in-memory sink (`None` for file
    /// sinks).
    pub fn memory_contents(&self) -> Option<&str> {
        match &self.out {
            Out::Memory(buf) => std::str::from_utf8(buf).ok(),
            Out::File(_) => None,
        }
    }
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: usize) -> IterationRow {
        IterationRow {
            iter,
            loss: 10.5,
            wl: 8.0,
            vias: 2.0,
            overflow: 0.25,
            temperature: 1.0,
            grad_norm: 3.5,
        }
    }

    #[test]
    fn row_serializes_all_schema_keys_in_order() {
        let json = row(7).to_json();
        let mut at = 0;
        for key in IterationRow::KEYS {
            let pos = json.find(&format!("\"{key}\":")).expect(key);
            assert!(pos >= at, "{key} out of order");
            at = pos;
        }
        assert_eq!(
            json,
            r#"{"iter":7,"loss":10.5,"wl":8,"vias":2,"overflow":0.25,"temperature":1,"grad_norm":3.5}"#
        );
    }

    #[test]
    fn non_finite_serializes_as_null() {
        let mut r = row(0);
        r.loss = f32::NAN;
        assert!(r.to_json().contains("\"loss\":null"));
    }

    #[test]
    fn jsonl_round_trips_rows_including_nan() {
        let mut r = row(3);
        r.loss = f32::NAN; // serializes as null
        let text = format!("{}\n{}\n", row(2).to_json(), r.to_json());
        let rows = rows_from_jsonl(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], row(2));
        assert_eq!(rows[1].iter, 3);
        assert!(rows[1].loss.is_nan(), "null loss re-read as NaN");
        assert_eq!(
            rows_from_jsonl("{\"loss\":1}\n"),
            Err((1, "row missing `iter`".into()))
        );
        assert_eq!(rows_from_jsonl("{}\nnope\n").unwrap_err().0, 2);
    }

    #[test]
    fn memory_sink_accumulates_lines() {
        let mut sink = TelemetrySink::in_memory();
        sink.record(&row(0));
        sink.record(&row(1));
        assert_eq!(sink.rows(), 2);
        let text = sink.memory_contents().unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join("dgr_obs_telemetry_test.jsonl");
        let path_s = path.to_str().unwrap();
        {
            let mut sink = TelemetrySink::to_path(path_s).unwrap();
            sink.record(&row(0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"iter\":0,"));
        assert!(text.ends_with("}\n"));
        let _ = std::fs::remove_file(&path);
    }
}
