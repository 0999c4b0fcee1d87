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

use crate::json::JsonObject;
use crate::sink::LineOut;

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

/// A JSONL telemetry destination (file or in-memory buffer).
pub struct TelemetrySink {
    out: LineOut,
    rows: usize,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("rows", &self.rows)
            .field("kind", &self.out.kind())
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
        Ok(TelemetrySink {
            out: LineOut::to_path(path)?,
            rows: 0,
        })
    }

    /// Creates an in-memory sink (tests, determinism checks).
    pub fn in_memory() -> Self {
        TelemetrySink {
            out: LineOut::in_memory(),
            rows: 0,
        }
    }

    /// Appends one row as a JSON line. I/O errors are deliberately
    /// swallowed after the sink is created — telemetry must never abort a
    /// training run.
    pub fn record(&mut self, row: &IterationRow) {
        self.rows += 1;
        self.out.write_line(&row.to_json());
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> usize {
        self.rows
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
