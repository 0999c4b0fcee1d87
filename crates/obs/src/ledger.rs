//! The persistent run ledger: one content-hashed JSONL record per
//! train/route run, appended to `~/.dgr/ledger.jsonl`.
//!
//! The ledger is what lets runs see each other: `dgr history` renders
//! the recent records as a table and diffs the per-phase span totals of
//! the last two comparable runs. Records are append-only and
//! self-verifying — each line leads with an FNV-1a 64 hash of its own
//! body bytes as stored, so replay tooling can detect truncated or
//! hand-edited lines, and a record written before a field was added or
//! removed verifies all the same.
//!
//! Resolution order for the ledger path:
//!
//! 1. `DGR_LEDGER=path` — explicit override (tests point this at a
//!    temp file so CLI runs never touch the real ledger),
//! 2. `DGR_LEDGER` set to `off`, `0` or the empty string — disabled,
//! 3. `$HOME/.dgr/ledger.jsonl` — the default (disabled when `$HOME`
//!    is unset).
//!
//! Appends are best-effort: a read-only home directory must never fail
//! a routing run.

use crate::json::JsonObject;
use crate::parse::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Ledger record schema version.
pub const LEDGER_VERSION: u64 = 1;

/// One run's summary record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerRecord {
    /// Schema version ([`LEDGER_VERSION`]).
    pub version: u64,
    /// FNV-1a 64 hash (hex) of the stored line minus this field.
    pub hash: String,
    /// Unix timestamp (seconds) the record was written.
    pub ts: u64,
    /// Subcommand: `"route"` or `"train"`.
    pub cmd: String,
    /// Design name (case file stem).
    pub design: String,
    /// Net count of the design.
    pub nets: u64,
    /// FNV-1a 64 hash (hex) of the run configuration — records with
    /// equal fingerprints are directly comparable.
    pub config_fp: String,
    /// Training iterations executed.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: u64,
    /// Training iterations per second (bench-style; 0 when no
    /// iterations ran).
    pub it_per_s: f64,
    /// Final training loss.
    pub loss: f64,
    /// Extracted-solution wirelength (g-cell edge units).
    pub wirelength: u64,
    /// Extracted-solution total overflow.
    pub overflow: f64,
    /// Extracted-solution overflowed edge count.
    pub overflowed_edges: u64,
    /// Extracted-solution via/turn count.
    pub vias: u64,
    /// RSMT cache hits over the run.
    pub cache_hits: u64,
    /// RSMT cache misses over the run.
    pub cache_misses: u64,
    /// Inclusive per-phase span totals, milliseconds (`forward`,
    /// `backward`, `extract`, ...). `forward` and `backward` are wall time
    /// on the training run's calling thread, waits for its helper's lane
    /// included; `noise_ahead`, `lane_fwd` and `lane_bwd` (records since
    /// the helper) are the tasks offered to it, on whichever thread ran
    /// them, and overlap the other phases.
    pub phases: BTreeMap<String, f64>,
    /// Sentinel health summary: `"ok"` or a comma-joined `rule@iter`
    /// list, worst first. `None` (`null`) when the run was not watched,
    /// and on records written before the field existed.
    pub health: Option<String>,
}

impl LedgerRecord {
    /// Serializes the body fields (everything but `hash`), in schema
    /// order. This is the byte string the hash covers when written.
    fn body_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("version", self.version);
        o.field_u64("ts", self.ts);
        o.field_str("cmd", &self.cmd);
        o.field_str("design", &self.design);
        o.field_u64("nets", self.nets);
        o.field_str("config_fp", &self.config_fp);
        o.field_u64("iterations", self.iterations);
        o.field_u64("seed", self.seed);
        o.field_u64("wall_ms", self.wall_ms);
        o.field_f64("it_per_s", self.it_per_s);
        o.field_f64("loss", self.loss);
        o.field_u64("wirelength", self.wirelength);
        o.field_f64("overflow", self.overflow);
        o.field_u64("overflowed_edges", self.overflowed_edges);
        o.field_u64("vias", self.vias);
        o.field_u64("cache_hits", self.cache_hits);
        o.field_u64("cache_misses", self.cache_misses);
        let mut phases = JsonObject::new();
        for (name, ms) in &self.phases {
            phases.field_f64(name, *ms);
        }
        o.field_raw("phases", &phases.finish());
        match &self.health {
            Some(health) => o.field_str("health", health),
            None => o.field_raw("health", "null"),
        }
        o.finish()
    }

    /// Serializes the full record, computing (and storing nothing —
    /// callers persist the returned line) the content hash over the
    /// body bytes. The `hash` field leads so readers can verify with a
    /// simple prefix strip.
    pub fn to_json(&self) -> String {
        let body = self.body_json();
        let hash = fnv1a64(body.as_bytes());
        // splice: {"hash":"...", <body fields>}
        format!("{{\"hash\":\"{hash:016x}\",{}", &body[1..])
    }

    fn from_value(v: &JsonValue) -> Option<LedgerRecord> {
        let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let f = |k: &str| v.num(k).unwrap_or(0.0);
        let s = |k: &str| v.str(k).unwrap_or("").to_string();
        v.get("version")?;
        let mut phases = BTreeMap::new();
        if let Some(JsonValue::Obj(m)) = v.get("phases") {
            for (name, ms) in m {
                if let Some(ms) = ms.as_f64() {
                    phases.insert(name.clone(), ms);
                }
            }
        }
        Some(LedgerRecord {
            version: u("version"),
            hash: s("hash"),
            ts: u("ts"),
            cmd: s("cmd"),
            design: s("design"),
            nets: u("nets"),
            config_fp: s("config_fp"),
            iterations: u("iterations"),
            seed: u("seed"),
            wall_ms: u("wall_ms"),
            it_per_s: f("it_per_s"),
            loss: f("loss"),
            wirelength: u("wirelength"),
            overflow: f("overflow"),
            overflowed_edges: u("overflowed_edges"),
            vias: u("vias"),
            cache_hits: u("cache_hits"),
            cache_misses: u("cache_misses"),
            phases,
            health: v.str("health").map(str::to_string),
        })
    }
}

/// FNV-1a 64-bit hash — the workspace's standard content fingerprint
/// (tiny, deterministic, dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The resolved ledger path, or `None` when the ledger is disabled
/// (see the module docs for the resolution order).
pub fn ledger_path() -> Option<PathBuf> {
    match std::env::var("DGR_LEDGER") {
        Ok(v) => {
            let v = v.trim().to_string();
            if v.is_empty() || v == "off" || v == "0" {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
        Err(_) => std::env::var("HOME")
            .ok()
            .filter(|h| !h.is_empty())
            .map(|h| PathBuf::from(h).join(".dgr").join("ledger.jsonl")),
    }
}

/// Appends `record` to the ledger, creating parent directories as
/// needed. Returns the path written, or `None` when the ledger is
/// disabled or the write failed. Appends stay best-effort by contract —
/// a read-only home must never fail a routing run — but the *first*
/// failure in a process warns on stderr with the path and error, so a
/// silently unwritable ledger is at least visible once.
pub fn append(record: &LedgerRecord) -> Option<PathBuf> {
    let path = ledger_path()?;
    let attempt = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(file, "{}", record.to_json())
    };
    match attempt() {
        Ok(()) => Some(path),
        Err(e) => {
            static WARNED: std::sync::atomic::AtomicBool =
                std::sync::atomic::AtomicBool::new(false);
            if !WARNED.swap(true, std::sync::atomic::Ordering::Relaxed) {
                eprintln!(
                    "warning: ledger append to {} failed ({e}); further failures stay silent",
                    path.display()
                );
            }
            None
        }
    }
}

/// Loads every parseable record from the ledger at `path`, oldest
/// first. Malformed lines and unverifiable hashes are skipped rather
/// than fatal — the ledger outlives any single schema.
pub fn load(path: &std::path::Path) -> Vec<LedgerRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    parse(&text)
}

/// [`load`], but from JSONL text (replay tests). Each line is checked
/// on its own, so one corrupt line does not hide the rest.
pub fn parse(text: &str) -> Vec<LedgerRecord> {
    text.lines()
        .filter(|line| verifies(line))
        .filter_map(|line| crate::parse::parse_json(line).ok())
        .filter_map(|v| LedgerRecord::from_value(&v))
        .collect()
}

/// Whether `line` is `{"hash":"<16 hex>",` followed by the rest of a
/// body whose bytes — `{` and everything after that prefix — hash to it.
/// The stored bytes are what is checked, never a re-serialization, so a
/// record keeps verifying after the schema gains or loses a field.
fn verifies(line: &str) -> bool {
    let Some((hash, rest)) = line
        .strip_prefix("{\"hash\":\"")
        .and_then(|tail| tail.split_once("\","))
    else {
        return false;
    };
    hash == format!("{:016x}", fnv1a64(format!("{{{rest}").as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> LedgerRecord {
        let mut phases = BTreeMap::new();
        phases.insert("forward".to_string(), 120.5);
        phases.insert("backward".to_string(), 260.25);
        phases.insert("extract".to_string(), 40.0);
        LedgerRecord {
            version: LEDGER_VERSION,
            hash: String::new(),
            ts: 1_754_000_000,
            cmd: "route".to_string(),
            design: "ispd18_test1".to_string(),
            nets: 450,
            config_fp: "00aabbccddeeff11".to_string(),
            iterations: 120,
            seed,
            wall_ms: 900,
            it_per_s: 133.3,
            loss: 812.25,
            wirelength: 5120,
            overflow: 1.5,
            overflowed_edges: 2,
            vias: 96,
            cache_hits: 1,
            cache_misses: 808,
            phases,
            health: None,
        }
    }

    #[test]
    fn append_and_replay_round_trips() {
        let path = std::env::temp_dir().join("dgr_ledger_roundtrip_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let line_a = record(11).to_json();
        let line_b = record(12).to_json();
        std::fs::write(&path, format!("{line_a}\n{line_b}\n")).unwrap();
        let loaded = load(&path);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].seed, 11);
        assert_eq!(loaded[1].seed, 12);
        assert_eq!(loaded[0].phases["backward"], 260.25);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(record(7).to_json(), record(7).to_json());
        assert_ne!(record(7).to_json(), record(8).to_json());
    }

    #[test]
    fn tampered_records_fail_verification() {
        let line = record(3).to_json();
        let tampered = line.replace("\"seed\":3", "\"seed\":4");
        assert_ne!(line, tampered);
        assert!(parse(&line).len() == 1);
        assert!(parse(&tampered).is_empty(), "tampered line must not load");
    }

    #[test]
    fn corrupt_lines_do_not_hide_good_ones() {
        let good = record(5).to_json();
        let text = format!("{good}\nnot json at all\n{good}\n");
        assert_eq!(parse(&text).len(), 2);
    }

    #[test]
    fn health_field_round_trips() {
        let plain = record(2).to_json();
        assert!(plain.ends_with(",\"health\":null}"), "{plain}");
        assert_eq!(parse(&plain)[0].health, None);
        // with health set, it's hashed, persisted and re-read
        let mut rec = record(2);
        rec.health = Some("divergence@80,oscillation@95".to_string());
        let line = rec.to_json();
        assert!(line.contains("\"health\":\"divergence@80"));
        let loaded = parse(&line);
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded[0].health.as_deref(),
            Some("divergence@80,oscillation@95")
        );
        // tampering with health breaks the hash like any other field
        let tampered = line.replace("divergence", "divergonce");
        assert!(parse(&tampered).is_empty());
    }

    /// A line as an earlier writer stored it, with a `batch` field this
    /// schema no longer has: it verifies on its own bytes and loads;
    /// tampered with, it does not.
    #[test]
    fn records_of_an_older_schema_verify_on_their_stored_bytes() {
        let line = r#"{"hash":"fd92ef214cd32ed3","version":1,"ts":1792073790,"cmd":"route","design":"d","nets":75,"config_fp":"737e47925719c826","iterations":40,"seed":0,"batch":1,"wall_ms":1,"it_per_s":44779.44444382251,"loss":982.0446166992188,"wirelength":382,"overflow":0,"overflowed_edges":0,"vias":442,"cache_hits":0,"cache_misses":16,"phases":{"adam":0.022053,"assign_layers":0.107446,"backward":0.171575,"candidates":0.249149,"extract":0.050694,"forest":0.05013,"forward":0.41557999999999995,"refine":0.011063,"relax":0.036129,"route":1.289609,"train":0.893267},"health":"ok"}"#;
        let loaded = parse(line);
        assert_eq!(loaded.len(), 1, "an older record must load");
        let r = &loaded[0];
        assert_eq!(
            (r.hash.as_str(), r.seed, r.wirelength),
            ("fd92ef214cd32ed3", 0, 382)
        );
        assert_eq!(
            (r.config_fp.as_str(), r.phases.len()),
            ("737e47925719c826", 11)
        );
        assert_eq!(r.health.as_deref(), Some("ok"));
        let tampered = line.replace("\"wirelength\":382", "\"wirelength\":381");
        assert_ne!(line, tampered);
        assert!(parse(&tampered).is_empty(), "tampered line must not load");
    }

    #[test]
    fn env_override_and_disable() {
        // no DGR_LEDGER in the test env by default: HOME-based or None,
        // never panics
        let _ = ledger_path();
    }
}
