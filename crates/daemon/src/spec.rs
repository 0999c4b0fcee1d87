//! Job-spec parsing: the JSON body of `POST /jobs`.
//!
//! The grammar is deliberately small and strict — unknown keys are
//! rejected rather than ignored, so a typo in a client script fails
//! loudly at submission instead of silently routing the wrong design.
//!
//! ```json
//! {
//!   "design_catalog": "ispd18_test1", // exactly one design source
//!   "fast": true,                //   (catalog only) shrink like `dgr generate --fast`
//!   "iterations": 40,            // optional DgrConfig overrides
//!   "seed": 7,
//!   "label": "smoke",            // optional display label
//!   "tenant": "ci",              // optional tenant tag (default "anon")
//!   "priority": 2,               // optional; higher runs first (default 0)
//!   "guide": true,               // optional; keep the route guide (default true)
//!   "deadline_ms": 60000,        // optional SLO: cancel after this wall-clock budget
//!   "max_stall_iters": 500       // optional SLO: cancel after this many iterations
//!                                //   without a relative loss improvement
//! }
//! ```
//!
//! The two SLO keys arm the sentinel watchdog (`dgr_obs::sentinel`): a
//! breach raises the job's cooperative-cancel flag and the job finishes
//! `failed` with a structured `watchdog: …` error.
//!
//! The other design source is `"design_text"`: an inline netlist in the
//! `dgr-io` text format, held to the server's request-body cap.

use dgr_obs::parse::{parse_json, JsonValue};

/// Where the job's design comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSource {
    /// Inline design text in the `dgr-io` format (`design_text`).
    Text(String),
    /// A named catalog case generated on demand (`design_catalog`),
    /// optionally shrunk with the same rules as `dgr generate --fast`.
    Catalog {
        /// Catalog case name (see `dgr cases`).
        name: String,
        /// Apply the `--fast` shrink.
        fast: bool,
    },
}

/// A parsed, validated job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display label (defaults to a name derived from the source).
    pub label: String,
    /// Tenant tag, recorded on every artifact of the job.
    pub tenant: String,
    /// Scheduling priority: higher runs first, FIFO within a priority.
    pub priority: i64,
    /// Training-iteration override (`DgrConfig` default when absent).
    pub iterations: Option<usize>,
    /// RNG-seed override.
    pub seed: Option<u64>,
    /// The design source.
    pub design: DesignSource,
    /// Whether to keep the route-guide text on the finished job.
    pub want_guide: bool,
    /// SLO: wall-clock budget in milliseconds; the sentinel watchdog
    /// cancels the run once exceeded (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// SLO: iteration budget without a relative loss improvement before
    /// the watchdog cancels the run (`None` = no stall limit).
    pub max_stall_iters: Option<u64>,
}

/// A structured spec rejection (maps to HTTP 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

const KNOWN_KEYS: &[&str] = &[
    "label",
    "tenant",
    "priority",
    "iterations",
    "seed",
    "design_text",
    "design_catalog",
    "fast",
    "guide",
    "deadline_ms",
    "max_stall_iters",
];

impl JobSpec {
    /// Parses and validates a `POST /jobs` body.
    pub fn from_json(text: &str) -> Result<JobSpec, SpecError> {
        let v = parse_json(text).map_err(|e| SpecError(format!("invalid JSON: {e}")))?;
        let JsonValue::Obj(map) = &v else {
            return Err(SpecError("job spec must be a JSON object".into()));
        };
        if let Some(k) = map.keys().find(|k| !KNOWN_KEYS.contains(&k.as_str())) {
            return Err(SpecError(format!(
                "unknown job spec key `{k}` (known keys: {})",
                KNOWN_KEYS.join(", ")
            )));
        }

        let text_src = opt_str(&v, "design_text")?;
        let catalog_src = opt_str(&v, "design_catalog")?;
        let fast = opt_bool(&v, "fast")?.unwrap_or(false);
        if text_src.is_some() == catalog_src.is_some() {
            return Err(SpecError(
                "exactly one of `design_text`, `design_catalog` is required".into(),
            ));
        }
        if fast && catalog_src.is_none() {
            return Err(SpecError(
                "`fast` only applies to `design_catalog` jobs".into(),
            ));
        }
        let design = if let Some(t) = text_src {
            DesignSource::Text(t)
        } else {
            DesignSource::Catalog {
                name: catalog_src.expect("source count checked"),
                fast,
            }
        };

        let iterations = match opt_u64(&v, "iterations")? {
            Some(0) => return Err(SpecError("`iterations` must be at least 1".into())),
            Some(n) => Some(n as usize),
            None => None,
        };
        let seed = opt_u64(&v, "seed")?;
        let deadline_ms = match opt_u64(&v, "deadline_ms")? {
            Some(0) => return Err(SpecError("`deadline_ms` must be at least 1".into())),
            other => other,
        };
        let max_stall_iters = match opt_u64(&v, "max_stall_iters")? {
            Some(0) => return Err(SpecError("`max_stall_iters` must be at least 1".into())),
            other => other,
        };
        let priority = match v.get("priority") {
            None | Some(JsonValue::Null) => 0,
            Some(JsonValue::Num(n)) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => *n as i64,
            Some(_) => return Err(SpecError("`priority` must be an integer".into())),
        };
        let want_guide = opt_bool(&v, "guide")?.unwrap_or(true);
        let tenant = opt_str(&v, "tenant")?.unwrap_or_else(|| "anon".into());
        let label = match opt_str(&v, "label")? {
            Some(l) if !l.trim().is_empty() => l,
            _ => default_label(&design),
        };

        Ok(JobSpec {
            label,
            tenant,
            priority,
            iterations,
            seed,
            design,
            want_guide,
            deadline_ms,
            max_stall_iters,
        })
    }
}

fn default_label(design: &DesignSource) -> String {
    match design {
        DesignSource::Text(_) => "inline".into(),
        DesignSource::Catalog { name, fast } => {
            if *fast {
                format!("{name}-fast")
            } else {
                name.clone()
            }
        }
    }
}

fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, SpecError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(SpecError(format!("`{key}` must be a string"))),
    }
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, SpecError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n @ JsonValue::Num(_)) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| SpecError(format!("`{key}` must be a non-negative integer"))),
        Some(_) => Err(SpecError(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_bool(v: &JsonValue, key: &str) -> Result<Option<bool>, SpecError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(SpecError(format!("`{key}` must be a boolean"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let s = JobSpec::from_json(
            r#"{"design_catalog":"ispd18_test1","fast":true,"iterations":40,"seed":7,
                "label":"smoke","tenant":"ci","priority":2,"guide":false}"#,
        )
        .unwrap();
        assert_eq!(s.label, "smoke");
        assert_eq!(s.tenant, "ci");
        assert_eq!(s.priority, 2);
        assert_eq!(s.iterations, Some(40));
        assert_eq!(s.seed, Some(7));
        assert!(!s.want_guide);
        assert_eq!(
            s.design,
            DesignSource::Catalog {
                name: "ispd18_test1".into(),
                fast: true
            }
        );
    }

    #[test]
    fn defaults_are_sane() {
        let s = JobSpec::from_json(r#"{"design_text":"grid 8 8\n"}"#).unwrap();
        assert_eq!(s.label, "inline");
        assert_eq!(s.tenant, "anon");
        assert_eq!(s.priority, 0);
        assert_eq!(s.iterations, None);
        assert!(s.want_guide);
        assert_eq!(s.deadline_ms, None);
        assert_eq!(s.max_stall_iters, None);
    }

    #[test]
    fn slo_keys_parse() {
        let s =
            JobSpec::from_json(r#"{"design_text":"x","deadline_ms":60000,"max_stall_iters":500}"#)
                .unwrap();
        assert_eq!(s.deadline_ms, Some(60_000));
        assert_eq!(s.max_stall_iters, Some(500));
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"design_text":"x","bogus":1}"#, "unknown job spec key"),
            (r#"{"design_path":"/etc/hostname"}"#, "unknown job spec key"),
            (r#"{}"#, "exactly one of"),
            (
                r#"{"design_text":"x","design_catalog":"y"}"#,
                "exactly one of",
            ),
            (r#"{"design_text":"x","fast":true}"#, "`fast` only applies"),
            (r#"{"design_text":"x","iterations":0}"#, "at least 1"),
            (r#"{"design_text":"x","iterations":-3}"#, "non-negative"),
            (r#"{"design_text":"x","deadline_ms":0}"#, "at least 1"),
            (r#"{"design_text":"x","deadline_ms":-1}"#, "non-negative"),
            (r#"{"design_text":"x","max_stall_iters":0}"#, "at least 1"),
            (
                r#"{"design_text":"x","max_stall_iters":"soon"}"#,
                "non-negative",
            ),
            (r#"{"design_text":"x","priority":1.5}"#, "integer"),
            (r#"{"design_text":"x","guide":"yes"}"#, "boolean"),
            (r#"{"design_text":7}"#, "must be a string"),
        ] {
            let err = JobSpec::from_json(body).unwrap_err();
            assert!(
                err.0.contains(needle),
                "body {body:?}: error {:?} missing {needle:?}",
                err.0
            );
        }
    }

    #[test]
    fn negative_priority_is_allowed() {
        let s = JobSpec::from_json(r#"{"design_text":"x","priority":-4}"#).unwrap();
        assert_eq!(s.priority, -4);
    }

    #[test]
    fn derives_labels_from_sources() {
        let c = JobSpec::from_json(r#"{"design_catalog":"ispd18_test1","fast":true}"#).unwrap();
        assert_eq!(c.label, "ispd18_test1-fast");
    }
}
