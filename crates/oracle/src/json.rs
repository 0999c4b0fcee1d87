//! Fuzz case files: one flat JSON object per [`CaseSpec`], written with
//! [`dgr_obs::json`] and read back with [`dgr_obs::parse`] (the
//! workspace vendors no `serde_json`).

use dgr_obs::json::JsonObject;
use dgr_obs::parse::{parse_json, JsonValue};

use crate::gen::{CaseSpec, CheckKind};

/// Serializes a spec (plus a free-form note) as one flat JSON object.
pub fn write_case(spec: &CaseSpec, note: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("check", spec.check.name());
    o.field_u64("seed", spec.seed);
    // the parser holds numbers as f64, which is exact only up to 2^53:
    // the hex string carries all 64 bits and wins when present
    o.field_str("seed_hex", &format!("{:016x}", spec.seed));
    o.field_u64("width", spec.width.into());
    o.field_u64("height", spec.height.into());
    o.field_f32("tracks", spec.tracks);
    o.field_u64("num_nets", spec.num_nets as u64);
    o.field_u64("max_pins", spec.max_pins as u64);
    o.field_u64("num_layers", spec.num_layers.into());
    o.field_raw("hotspot", &spec.hotspot.to_string());
    o.field_raw("pin_density", &spec.pin_density.to_string());
    o.field_u64("ops", spec.ops as u64);
    o.field_str("note", note);
    o.finish() + "\n"
}

/// Parses a dumped case file back into a [`CaseSpec`] (the `note` field
/// is ignored). The seed is read from `seed_hex` when the file has one —
/// exact for all 64 bits — and from the numeric `seed` otherwise
/// (hand-written cases with small seeds).
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem.
pub fn parse_case(text: &str) -> Result<CaseSpec, String> {
    let v = parse_json(text).map_err(|e| e.to_string())?;
    let num = |key: &str| {
        v.num(key)
            .ok_or_else(|| format!("field {key:?} is missing or not a number"))
    };
    let boolean = |key: &str| match v.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("field {key:?} is missing or not a bool")),
    };
    let check = v
        .str("check")
        .ok_or("field \"check\" is missing or not a string")?;
    Ok(CaseSpec {
        check: CheckKind::from_name(check).ok_or_else(|| format!("unknown check {check:?}"))?,
        seed: match v.str("seed_hex") {
            Some(hex) => u64::from_str_radix(hex, 16)
                .map_err(|e| format!("field \"seed_hex\" is not a 64-bit hex number: {e}"))?,
            None => num("seed")? as u64,
        },
        width: num("width")? as u32,
        height: num("height")? as u32,
        tracks: num("tracks")? as f32,
        num_nets: num("num_nets")? as usize,
        max_pins: num("max_pins")? as usize,
        num_layers: num("num_layers")? as u32,
        hotspot: boolean("hotspot")?,
        pin_density: boolean("pin_density")?,
        ops: num("ops")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        for kind in CheckKind::ALL {
            for seed in [0u64, 17, 123_456_789, (1 << 53) + 1, u64::MAX] {
                let spec = CaseSpec::sample(kind, seed);
                let text = write_case(&spec, "mismatch: details \"quoted\"\nsecond line");
                let back = parse_case(&text).expect("own output parses");
                assert_eq!(back, spec);
            }
        }
    }

    #[test]
    fn numeric_seed_parses_when_there_is_no_hex_seed() {
        let spec = CaseSpec::sample(CheckKind::Rsmt, 42);
        let text = write_case(&spec, "").replace("\"seed_hex\":\"000000000000002a\",", "");
        assert!(!text.contains("seed_hex"));
        assert_eq!(parse_case(&text), Ok(spec));
        assert!(
            parse_case(&text.replace("\"seed\":42", "\"seed\":42,\"seed_hex\":\"xyz\"")).is_err()
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_case("").is_err());
        assert!(parse_case("{").is_err());
        assert!(parse_case("{\"check\": \"nope\"}").is_err());
        assert!(parse_case("{\"seed\": []}").is_err());
    }
}
