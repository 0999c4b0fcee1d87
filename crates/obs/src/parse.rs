//! A minimal recursive-descent JSON reader — the inverse of [`crate::json`].
//!
//! `dgr report` has to read back the telemetry JSONL and the
//! Chrome-trace file this crate wrote, and the workspace has no vendored
//! JSON parser. This module implements just enough of RFC 8259 for that:
//! objects, arrays, strings with the escapes [`crate::json::push_escaped`]
//! emits (plus `\uXXXX`, including surrogate pairs), numbers, booleans and
//! `null`. Numbers are held as `f64` — every value the crate writes fits
//! without precision loss at the magnitudes involved.

use std::collections::BTreeMap;

/// How many objects and arrays a document may nest. The descent recurses
/// once per level, so a deeper document is refused before it can exhaust
/// the stack of the thread reading it (`dgrd` parses request bodies on the
/// observatory's accept loop).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys live in a [`BTreeMap`] so iteration
/// order (and therefore everything the report renders) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value of `self`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// `self` as a non-negative integer (`None` for fractional/negative).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Convenience: `self[key]` as `f64`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// Convenience: `self[key]` as `&str`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }
}

/// Parse error: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document from `input`.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing non-whitespace.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Parses each non-empty line of a JSONL stream, reporting the first
/// malformed line's number (1-based) alongside the parse error.
///
/// # Errors
///
/// Returns `(line_number, error)` for the first malformed line.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, (usize, ParseError)> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_json(line).map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes, for the single-byte look-ahead.
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An object or an array, one level deeper than the value around it.
    fn nested(&mut self) -> Result<JsonValue, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'{') => self.object(),
            _ => self.array(),
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(a));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect \uXXXX low half
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let cp = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                            // hex4 advanced past the digits; undo the
                            // shared `pos += 1` below
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // the whole run up to the next quote, escape or control
                    // character, copied once: all three are ASCII, so both
                    // ends are character boundaries of `text`
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    s.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("-1.5e2").unwrap(), JsonValue::Num(-150.0));
        assert_eq!(
            parse_json(r#""a\nb""#).unwrap(),
            JsonValue::Str("a\nb".into())
        );
    }

    #[test]
    fn round_trips_writer_output() {
        let mut o = crate::json::JsonObject::new();
        o.field_u64("iter", 12);
        o.field_f32("loss", 0.625);
        o.field_opt_u64("rss", None);
        o.field_str("name", "n\"7\"\n");
        o.field_f32_array("xs", &[1.0, f32::NAN]);
        let v = parse_json(&o.finish()).unwrap();
        assert_eq!(v.num("iter"), Some(12.0));
        assert_eq!(v.num("loss"), Some(0.625));
        assert_eq!(v.get("rss"), Some(&JsonValue::Null));
        assert_eq!(v.str("name"), Some("n\"7\"\n"));
        assert_eq!(
            v.get("xs").unwrap().as_arr().unwrap(),
            &[JsonValue::Num(1.0), JsonValue::Null]
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse_json(r#""Aé""#).unwrap(), JsonValue::Str("Aé".into()));
        // surrogate pair for 😀 (U+1F600)
        assert_eq!(parse_json(r#""😀""#).unwrap(), JsonValue::Str("😀".into()));
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn nested_structures() {
        let v = parse_json(r#"{"a":[1,{"b":[]},null],"c":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].get("b").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(v.get("c"), Some(&JsonValue::Obj(BTreeMap::new())));
    }

    /// 100 000 `[` on a thread with the 2 MiB stack of the observatory's
    /// accept loop are refused at the cap, not descended into until the
    /// stack overflows and aborts the process.
    #[test]
    #[allow(clippy::disallowed_methods)] // a thread of a known stack size
    fn nesting_past_the_cap_is_an_error() {
        let deep = "[".repeat(100_000);
        let got = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_json(&deep))
            .unwrap()
            .join()
            .expect("the parse returned");
        let want = ParseError {
            msg: format!("nested deeper than {MAX_DEPTH} levels"),
            at: MAX_DEPTH,
        };
        assert_eq!(got, Err(want));
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&objects).is_err());
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_json("{\"a\":}").unwrap_err();
        assert_eq!(e.at, 5);
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // 1 MiB of source text: plain runs broken by every escape the
        // writer emits and by 2-, 3- and 4-byte scalars
        let unit = "grid 9 é 線 😀 \"q\" back\\slash\ttab\nline ";
        let want = unit.repeat((1 << 20) / unit.len());
        let mut doc = String::new();
        crate::json::push_escaped(&mut doc, &want);
        assert!(doc.len() > 1 << 20);
        let start = std::time::Instant::now();
        let got = parse_json(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(got.as_str(), Some(want.as_str()));
        // a parser that re-validates the rest of the input at every
        // character needs minutes here (0.9 s at 260 KB, and it is
        // quadratic); copying runs takes milliseconds
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    }

    #[test]
    fn string_errors_keep_their_text_and_position() {
        for (doc, msg, at) in [
            ("\"ab\u{1}c\"", "control char in string", 3),
            ("\"é\nx\"", "control char in string", 3),
            ("\"ab\\qc\"", "bad escape", 4),
            ("\"ab\\u12", "truncated \\u escape", 5),
            ("\"ab\\u12zz\"", "bad \\u escape", 5),
            ("\"abc", "unterminated string", 4),
            ("\"线\\", "bad escape", 5),
        ] {
            let e = parse_json(doc).unwrap_err();
            assert_eq!((e.msg.as_str(), e.at), (msg, at), "{doc:?}");
        }
    }

    #[test]
    fn jsonl_reports_line_numbers() {
        let ok = parse_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        let (line, _) = parse_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert_eq!(line, 2);
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(parse_json("4096").unwrap().as_u64(), Some(4096));
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
    }
}
