//! Minimal std-only JSON support for the stats schema: a string escaper,
//! a small recursive-descent parser, and [`validate_stats`], which checks a
//! document against the versioned `spo-stats/1` schema.
//!
//! This is deliberately not a general-purpose JSON library — it parses
//! exactly the subset the schema needs (objects, arrays, strings, unsigned
//! and float numbers, booleans, null) and exists so the CLI and CI can
//! validate emitted stats without external dependencies.

use std::collections::BTreeMap;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Numbers keep their original unsigned-integer
/// reading when possible (the schema is overwhelmingly `u64` counts).
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that parsed exactly as an unsigned integer.
    UInt(u64),
    /// Any other number (negative, fractional, exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` if this is any JSON number (integer or float).
    pub fn is_number(&self) -> bool {
        matches!(self, Value::UInt(_) | Value::Float(_))
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Renders the value as a single-line JSON document with no
    /// insignificant whitespace and object keys in sorted order — the
    /// deterministic form used to embed documents (e.g. a stats snapshot)
    /// inside line-delimited protocols.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Float(f) => {
                // `{}` on f64 round-trips through the parser; non-finite
                // values have no JSON spelling, so degrade them to null.
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses a JSON document. Returns an error message with a byte offset on
/// malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the unescaped run up to the next quote or
                    // backslash in one go. Both are ASCII, so the run ends
                    // on a char boundary of the input &str.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.input[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_int = true;
        if self.peek() == Some(b'.') {
            is_int = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_int = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_int {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

fn check_counter_section(doc: &Value, section: &str) -> Result<(), String> {
    let map = doc
        .get(section)
        .ok_or_else(|| format!("missing section \"{section}\""))?
        .as_object()
        .ok_or_else(|| format!("section \"{section}\" is not an object"))?;
    for (name, v) in map {
        v.as_u64()
            .ok_or_else(|| format!("{section}.{name} is not a non-negative integer"))?;
    }
    Ok(())
}

fn check_histogram_section(doc: &Value, section: &str) -> Result<(), String> {
    let map = doc
        .get(section)
        .ok_or_else(|| format!("missing section \"{section}\""))?
        .as_object()
        .ok_or_else(|| format!("section \"{section}\" is not an object"))?;
    for (name, h) in map {
        let err = |what: &str| format!("{section}.{name}: {what}");
        let obj = h.as_object().ok_or_else(|| err("not an object"))?;
        let count = obj
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing integer \"count\""))?;
        obj.get("sum")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing integer \"sum\""))?;
        let buckets = obj
            .get("buckets")
            .and_then(Value::as_object)
            .ok_or_else(|| err("missing object \"buckets\""))?;
        let mut total = 0u64;
        for (idx, n) in buckets {
            let i: usize = idx
                .parse()
                .map_err(|_| err(&format!("bucket key \"{idx}\" is not an index")))?;
            if i >= crate::HIST_BUCKETS {
                return Err(err(&format!("bucket index {i} out of range")));
            }
            total += n
                .as_u64()
                .ok_or_else(|| err(&format!("bucket {i} count is not an integer")))?;
        }
        if total != count {
            return Err(err(&format!(
                "bucket counts sum to {total} but count is {count}"
            )));
        }
    }
    Ok(())
}

/// Validates a JSON document against the `spo-stats/1` schema:
///
/// * top level is an object with a `"schema"` field equal to
///   [`crate::SCHEMA`];
/// * sections `counters` and `work` are objects of non-negative integers;
/// * sections `histograms` and `durations` are objects of histogram
///   objects (`count`, `sum`, `buckets`), where every bucket key is an
///   index below [`crate::HIST_BUCKETS`] and the bucket counts sum to
///   `count`.
pub fn validate_stats(input: &str) -> Result<(), String> {
    let doc = parse(input)?;
    doc.as_object().ok_or("top level is not an object")?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing string field \"schema\"")?;
    if schema != crate::SCHEMA {
        return Err(format!(
            "schema is \"{schema}\", expected \"{}\"",
            crate::SCHEMA
        ));
    }
    check_counter_section(&doc, "counters")?;
    check_counter_section(&doc, "work")?;
    check_histogram_section(&doc, "histograms")?;
    check_histogram_section(&doc, "durations")?;
    check_diagnostics_section(&doc)?;
    Ok(())
}

/// Validates the optional `diagnostics` section: an array of objects, each
/// carrying the five string fields of one degradation record. Documents
/// written before the section existed simply omit it.
fn check_diagnostics_section(doc: &Value) -> Result<(), String> {
    let Some(section) = doc.get("diagnostics") else {
        return Ok(());
    };
    let Value::Array(items) = section else {
        return Err("section \"diagnostics\" is not an array".to_owned());
    };
    for (i, item) in items.iter().enumerate() {
        let obj = item
            .as_object()
            .ok_or(format!("diagnostics[{i}] is not an object"))?;
        for field in ["severity", "phase", "root", "cause", "message"] {
            if !matches!(obj.get(field), Some(Value::Str(_))) {
                return Err(format!(
                    "diagnostics[{i}] is missing string field \"{field}\""
                ));
            }
        }
    }
    Ok(())
}

/// Validates a JSON document against the `spo-trace/1` schema
/// ([`crate::trace::TRACE_SCHEMA`]):
///
/// * top level is an object with a `"schema"` field equal to
///   `spo-trace/1` and a non-negative integer `"dropped"`;
/// * `"traceEvents"` is an array of Chrome Trace Event objects: each has
///   a string `"name"`, a string `"ph"` in `{X, i, C, M}`, and integer
///   `"pid"`/`"tid"`;
/// * non-metadata events carry a numeric `"ts"`; `X` events a numeric
///   `"dur"`; `i` events a string `"s"` scope; `C` events an `"args"`
///   object.
///
/// Extra top-level keys (`displayTimeUnit`, …) are permitted, matching
/// what Perfetto and `chrome://tracing` accept.
pub fn validate_trace(input: &str) -> Result<(), String> {
    let doc = parse(input)?;
    doc.as_object().ok_or("top level is not an object")?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing string field \"schema\"")?;
    if schema != crate::trace::TRACE_SCHEMA {
        return Err(format!(
            "schema is \"{schema}\", expected \"{}\"",
            crate::trace::TRACE_SCHEMA
        ));
    }
    doc.get("dropped")
        .and_then(Value::as_u64)
        .ok_or("missing non-negative integer \"dropped\"")?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing field \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let err = |what: &str| format!("traceEvents[{i}]: {what}");
        let obj = ev.as_object().ok_or_else(|| err("not an object"))?;
        if !matches!(obj.get("name"), Some(Value::Str(_))) {
            return Err(err("missing string \"name\""));
        }
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing string \"ph\""))?;
        for field in ["pid", "tid"] {
            obj.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| err(&format!("missing integer \"{field}\"")))?;
        }
        match ph {
            "M" => {}
            "X" | "i" | "C" => {
                if !obj.get("ts").is_some_and(Value::is_number) {
                    return Err(err("missing numeric \"ts\""));
                }
                match ph {
                    "X" if !obj.get("dur").is_some_and(Value::is_number) => {
                        return Err(err("X event missing numeric \"dur\""));
                    }
                    "i" if !matches!(obj.get("s"), Some(Value::Str(_))) => {
                        return Err(err("i event missing string scope \"s\""));
                    }
                    "C" if obj.get("args").and_then(Value::as_object).is_none() => {
                        return Err(err("C event missing object \"args\""));
                    }
                    _ => {}
                }
            }
            other => return Err(err(&format!("unsupported phase \"{other}\""))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_basics() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n", -2.5], "c": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap(), &Value::UInt(1));
        let arr = match v.get("b").unwrap() {
            Value::Array(a) => a,
            _ => panic!("not an array"),
        };
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2], Value::Str("x\n".into()));
        assert_eq!(arr[3], Value::Float(-2.5));
        assert!(v.get("c").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn strings_keep_multibyte_text_and_every_escape() {
        let v = parse(r#""héllo ✓ 𝄞 \" \\ \/ \n \r \t \b \f \u00e9 \u2713 end""#).unwrap();
        assert_eq!(
            v.as_str().unwrap(),
            "héllo ✓ 𝄞 \" \\ / \n \r \t \u{8} \u{c} é ✓ end"
        );
        // Runs on either side of an escape, and escapes back to back.
        let v = parse(r#"["ü\"ü", "\n\n", "", "ends with ß"]"#).unwrap();
        let items: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(items, ["ü\"ü", "\n\n", "", "ends with ß"]);
        assert!(parse(r#""unterminated ✓"#).is_err());
        assert!(parse(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn parse_is_linear_in_string_length() {
        // A string over 1 MiB: quadratic scanning would take minutes here.
        let body: String = "abcdefé\\n".repeat(1 << 17);
        let doc = format!("{{\"k\": \"{body}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let got = v.get("k").unwrap().as_str().unwrap();
        assert_eq!(got, "abcdefé\n".repeat(1 << 17));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "parsing a 1 MiB string took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn escape_is_parseable() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn compact_rendering_roundtrips_and_is_deterministic() {
        let doc = r#"{"z": 1, "a": [true, null, "x\n\"y"], "m": {"k": 2.5}}"#;
        let v = parse(doc).unwrap();
        let compact = v.to_compact();
        // Single line, keys sorted, no insignificant whitespace.
        assert_eq!(compact, r#"{"a":[true,null,"x\n\"y"],"m":{"k":2.5},"z":1}"#);
        // Round-trips to the same value and the same bytes.
        let again = parse(&compact).unwrap();
        assert_eq!(again, v);
        assert_eq!(again.to_compact(), compact);
        // A full multi-line snapshot compacts to one valid line.
        let rec = crate::Recorder::new();
        rec.counter("a").add(1);
        rec.duration("d").record(100);
        let line = parse(&rec.snapshot().to_json()).unwrap().to_compact();
        assert!(!line.contains('\n'));
        validate_stats(&line).unwrap();
    }

    #[test]
    fn validate_accepts_real_snapshot() {
        let rec = crate::Recorder::new();
        rec.counter("a").add(1);
        rec.work_counter("w").add(2);
        rec.histogram("h").record(5);
        rec.duration("d").record(100);
        validate_stats(&rec.snapshot().to_json()).unwrap();
    }

    #[test]
    fn validate_rejects_bad_documents() {
        // Wrong schema version.
        let bad = r#"{"schema": "spo-stats/0", "counters": {}, "work": {},
                      "histograms": {}, "durations": {}}"#;
        assert!(validate_stats(bad).unwrap_err().contains("schema"));
        // Missing section.
        let bad = r#"{"schema": "spo-stats/1", "counters": {}, "work": {},
                      "histograms": {}}"#;
        assert!(validate_stats(bad).unwrap_err().contains("durations"));
        // Negative counter.
        let bad = r#"{"schema": "spo-stats/1", "counters": {"c": -1}, "work": {},
                      "histograms": {}, "durations": {}}"#;
        assert!(validate_stats(bad).unwrap_err().contains("non-negative"));
        // Bucket counts disagree with count.
        let bad = r#"{"schema": "spo-stats/1", "counters": {}, "work": {},
                      "histograms": {"h": {"count": 3, "sum": 9,
                                           "buckets": {"2": 1}}},
                      "durations": {}}"#;
        assert!(validate_stats(bad).unwrap_err().contains("sum to"));
        // Bucket index out of range.
        let bad = r#"{"schema": "spo-stats/1", "counters": {}, "work": {},
                      "histograms": {"h": {"count": 1, "sum": 1,
                                           "buckets": {"65": 1}}},
                      "durations": {}}"#;
        assert!(validate_stats(bad).unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_trace_rejects_bad_documents() {
        // Wrong schema version.
        let bad = r#"{"schema": "spo-trace/0", "dropped": 0, "traceEvents": []}"#;
        assert!(validate_trace(bad).unwrap_err().contains("schema"));
        // Missing traceEvents.
        let bad = r#"{"schema": "spo-trace/1", "dropped": 0}"#;
        assert!(validate_trace(bad).unwrap_err().contains("traceEvents"));
        // Unsupported phase.
        let bad = r#"{"schema": "spo-trace/1", "dropped": 0, "traceEvents":
                      [{"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("phase"));
        // Complete event without a duration.
        let bad = r#"{"schema": "spo-trace/1", "dropped": 0, "traceEvents":
                      [{"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 1.5}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("dur"));
        // Fractional timestamps are fine.
        let ok = r#"{"schema": "spo-trace/1", "dropped": 0, "traceEvents":
                     [{"name": "a", "ph": "X", "pid": 1, "tid": 1,
                       "ts": 1.5, "dur": 0.25}]}"#;
        validate_trace(ok).unwrap();
    }
}
