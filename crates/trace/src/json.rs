//! The workspace's one JSON reader (plus the `escape` / `format_f64`
//! helpers the hand-rolled writers share).
//!
//! The build container is offline (no serde), so the exporters in this
//! workspace hand-roll JSON *writing*; this module is the matching
//! *reader* used by plan-profile ingest, the perf-report round-trip
//! validation, the repo benchmark and tests. It parses the full JSON
//! grammar into an owned tree; object keys keep insertion order.
//!
//! Two properties matter because some inputs are untrusted files
//! (`SHALOM_PROFILE`, `compare A B`): nesting is bounded by
//! [`MAX_DEPTH`] (an error naming the byte offset, not a stack
//! overflow), and a plain non-negative integer that fits `u64` is kept
//! exactly ([`JsonValue::UInt`]) — profile fingerprints are full-width
//! `u64`s that an `f64` would round above 2^53.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A plain non-negative integer (no sign, fraction or exponent) that
    /// fits `u64`, kept exactly.
    UInt(u64),
    /// Any other number, as `f64`.
    Num(f64),
    /// String with escapes decoded.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `f64` (nearest, for integers above 2^53), if this is a
    /// number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Number as `u64` if it is a non-negative integer below 2^64:
    /// exact for [`JsonValue::UInt`]; an integral float form (`1e3`,
    /// `5.0`) converts when in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            // `u64::MAX as f64` rounds up to 2^64, hence the strict bound.
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Borrowed string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrowed element vector, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Borrowed members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests under 8; the bound keeps a hostile input
/// (`"[".repeat(1 << 20)`) from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace and nesting deeper
/// than [`MAX_DEPTH`] are errors. Errors name the byte offset they were
/// detected at.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Digits only: keep the integer exact when it fits (a longer run
    // falls through to the nearest `f64`).
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one whole UTF-8 scalar (may be multi-byte).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest)
                    .or_else(|e| {
                        std::str::from_utf8(&rest[..e.valid_up_to()]).map_err(|e2| e2.to_string())
                    })
                    .map_err(|e| e.to_string())?;
                match s.chars().next() {
                    Some(c) => {
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                    None => return Err("invalid UTF-8 in string".to_string()),
                }
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it round-trips exactly through [`parse`] and is
/// valid JSON (no `NaN`/`inf`; those become `0`).
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Rust prints integral floats without a dot; both forms are
        // valid JSON, keep as-is.
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let doc = parse(r#"{"a": 1, "b": [true, false, null, -2.5e3], "c": {"nested": "x\nyA"}}"#)
            .unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = doc.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[2], JsonValue::Null);
        assert_eq!(arr[3].as_f64(), Some(-2500.0));
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(JsonValue::as_str),
            Some("x\nyA")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{\"a\":1}extra",
            "12 34",
            "\"abc",
            "nul",
            "{\"e\":\"\\q\"}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"s\" : \"x\\\"y\\\\z\" } ").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"y\\z"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // At the bound: accepted. One past it: rejected at that byte.
        let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains(&format!("at byte {}", MAX_DEPTH + 1)), "{err}");
        // The hostile shapes: a megabyte of open brackets, objects too.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn integers_are_exact_through_u64_max() {
        let v = parse(r#"{"version":1,"entries":[{"op":"N","fp":18446744073709551615}]}"#).unwrap();
        assert_eq!(v.get("version").and_then(JsonValue::as_u64), Some(1));
        let entries = v.get("entries").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(entries[0].get("op").and_then(JsonValue::as_str), Some("N"));
        assert_eq!(
            entries[0].get("fp").and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );
        // 2^53 + 1 is the first integer an f64 cannot hold.
        for n in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let back = parse(&n.to_string()).unwrap();
            assert_eq!(back, JsonValue::UInt(n));
            assert_eq!(back.as_u64(), Some(n));
        }
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        // Integral float forms still convert; non-integers and negatives do not.
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn out_of_range_extraction_is_none() {
        // 2^64 and 2^128 - 1 parse (as the nearest f64) but are not u64s.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        let v = parse("340282366920938463463374607431768211455").unwrap();
        assert_eq!(v.as_u64(), None);
        assert!(v.as_f64().is_some());
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.0, 1.0, -3.75, 0.1, 123456789.123, 1e-12, f64::MAX] {
            let text = format_f64(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "via {text}");
        }
        assert_eq!(format_f64(f64::NAN), "0");
        assert_eq!(format_f64(f64::INFINITY), "0");
    }

    #[test]
    fn escape_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}";
        let doc = parse(&format!("\"{}\"", escape(original))).unwrap();
        assert_eq!(doc.as_str(), Some(original));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2}"#).unwrap();
        let members = doc.as_obj().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }
}
