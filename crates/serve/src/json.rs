//! A minimal JSON value type with parser and writer.
//!
//! The wire protocol and the job journal are line-delimited JSON, but the
//! dependency set has no serializer. This module is the small, fully-owned JSON
//! subset both sides share: objects, arrays, strings with escapes,
//! numbers, booleans and null. Object keys keep insertion order so encoded
//! lines are deterministic — the golden session transcript depends on it.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`; the protocol's integers are small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Look up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialise to a single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON value from `text`, requiring that nothing but
    /// whitespace follows it. Nesting deeper than [`MAX_DEPTH`] is
    /// rejected (protocol lines come from untrusted peers; unbounded
    /// recursion would let `"[[[[…"` overflow the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { at: pos, reason: "trailing characters after value" });
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8, reason: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, reason })
    }
}

/// Maximum container nesting [`Json::parse`] accepts. The protocol and
/// journal never nest more than a couple of levels; the bound exists so a
/// hostile line cannot recurse the connection thread off its stack.
pub const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH {
        return Err(JsonError { at: *pos, reason: "nesting too deep" });
    }
    match bytes.get(*pos) {
        None => Err(JsonError { at: *pos, reason: "unexpected end of input" }),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError { at: *pos, reason: "expected ',' or '}'" }),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError { at: *pos, reason: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &[u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError { at: *pos, reason: "invalid literal" })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { at: start, reason: "invalid number" })?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(JsonError { at: start, reason: "invalid number" }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { at: *pos, reason: "unterminated string" }),
            Some(b'"') => {
                out.push_str(str_slice(bytes, chunk_start, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(str_slice(bytes, chunk_start, *pos)?);
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        match code {
                            // A high surrogate must be immediately followed
                            // by a `\uDC00`–`\uDFFF` low surrogate; standard
                            // encoders emit non-BMP characters this way.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(JsonError {
                                        at: *pos,
                                        reason: "unpaired high surrogate",
                                    });
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(JsonError {
                                        at: *pos,
                                        reason: "unpaired high surrogate",
                                    });
                                }
                                *pos += 6;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or(JsonError { at: *pos, reason: "bad \\u escape" })?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(JsonError {
                                    at: *pos,
                                    reason: "unpaired low surrogate",
                                })
                            }
                            code => char::from_u32(code)
                                .ok_or(JsonError { at: *pos, reason: "bad \\u escape" })?,
                        }
                    }
                    _ => return Err(JsonError { at: *pos, reason: "unknown escape" }),
                };
                out.push(escaped);
                *pos += 1;
                chunk_start = *pos;
            }
            Some(_) => *pos += 1,
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes.get(at..at + 4).ok_or(JsonError { at, reason: "truncated \\u escape" })?;
    let hex = std::str::from_utf8(hex).map_err(|_| JsonError { at, reason: "bad \\u escape" })?;
    u32::from_str_radix(hex, 16).map_err(|_| JsonError { at, reason: "bad \\u escape" })
}

fn str_slice(bytes: &[u8], start: usize, end: usize) -> Result<&str, JsonError> {
    std::str::from_utf8(&bytes[start..end])
        .map_err(|_| JsonError { at: start, reason: "invalid UTF-8 in string" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_value_kind() {
        let value = Json::obj([
            ("cmd", Json::str("submit")),
            ("priority", Json::num(3)),
            ("seconds", Json::Num(0.25)),
            ("negative", Json::Num(-7.0)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::Arr(vec![Json::num(1), Json::str("two")])),
        ]);
        let text = value.encode();
        assert_eq!(Json::parse(&text), Ok(value));
        assert!(text.starts_with("{\"cmd\":\"submit\""), "keys keep insertion order: {text}");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let gnarly = "line1\nline2\t\"quoted\" back\\slash \u{1}control >seq";
        let encoded = Json::Str(gnarly.into()).encode();
        assert!(!encoded.contains('\n'), "payloads stay on one line: {encoded}");
        assert_eq!(Json::parse(&encoded), Ok(Json::Str(gnarly.into())));
        // FASTA payloads survive a protocol round trip verbatim.
        let fasta = ">a desc\nMKVL-AW\n>b\nMK.VLAW\n";
        let wire = Json::obj([("fasta", Json::str(fasta))]).encode();
        let back = Json::parse(&wire).unwrap();
        assert_eq!(back.get("fasta").unwrap().as_str(), Some(fasta));
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse(r#"{"n":4,"f":1.5,"s":"x","b":false,"i":-2}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("i").unwrap().as_i64(), Some(-2));
        assert_eq!(v.get("i").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in
            ["", "{", "{\"a\"", "{\"a\":}", "[1,", "\"unterminated", "{\"a\":1}x", "nul", "1.2.3"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // A truncated journal line is exactly this shape.
        assert!(Json::parse(r#"{"entry":"finished","job":"fam_a","dig"#).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""Aé""#), Ok(Json::Str("Aé".into())));
        assert!(Json::parse(r#""\u00g1""#).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // What `json.dumps("😀")` (ensure_ascii) puts on the wire.
        assert_eq!(Json::parse(r#""😀""#), Ok(Json::Str("😀".into())));
        assert_eq!(Json::parse(r#""a😀b""#), Ok(Json::Str("a😀b".into())));
        // Non-BMP characters survive an encode→parse round trip whether
        // sent raw or escaped.
        let raw = Json::Str("header 𝛼😀".into());
        assert_eq!(Json::parse(&raw.encode()), Ok(raw));
    }

    #[test]
    fn unpaired_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate, then a plain char
            r#""\ud83d\n""#,     // high surrogate, then a non-\u escape
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83d\ude0""#,  // truncated low escape
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Within the bound: fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        assert!(Json::parse(&ok).is_ok());
        // One past it: a clean error, not deeper recursion.
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Json::parse(&deep).unwrap_err().reason, "nesting too deep");
        // The attack shape from untrusted input: a huge run of openers
        // must error out instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
    }
}
