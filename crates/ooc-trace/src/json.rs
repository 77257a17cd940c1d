//! Dependency-free JSON: a tiny value tree, a pretty-printer, a
//! compact writer, and a strict parser.
//!
//! Replaces `serde_json` (unavailable offline) everywhere the
//! workspace needs machine-readable output. The pretty-printer
//! produces the same 2-space-indented layout `serde_json` would, so
//! previously generated `table*_results.json` files stay diffable;
//! the parser exists so exported traces can be validated structurally
//! in tests and CI.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (shortest round-trip formatting).
    F64(f64),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation (the `serde_json`
    /// layout).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes without any whitespace (for large machine-only files).
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_escaped(out, s),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    open_line(out, depth);
                    item.write(out, depth.map(|d| d + 1));
                }
                close_line(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    open_line(out, depth);
                    write_escaped(out, k);
                    out.push(':');
                    if depth.is_some() {
                        out.push(' ');
                    }
                    v.write(out, depth.map(|d| d + 1));
                }
                close_line(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first problem,
    /// including containers nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

/// Containers nested deeper than this are a parse error: the parser
/// recurses once per level, and its input may be any file named on a
/// command line.
const MAX_DEPTH: usize = 128;

fn open_line(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        out.push_str(&"  ".repeat(d + 1));
    }
}

fn close_line(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, `depth` containers deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let v = parse_value(b, pos, depth + 1)?;
                fields.push((key, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogates and other invalid scalars map to the
                        // replacement character; this validator never emits
                        // surrogate pairs itself.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("unescaped control byte 0x{c:02x} at {}", *pos))
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let s = &b[*pos..];
                let ch_len = match s[0] {
                    c if c < 0x80 => 1,
                    c if c >= 0xf0 => 4,
                    c if c >= 0xe0 => 3,
                    _ => 2,
                };
                out.push_str(std::str::from_utf8(&s[..ch_len]).map_err(|_| "bad UTF-8")?);
                *pos += ch_len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if float {
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Json::I64)
            .map_err(|_| format!("bad integer `{text}` at byte {start}"))
    } else {
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|_| format!("bad integer `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_serde_json_layout() {
        let v = Json::obj([
            ("name", Json::Str("a\"b".into())),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("t", Json::F64(2.0)),
            ("u", Json::F64(2.5)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"name\": \"a\\\"b\",\n  \"xs\": [\n    1,\n    2\n  ],\n  \"t\": 2.0,\n  \"u\": 2.5\n}"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
    }

    #[test]
    fn compact_has_no_whitespace() {
        let v = Json::obj([("a", Json::Arr(vec![Json::U64(1), Json::Null]))]);
        assert_eq!(v.compact(), "{\"a\":[1,null]}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("s", Json::Str("line\nquote\" back\\slash \u{1}".into())),
            ("neg", Json::I64(-42)),
            ("big", Json::U64(u64::MAX)),
            ("f", Json::F64(2.5)),
            ("t", Json::Bool(true)),
            ("n", Json::Null),
            ("arr", Json::Arr(vec![Json::U64(1), Json::Str("x".into())])),
        ]);
        for text in [v.pretty(), v.compact()] {
            let parsed = Json::parse(&text).expect("parses");
            assert_eq!(parsed, v, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"a\": [1, -2, 3.5], \"b\": \"x\"}").expect("parses");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).expect("arr");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.0));
        assert_eq!(arr[2].as_f64(), Some(3.5));
        assert_eq!(v.get("missing"), None);
    }
}
