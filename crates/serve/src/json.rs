//! The workspace's JSON: one string escaper and one parser.
//!
//! Every artifact (serve reports, metrics series, Chrome traces, bench summaries, study
//! reports) is written by hand in its own byte-stable layout; what they share lives
//! here. [`escape`] is what every writer puts a string through, and [`Json`] is what
//! reads one back: the bench gate's baselines and summaries, the serving benchmark's
//! `BENCHMARK.json` and compare files, and the tests that check an artifact is
//! well-formed.

use std::fmt::Write as _;

/// Escape a string for embedding in hand-rolled JSON: backslash, quote, and every
/// control character in `\u{0000}`–`\u{001f}` (newlines and tabs would otherwise emit
/// invalid JSON).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON array of integers, `[a, b, …]`.
pub(crate) fn u64_list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The parser recurses
/// once per level, so an unbounded input (`[[[[…`) would overflow the stack; the
/// deepest artifact the workspace writes nests about 5 levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value (objects keep key order; duplicate keys keep the first).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, or of nesting
    /// deeper than 128 arrays and objects.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let hex = bytes.get(at..at + 4)?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// Parse the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
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
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(key) => key,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                if !fields.iter().any(|(k, _): &(String, Json)| *k == key) {
                    fields.push((key, value));
                }
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
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
                                let mut code = hex4(bytes, *pos + 1).ok_or("bad \\u escape")?;
                                *pos += 4;
                                // A high surrogate followed by an escaped low one is one
                                // non-BMP char (what `json.dump` writes for it); a lone
                                // surrogate decodes to U+FFFD.
                                if (0xD800..0xDC00).contains(&code)
                                    && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                                {
                                    if let Some(low) = hex4(bytes, *pos + 3)
                                        .filter(|low| (0xDC00..0xE000).contains(low))
                                    {
                                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        *pos += 6;
                                    }
                                }
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str, so boundaries
                        // are valid).
                        let start = *pos;
                        *pos += 1;
                        while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"),
                        );
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number")?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape(r#"plain"#), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line1\nline2"), "line1\\nline2");
        assert_eq!(escape("tab\there"), "tab\\there");
        assert_eq!(escape("cr\rhere"), "cr\\rhere");
        assert_eq!(escape("bell\u{0007}null\u{0000}"), "bell\\u0007null\\u0000");
        assert_eq!(escape("\u{001f}"), "\\u001f");
        assert_eq!(escape("line1\nline2\tend\r"), "line1\\nline2\\tend\\r");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
        // 0x20 and above pass through.
        assert_eq!(escape("ünïcode ok"), "ünïcode ok");
        // Every ASCII char, and one outside the BMP, comes back from the parser as it
        // went in.
        for text in (0u8..=0x7f)
            .map(|b| char::from(b).to_string())
            .chain(["😀".into()])
        {
            let parsed = Json::parse(&format!("\"{}\"", escape(&text)));
            assert_eq!(parsed, Ok(Json::Str(text.clone())), "{text:?}");
        }
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        let deep = "[".repeat(10_000);
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1,]",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{1: 2}",
            &deep,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        assert!(Json::parse("null").is_ok());
        assert!(Json::parse("[true, false, null, -1.5e-3, \"\\u0041\\n\"]").is_ok());
        // The depth bound sits at MAX_DEPTH levels, not below it.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // An escaped surrogate pair is one char; a lone surrogate is U+FFFD.
        for (text, want) in [
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Str(want.to_string())), "{text}");
        }
    }
}
