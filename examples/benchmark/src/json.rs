//! JSON for the benchmark: string escaping for what it writes (result lines, the Chrome
//! trace). What it reads back (`BENCHMARK.json`, result files in `--compare`) goes
//! through the repository's own parser, [`imars_bench::gate::Json`] — the workspace's
//! `serde` is an offline no-op stand-in, so there is nothing to derive from.

pub use imars_bench::gate::Json;

/// Escape `text` as the inside of a JSON string literal.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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

/// Known-vector check (`--smoke` runs it): escaping round-trips through the parser.
pub fn self_check() -> Result<(), String> {
    let nasty = "a\"b\\c\nd\te\u{1}f µs";
    let escaped = escape(nasty);
    if escaped != "a\\\"b\\\\c\\nd\\te\\u0001f µs" {
        return Err(format!("escape produced {escaped}"));
    }
    let parsed = Json::parse(&format!("{{\"k\": \"{escaped}\"}}"))?;
    if parsed.get("k").and_then(Json::as_str) != Some(nasty) {
        return Err(format!("escaped text parsed back as {parsed:?}"));
    }
    Ok(())
}
