//! A minimal JSON value for the daemon protocol: parser and renderer, no
//! dependencies.
//!
//! The wire protocol (see [`crate::protocol`]) frames one JSON document per
//! request/response, and the `BENCH_*.json` records are written and gated with
//! the same type. Its string handling covers what protocol payloads need —
//! full escape output for arbitrary Verilog source (control characters as
//! `\u00XX`) and `\uXXXX` escape input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (protocol payloads stay well within `f64` precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is not preserved; renders sorted by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Looks up a path of object keys.
    pub fn get(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            match cur {
                Json::Obj(map) => cur = map.get(*key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders the document with each entry of a top-level object on its own
    /// line, and each element of those entries' arrays on its own line;
    /// deeper values render compact. Bench records use this layout so that a
    /// baseline refresh reads as a line diff.
    pub fn render_indented(&self) -> String {
        let Json::Obj(map) = self else {
            return self.render() + "\n";
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in map.iter().enumerate() {
            out.push_str("  ");
            render_string(key, &mut out);
            out.push_str(": ");
            match value {
                Json::Arr(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.render_into(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => value.render_into(&mut out),
            }
            out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values render without a fractional part so counters
                // survive a parse/render round trip textually.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    /// Returns a byte-offset description of the first syntax error. Nesting
    /// deeper than [`MAX_DEPTH`] is a syntax error, not a recursion: the parser
    /// sees untrusted multi-megabyte frames, and unbounded recursive descent
    /// would let `[[[[…` overflow the handler thread's stack and abort the
    /// whole process instead of earning an `error` response.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Protocol payloads are a
/// couple of levels deep; 64 is far above any legitimate document and far
/// below the recursion depth that would exhaust a thread stack.
pub const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == 0 && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth - 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth - 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
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
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
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
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("malformed number at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    // Accumulate raw bytes and validate as UTF-8 once, so multi-byte sequences
    // survive intact.
    let mut out: Vec<u8> = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out)
                    .map(Json::Str)
                    .map_err(|_| "invalid UTF-8 in string".to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("malformed \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not needed by the protocol; reject
                        // rather than decode them wrong.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| format!("\\u{hex:04x} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips() {
        let doc = Json::obj([
            ("kind", Json::str("map")),
            ("priority", Json::num(3)),
            ("warm", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::Arr(vec![Json::num(1), Json::num(-2.5)])),
            ("verilog", Json::str("module m;\n\tassign x = \"q\\\\\";\nendmodule\r\u{1}")),
            ("unicode", Json::str("§5.1 → Xilinx")),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn indented_layout_puts_top_level_entries_and_array_elements_on_lines() {
        let doc = Json::obj([
            ("scale", Json::str("Quick")),
            ("runs", Json::Arr(vec![Json::obj([("n", Json::num(1))]), Json::num(2)])),
            ("none", Json::Arr(Vec::new())),
            ("nested", Json::obj([("a", Json::Arr(vec![Json::num(3)]))])),
        ]);
        let text = doc.render_indented();
        assert_eq!(
            text,
            "{\n  \"nested\": {\"a\":[3]},\n  \"none\": [],\n  \"runs\": [\n    {\"n\":1},\n    2\n  ],\n  \
             \"scale\": \"Quick\"\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::num(42).render(), "42");
        assert_eq!(Json::num(2.5).render(), "2.5");
    }

    #[test]
    fn control_characters_escape_as_hex() {
        assert_eq!(Json::str("a\u{1}b").render(), "\"a\\u0001b\"");
        assert_eq!(Json::parse("\"a\\u0001b\"").unwrap(), Json::str("a\u{1}b"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["{\"a\": }", "[1, 2", "{\"a\": 1} x", "\"oops", "\"\\u12\"", "\"\\ud800\""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Regression: recursive descent with no depth limit let a frame of
        // ~10-20k nested `[` overflow the handler thread's stack, aborting the
        // whole daemon. Such payloads must earn an error like any other
        // malformed document.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(100_000);
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{open}: {err}");
        }
        // Documents at the limit still parse.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn path_lookup_and_accessors() {
        let doc =
            Json::parse("{\"cache\": {\"hits\": 7, \"warm\": true, \"name\": \"c\"}}").unwrap();
        assert_eq!(doc.get(&["cache", "hits"]).and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get(&["cache", "warm"]).and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get(&["cache", "name"]).and_then(Json::as_str), Some("c"));
        assert!(doc.get(&["cache", "absent"]).is_none());
    }
}
