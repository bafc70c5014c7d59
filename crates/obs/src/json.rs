//! A minimal JSON value: renderer *and* parser, dependency-free.
//!
//! The exporter side writes `BENCH_table2a.json` and JSONL trace dumps;
//! the parser side lets CI re-read those files and assert on their shape
//! without reaching for python or crates.io. It is a strict subset of
//! JSON: numbers are `i64` or `f64`, strings escape the mandatory set,
//! and the parser rejects anything it would not itself have written
//! (with the usual whitespace tolerance).

use std::fmt::Write as _;

use crate::trace::TraceEvent;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON does not distinguish, we do).
    Int(i64),
    /// A float. Must be finite — JSON has no NaN/Infinity.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and what went wrong.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// Human-readable description of the failure.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an object entry list.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                // JSON has no NaN/Infinity; emit null rather than garbage.
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                msg: "trailing characters after value",
            });
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(JsonError {
            at: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(JsonError {
            at: *pos,
            msg: "unexpected character",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            msg: "invalid literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        at: start,
        msg: "invalid number",
    })?;
    if float {
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            msg: "invalid number",
        })
    } else {
        text.parse::<i64>().map(Json::Int).map_err(|_| JsonError {
            at: start,
            msg: "invalid number",
        })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    at: *pos,
                    msg: "unterminated string",
                })
            }
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(JsonError {
                            at: *pos,
                            msg: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            at: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            at: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        // Surrogate pairs are not needed for our own
                        // output (we only \u-escape control chars).
                        out.push(char::from_u32(code).ok_or(JsonError {
                            at: *pos,
                            msg: "invalid \\u code point",
                        })?);
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one full UTF-8 character.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    at: *pos,
                    msg: "invalid utf-8 in string",
                })?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    msg: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError {
                at: *pos,
                msg: "expected string key",
            });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError {
                at: *pos,
                msg: "expected ':'",
            });
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    msg: "expected ',' or '}'",
                })
            }
        }
    }
}

/// Converts one drained trace event to a JSON object.
pub fn event_to_json(e: &TraceEvent) -> Json {
    Json::obj(vec![
        ("t_ns", Json::Int(e.t_ns as i64)),
        ("layer", Json::str(e.layer)),
        ("kind", Json::str(e.kind.name())),
        ("dir", Json::str(e.dir.name())),
        ("group", Json::Int(e.group as i64)),
        ("seqno", Json::Int(e.seqno as i64)),
        ("ccp", Json::str(e.ccp.name())),
        ("aux", Json::Int(e.aux as i64)),
    ])
}

/// Writes trace events as JSON Lines (one compact object per line).
pub fn write_jsonl<W: std::io::Write>(w: &mut W, events: &[TraceEvent]) -> std::io::Result<()> {
    for e in events {
        writeln!(w, "{}", event_to_json(e).render())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::str("table2a")),
            ("rounds", Json::Int(10_000)),
            ("ratio", Json::Num(0.53)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "engines",
                Json::Arr(vec![Json::str("IMP"), Json::str("MACH")]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.render();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_int(), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        use crate::trace::{CcpFailure, Direction, Event, EventKind, Recorder};
        let r = Recorder::new(1, 16);
        let tag = r.register("mnak");
        r.writer(0).unwrap().record(&Event {
            t_ns: 7,
            layer: tag,
            kind: EventKind::Cast,
            dir: Direction::Dn,
            group: 3,
            seqno: 41,
            ccp: CcpFailure::None,
            aux: 9,
        });
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &r.drain()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = text.lines().next().unwrap();
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("layer").unwrap().as_str(), Some("mnak"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("cast"));
        assert_eq!(v.get("seqno").unwrap().as_int(), Some(41));
    }
}
