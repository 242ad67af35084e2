//! A minimal hand-rolled JSON value: renderer and parser.
//!
//! The offline build cannot pull `serde`, and the instrumentation layer
//! needs both to *emit* reports (`--stats=json`, baseline snapshots)
//! and to *read them back* (round-trip tests, future diffing tools).
//! This module implements the JSON subset those uses need: objects,
//! arrays, strings with escapes, finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order via a `Vec`, so
/// rendered reports are deterministic and diff-friendly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Integers within `u64` render without a decimal
    /// point.
    Num(f64),
    /// An exact unsigned integer. Unlike [`Json::Num`], values above
    /// 2^53 render without precision loss; use this for ids, epochs,
    /// and counters. (The parser only produces [`Json::Num`]; exact
    /// round-tripping goes through [`Json::as_u64`].)
    Uint(u64),
    /// A string (stored unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            Json::Uint(n) => Some(*n),
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

    /// Object fields as a sorted map (for order-insensitive comparison).
    pub fn as_map(&self) -> Option<BTreeMap<&str, &Json>> {
        match self {
            Json::Obj(fields) => Some(fields.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty-printed JSON with two-space indentation. The
    /// first line of the output is `{` (or the value itself for
    /// scalars), which report consumers rely on to locate the block.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Uint(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Str(s) => write_string(out, s),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
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
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "JSON cannot represent {n}");
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        // Integral values render without a trailing `.0`.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts (and
/// `skyup`'s TOML reader too). Both parsers recurse once per level, so
/// without a cap one short line of `[`s overflows the reading thread's
/// stack; a request needs 3 levels.
pub const MAX_NESTING: usize = 64;

/// Parses a complete JSON document (surrounding whitespace allowed).
/// Arrays and objects nested more than [`MAX_NESTING`] deep are an
/// error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by our emitter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Num(42.0)),
            ("-7", Json::Num(-7.0)),
            ("2.5", Json::Num(2.5)),
            ("1e3", Json::Num(1000.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.render()).unwrap(), value);
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_NESTING)).is_ok());
        assert!(parse(&objects(MAX_NESTING)).is_ok());
        for deep in [
            arrays(MAX_NESTING + 1),
            objects(MAX_NESTING + 1),
            // Far past the depth whose recursion overflowed a thread
            // stack before the cap.
            arrays(100_000),
        ] {
            let err = parse(&deep).unwrap_err();
            assert_eq!(err.msg, format!("nesting deeper than {MAX_NESTING} levels"));
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::Str("skyup".into())),
            (
                "counters",
                Json::obj(vec![("a", Json::Num(1.0)), ("b", Json::Num(0.0))]),
            ),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::Bool(false), Json::Null]),
            ),
        ]);
        for text in [v.render(), v.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}π".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(5.5).render(), "5.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k": 3, "s": "x", "neg": -1.5}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_map().unwrap().len(), 3);
    }

    #[test]
    fn uint_renders_exactly_above_2_pow_53() {
        // 2^53 + 1 is the first integer an f64 cannot represent.
        let v = (1u64 << 53) + 1;
        assert_eq!(Json::Uint(v).render(), "9007199254740993");
        assert_eq!(Json::Uint(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Uint(0).render(), "0");
        assert_eq!(Json::Uint(v).as_u64(), Some(v));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" \n\t{ \"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
    }
}
