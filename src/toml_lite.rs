//! A minimal TOML-subset parser for scenario files.
//!
//! The offline build cannot pull a TOML crate, and scenario files only
//! need a small, regular slice of the language. The parser produces the
//! same [`Json`] value the hand-rolled JSON parser does, so the
//! scenario decoder works on one AST regardless of the file format.
//!
//! Supported subset:
//! * bare keys and `key = value` pairs,
//! * `[table]` and `[table.sub]` headers,
//! * `[[array-of-tables]]` headers,
//! * values: basic strings (`"..."` with `\"`, `\\`, `\n`, `\t`
//!   escapes), literal strings (`'...'`), integers, floats, booleans,
//!   (nested, possibly multi-line) arrays, and inline tables
//!   (`{ k = v, ... }`),
//! * `#` comments and blank lines.
//!
//! Not supported (and rejected with a line-numbered error): dotted
//! keys, dates, multi-line strings, and key reassignment.

use skyup_obs::json::{Json, MAX_NESTING};

/// Parses the subset into a [`Json::Obj`]. Errors carry the 1-based
/// line number. Arrays and inline tables nested more than
/// [`MAX_NESTING`] deep, and table headers with more segments, are
/// errors.
pub fn parse_toml(input: &str) -> Result<Json, String> {
    Parser {
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    }
    .parse_document()
}

/// One step of a table path: an object key, or "the last element" of an
/// array of tables.
#[derive(Clone, Debug)]
enum Seg {
    Key(String),
    Last(String),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u64,
    /// Arrays and inline tables open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> String {
        format!("line {}: {}", self.line, msg.into())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Skips spaces and tabs (not newlines) and comments-to-EOL.
    fn skip_inline_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Skips all whitespace including newlines and comments.
    fn skip_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                return;
            }
        }
    }

    fn expect_eol(&mut self) -> Result<(), String> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(self.err(format!("expected end of line, found `{}`", b as char))),
        }
    }

    fn parse_document(mut self) -> Result<Json, String> {
        let mut root = Json::Obj(Vec::new());
        let mut current: Vec<Seg> = Vec::new();
        loop {
            self.skip_ws();
            let Some(b) = self.peek() else {
                return Ok(root);
            };
            if b == b'[' {
                current = self.parse_header(&mut root)?;
            } else {
                let key = self.parse_key()?;
                self.skip_inline_ws();
                if self.peek() != Some(b'=') {
                    return Err(self.err(format!("expected `=` after key `{key}`")));
                }
                self.bump();
                self.skip_inline_ws();
                let value = self.parse_value()?;
                let table = resolve_mut(&mut root, &current)
                    .ok_or_else(|| self.err("internal: lost the current table"))?;
                let Json::Obj(fields) = table else {
                    return Err(self.err("internal: current table is not a table"));
                };
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(self.err(format!("key `{key}` is set twice")));
                }
                fields.push((key, value));
                self.expect_eol()?;
            }
        }
    }

    /// Parses `[path]` or `[[path]]`, creates the table, and returns
    /// the segment path to it.
    fn parse_header(&mut self, root: &mut Json) -> Result<Vec<Seg>, String> {
        self.bump(); // '['
        let aot = self.peek() == Some(b'[');
        if aot {
            self.bump();
        }
        self.skip_inline_ws();
        let mut keys = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            match self.peek() {
                Some(b'.') => {
                    self.bump();
                    self.skip_inline_ws();
                    keys.push(self.parse_key()?);
                    if keys.len() > MAX_NESTING {
                        return Err(self.err(format!(
                            "table header nests deeper than {MAX_NESTING} levels"
                        )));
                    }
                }
                Some(b']') => break,
                other => {
                    return Err(self.err(format!(
                        "expected `.` or `]` in table header, found {other:?}"
                    )))
                }
            }
        }
        self.bump(); // ']'
        if aot && self.bump() != Some(b']') {
            return Err(self.err("array-of-tables header needs `]]`"));
        }

        // Walk/create the intermediate tables.
        let mut path: Vec<Seg> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let last = i + 1 == keys.len();
            let table = resolve_mut(root, &path)
                .ok_or_else(|| self.err("internal: lost the table path"))?;
            let Json::Obj(fields) = table else {
                return Err(self.err(format!("`{key}` is not inside a table")));
            };
            let existing = fields.iter().position(|(k, _)| k == key);
            match (last, aot) {
                (true, true) => {
                    let idx = match existing {
                        Some(i) => i,
                        None => {
                            fields.push((key.clone(), Json::Arr(Vec::new())));
                            fields.len() - 1
                        }
                    };
                    let Json::Arr(items) = &mut fields[idx].1 else {
                        return Err(self.err(format!("`{key}` is not an array of tables")));
                    };
                    items.push(Json::Obj(Vec::new()));
                    path.push(Seg::Last(key.clone()));
                }
                (true, false) => {
                    if existing.is_some() {
                        return Err(self.err(format!("table `{key}` is defined twice")));
                    }
                    fields.push((key.clone(), Json::Obj(Vec::new())));
                    path.push(Seg::Key(key.clone()));
                }
                (false, _) => {
                    match existing {
                        Some(i) => match &fields[i].1 {
                            Json::Obj(_) => path.push(Seg::Key(key.clone())),
                            Json::Arr(_) => path.push(Seg::Last(key.clone())),
                            _ => {
                                return Err(
                                    self.err(format!("`{key}` is not a table to descend into"))
                                )
                            }
                        },
                        None => {
                            fields.push((key.clone(), Json::Obj(Vec::new())));
                            path.push(Seg::Key(key.clone()));
                        }
                    };
                }
            }
        }
        self.expect_eol()?;
        Ok(path)
    }

    fn parse_key(&mut self) -> Result<String, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a key"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.parse_basic_string().map(Json::Str),
            Some(b'\'') => self.parse_literal_string().map(Json::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(_) => self.parse_number(),
            None => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or inline table a level deeper, refusing to go
    /// past [`MAX_NESTING`]: each level is one recursive call.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_basic_string(&mut self) -> Result<String, String> {
        self.bump(); // '"'
        let mut out = String::new();
        loop {
            if matches!(self.peek(), None | Some(b'\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                None | Some(b'\n') => unreachable!("peeked above"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => return Err(self.err(format!("unsupported escape {other:?}"))),
                },
                Some(b) => out.push(b as char),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, String> {
        self.bump(); // '\''
        let mut out = String::new();
        loop {
            if matches!(self.peek(), None | Some(b'\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                Some(b'\'') => return Ok(out),
                Some(b) => out.push(b as char),
                None => unreachable!("peeked above"),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Json, String> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(self.err("expected `true` or `false`"))
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E' | b'_') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).replace('_', "");
        if text.is_empty() {
            return Err(self.err("expected a value"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("`{text}` is not a number")))?;
        if !n.is_finite() {
            return Err(self.err(format!("`{text}` is not finite")));
        }
        Ok(Json::Num(n))
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.bump();
                return Ok(Json::Arr(items));
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                other => return Err(self.err(format!("expected `,` or `]`, found {other:?}"))),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Json, String> {
        self.bump(); // '{'
        let mut fields: Vec<(String, Json)> = Vec::new();
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'}') {
                self.bump();
                return Ok(Json::Obj(fields));
            }
            let key = self.parse_key()?;
            self.skip_inline_ws();
            if self.bump() != Some(b'=') {
                return Err(self.err(format!("expected `=` after key `{key}`")));
            }
            self.skip_inline_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_inline_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {}
                other => return Err(self.err(format!("expected `,` or `}}`, found {other:?}"))),
            }
        }
    }
}

fn resolve_mut<'j>(root: &'j mut Json, path: &[Seg]) -> Option<&'j mut Json> {
    let mut node = root;
    for seg in path {
        node = match seg {
            Seg::Key(k) => match node {
                Json::Obj(fields) => fields
                    .iter_mut()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v)?,
                _ => return None,
            },
            Seg::Last(k) => match node {
                Json::Obj(fields) => {
                    let arr = fields
                        .iter_mut()
                        .find(|(key, _)| key == k)
                        .map(|(_, v)| v)?;
                    match arr {
                        Json::Arr(items) => items.last_mut()?,
                        _ => return None,
                    }
                }
                _ => return None,
            },
        };
    }
    Some(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_tables_and_arrays() {
        let doc = parse_toml(
            "name = \"demo\"            # trailing comment\n\
             count = 3\n\
             ratio = 0.5\n\
             flag = true\n\
             \n\
             [dataset]\n\
             competitors = [[0.1, 0.2], [0.3, 0.4]]\n\
             \n\
             [query]\n\
             k = 2\n",
        )
        .unwrap();
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("demo"));
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("ratio").and_then(|v| v.as_f64()), Some(0.5));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        let rows = doc.get("dataset").unwrap().get("competitors").unwrap();
        let Json::Arr(rows) = rows else { panic!() };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get(""), None); // rows are arrays, not objects
        assert_eq!(
            doc.get("query").unwrap().get("k").and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn array_of_tables_in_order() {
        let doc = parse_toml(
            "[[ops]]\nadd = [0.5, 0.5]\n\
             [[ops]]\nremove = 3\n\
             [[ops]]\nremove = 4\nexpect_rebuilt = true\n",
        )
        .unwrap();
        let Some(Json::Arr(ops)) = doc.get("ops") else {
            panic!()
        };
        assert_eq!(ops.len(), 3);
        assert!(ops[0].get("add").is_some());
        assert_eq!(ops[1].get("remove").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(ops[2].get("expect_rebuilt"), Some(&Json::Bool(true)));
    }

    #[test]
    fn multiline_arrays_and_inline_tables() {
        let doc = parse_toml(
            "[expect]\n\
             top = [\n\
               { index = 0, cost = 1.25 },  # first\n\
               { index = 1, cost = 2.5 },\n\
             ]\n",
        )
        .unwrap();
        let Some(Json::Arr(top)) = doc.get("expect").unwrap().get("top") else {
            panic!()
        };
        assert_eq!(top.len(), 2);
        assert_eq!(top[1].get("cost").and_then(|v| v.as_f64()), Some(2.5));
    }

    #[test]
    fn dotted_headers_and_negatives() {
        let doc = parse_toml("[a.b]\nx = -1.5\ny = 'lit'\n").unwrap();
        let b = doc.get("a").unwrap().get("b").unwrap();
        assert_eq!(b.get("x").and_then(|v| v.as_f64()), Some(-1.5));
        assert_eq!(b.get("y").and_then(|v| v.as_str()), Some("lit"));
    }

    #[test]
    fn errors_name_the_line() {
        for (text, needle) in [
            ("a = 1\na = 2\n", "line 2"),
            ("[t]\nbad\n", "line 2"),
            ("x = \"unterminated\n", "line 1"),
            ("x = nan\n", "line 1"),
            ("[[t]]\n[t]\n", "line 2"),
        ] {
            let err = parse_toml(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |depth: usize| format!("x = {}{}\n", "[".repeat(depth), "]".repeat(depth));
        let tables =
            |depth: usize| format!("x = {}1{}\n", "{ a = ".repeat(depth), " }".repeat(depth));
        let header = |depth: usize| format!("[{}]\n", vec!["t"; depth].join("."));
        for ok in [
            arrays(MAX_NESTING),
            tables(MAX_NESTING),
            header(MAX_NESTING),
        ] {
            assert!(parse_toml(&ok).is_ok(), "{ok}");
        }
        let deep = format!("line 1: nesting deeper than {MAX_NESTING} levels");
        for (text, want) in [
            (arrays(MAX_NESTING + 1), deep.clone()),
            (tables(MAX_NESTING + 1), deep.clone()),
            // Far past the depth whose recursion overflowed a thread
            // stack before the cap.
            (arrays(100_000), deep),
            (
                header(MAX_NESTING + 1),
                format!("line 1: table header nests deeper than {MAX_NESTING} levels"),
            ),
        ] {
            assert_eq!(parse_toml(&text).unwrap_err(), want);
        }
    }
}
