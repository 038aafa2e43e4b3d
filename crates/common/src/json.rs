//! Minimal JSON parsing and serialization.
//!
//! The build container has no access to crates.io, so configuration
//! documents (the Fig 8 topic config in `stream::config`) are handled by
//! this small hand-rolled module instead of serde. It supports the full
//! JSON value grammar; the deliberate simplifications are:
//!
//! * numbers are stored as `f64` (integers are exact up to 2^53, far above
//!   any config value in the paper);
//! * objects are [`BTreeMap`]s, so serialization order is the sorted key
//!   order — deterministic across runs, in line with the workspace's
//!   determinism invariants (see `crates/slint`).

use crate::{Error, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys sorted, duplicate keys keep the last value.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer ≤ 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Build an object from `(key, value)` pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Pretty serialization: two-space indent, one field per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, depth, '[', ']', items.len(), |out, i, d| items[i].write(out, d));
            }
            Json::Object(fields) => {
                let entries: Vec<(&String, &Json)> = fields.iter().collect();
                write_seq(out, depth, '{', '}', entries.len(), |out, i, d| {
                    let (k, v) = entries[i];
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, d);
                });
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Spaces per nesting level of [`Json::to_pretty`].
const INDENT: usize = 2;

fn write_seq(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&" ".repeat(INDENT * (depth + 1)));
        item(out, i, depth + 1);
    }
    out.push('\n');
    out.push_str(&" ".repeat(INDENT * depth));
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::InvalidArgument(format!("json: {msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid unicode escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // encoding is already valid; just find its width).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() -> Result<()> {
        assert_eq!(Json::parse("null")?, Json::Null);
        assert_eq!(Json::parse("true")?, Json::Bool(true));
        assert_eq!(Json::parse(" false ")?, Json::Bool(false));
        assert_eq!(Json::parse("42")?, Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2")?, Json::Num(-150.0));
        assert_eq!(Json::parse(r#""hi""#)?, Json::Str("hi".into()));
        Ok(())
    }

    #[test]
    fn parses_nested_document() -> Result<()> {
        let doc = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#)?;
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let a = doc.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        Ok(())
    }

    #[test]
    fn string_escapes_roundtrip() -> Result<()> {
        let original = Json::Str("tab\t quote\" slash\\ newline\n unicode\u{263A}".into());
        let parsed = Json::parse(&original.to_pretty())?;
        assert_eq!(parsed, original);
        // And explicit \u escapes decode, including surrogate pairs.
        assert_eq!(Json::parse(r#""☺""#)?, Json::Str("\u{263A}".into()));
        assert_eq!(Json::parse(r#""😀""#)?, Json::Str("\u{1F600}".into()));
        Ok(())
    }

    #[test]
    fn u64_accessor_rejects_non_integers() -> Result<()> {
        assert_eq!(Json::parse("7")?.as_u64(), Some(7));
        assert_eq!(Json::parse("7.5")?.as_u64(), None);
        assert_eq!(Json::parse("-7")?.as_u64(), None);
        assert_eq!(Json::parse("true")?.as_u64(), None);
        Ok(())
    }

    #[test]
    fn malformed_documents_error() {
        for bad in ["{not json", "[1, 2", r#"{"a": }"#, "", "01x", "nulll", r#""\q""#] {
            assert!(
                matches!(Json::parse(bad), Err(Error::InvalidArgument(_))),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn pretty_output_is_sorted_and_reparses() -> Result<()> {
        let doc = Json::object([
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Bool(true)),
            ("list", Json::Array(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        let pretty = doc.to_pretty();
        // BTreeMap ordering: alphabetical keys, stable across runs.
        let alpha = pretty.find("\"alpha\"").expect("alpha");
        let zeta = pretty.find("\"zeta\"").expect("zeta");
        assert!(alpha < zeta);
        assert_eq!(Json::parse(&pretty)?, doc);
        Ok(())
    }
}
