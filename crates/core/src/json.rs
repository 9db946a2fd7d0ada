//! Minimal JSON document model for experiment artifacts.
//!
//! Experiments export their datasets as JSON so external tooling can
//! post-process them. The build environment vendors its dependencies, so
//! rather than a full serde_json stand-in this module provides the one
//! thing the repo needs: a value tree plus a deterministic pretty
//! printer. Object keys keep insertion order, which makes artifacts
//! diff-stable across runs.

use std::fmt;
use std::io;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (experiments have few keys; linear
    /// storage keeps output order deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Starts an empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object. On non-objects the call is a no-op in
    /// release builds (and trips a debug assertion in tests), so a
    /// construction bug degrades an artifact instead of aborting a
    /// campaign that took hours to run.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        } else {
            debug_assert!(false, "field({key:?}) on non-object {self:?}");
        }
        self
    }

    /// Looks a key up in an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with two-space indentation, `"key": value` spacing.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail.
        let _ = self.render_pretty(&mut out, 0);
        out
    }

    /// Renders on one line with no whitespace — the NDJSON form. The
    /// same value model and number/string formatting as
    /// [`Json::to_string_pretty`], so a document round-trips identically
    /// through either rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        let _ = self.render_compact(&mut out);
        out
    }

    /// Streams the pretty rendering straight into an [`io::Write`]
    /// without materializing the document text. Year-scale artifacts
    /// (timelines, metrics dumps, campaign stores) go through this path
    /// so output size never shows up as a resident `String`.
    pub fn write_to<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        let mut sink = IoFmt {
            inner: out,
            err: None,
        };
        let res = self.render_pretty(&mut sink, 0);
        sink.finish(res)
    }

    /// Streams the compact (single-line) rendering into an
    /// [`io::Write`]; the building block for NDJSON streams.
    pub fn write_compact_to<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        let mut sink = IoFmt {
            inner: out,
            err: None,
        };
        let res = self.render_compact(&mut sink);
        sink.finish(res)
    }

    /// Parses JSON text back into the document model — the inverse of
    /// [`Json::to_string_pretty`], used to round-trip artifacts in tests
    /// and to compare metrics dumps. Accepts any standard JSON document;
    /// numbers become [`Json::Num`], so integer precision is bounded by
    /// `f64` (the writer never emits more). Surrogate-pair `\u` escapes
    /// are rejected (the writer only escapes control characters).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Structural equality with numbers compared bit-for-bit via
    /// [`f64::to_bits`], so `-0.0` differs from `0.0` and NaN equals NaN.
    /// The derived `PartialEq` follows IEEE comparison instead; the
    /// determinism tests want this stricter check.
    pub fn bits_eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.bits_eq(vb))
            }
            _ => false,
        }
    }

    fn render_pretty<W: fmt::Write>(&self, out: &mut W, indent: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    out.write_char('\n')?;
                    push_indent(out, indent + 1)?;
                    item.render_pretty(out, indent + 1)?;
                }
                out.write_char('\n')?;
                push_indent(out, indent)?;
                out.write_char(']')
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    out.write_char('\n')?;
                    push_indent(out, indent + 1)?;
                    write_str(out, key)?;
                    out.write_str(": ")?;
                    value.render_pretty(out, indent + 1)?;
                }
                out.write_char('\n')?;
                push_indent(out, indent)?;
                out.write_char('}')
            }
        }
    }

    fn render_compact<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.render_compact(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_str(out, key)?;
                    out.write_char(':')?;
                    value.render_compact(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Bridges an [`io::Write`] into the `fmt::Write`-generic renderers,
/// remembering the first underlying I/O error (the `fmt::Error` it
/// surfaces as carries no detail).
struct IoFmt<'a, W: io::Write> {
    inner: &'a mut W,
    err: Option<io::Error>,
}

impl<W: io::Write> IoFmt<'_, W> {
    fn finish(self, res: fmt::Result) -> io::Result<()> {
        match (res, self.err) {
            (_, Some(e)) => Err(e),
            (Ok(()), None) => Ok(()),
            // A fmt::Error with no captured io::Error can only come from
            // a formatting primitive itself, which never fails here.
            (Err(_), None) => Err(io::Error::other("formatting failed")),
        }
    }
}

impl<W: io::Write> fmt::Write for IoFmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            if self.err.is_none() {
                self.err = Some(e);
            }
            fmt::Error
        })
    }
}

fn push_indent<W: fmt::Write>(out: &mut W, levels: usize) -> fmt::Result {
    for _ in 0..levels {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_num<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.write_str("null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    }
}

fn write_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Recursive-descent parser over the raw bytes. String content is
/// scanned bytewise — UTF-8 continuation bytes are all `>= 0x80`, so they
/// can never be mistaken for the `"` and `\` delimiters.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid UTF-8 in string"))?;
            out.push_str(chunk);
            match self.peek() {
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let c = u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // The scan above stops only at '"', '\\', or end of input.
                _ => return Err(self.err("unterminated string")),
            }
        }
    }
}

/// Conversion into the document model; every experiment dataset
/// implements this to drive `export::write_json`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Self {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<A: Into<Json>, B: Into<Json>> From<(A, B)> for Json {
    fn from((a, b): (A, B)) -> Self {
        Json::Arr(vec![a.into(), b.into()])
    }
}

impl<A: Into<Json>, B: Into<Json>, C: Into<Json>> From<(A, B, C)> for Json {
    fn from((a, b, c): (A, B, C)) -> Self {
        Json::Arr(vec![a.into(), b.into(), c.into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_with_spaced_keys() {
        let doc = Json::obj()
            .field("x", 7u32)
            .field("name", "sp2")
            .field("ys", vec![1.5f64, 2.0]);
        let s = doc.to_string_pretty();
        assert!(s.contains("\"x\": 7"), "{s}");
        assert!(s.contains("\"name\": \"sp2\""), "{s}");
        assert!(s.contains("1.5"), "{s}");
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut s = String::new();
        write_num(&mut s, 42.0).unwrap();
        assert_eq!(s, "42");
        s.clear();
        write_num(&mut s, 0.25).unwrap();
        assert_eq!(s, "0.25");
        s.clear();
        write_num(&mut s, f64::NAN).unwrap();
        assert_eq!(s, "null");
    }

    #[test]
    fn strings_escape_specials() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::obj().to_string_pretty(), "{}");
        assert_eq!(Json::Null.to_string_pretty(), "null");
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = Json::obj()
            .field("series", vec![1.0f64, 2.0])
            .field("label", "gflops");
        assert_eq!(doc.get("label").and_then(Json::as_str), Some("gflops"));
        let series = doc.get("series").and_then(Json::as_arr).unwrap();
        assert_eq!(series[1].as_f64(), Some(2.0));
        assert!(doc.get("missing").is_none());
        assert!(doc.get("label").unwrap().as_f64().is_none());
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj()
            .field("label", "quote \" slash \\ line\nend")
            .field("series", vec![1.5f64, 2.0, 0.25])
            .field("flags", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .field("nested", Json::obj().field("k", 7u32));
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(parsed, doc);
        assert!(parsed.bits_eq(&doc));
    }

    #[test]
    fn non_finite_renders_null_and_round_trips() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            write_num(&mut s, v).unwrap();
            assert_eq!(s, "null", "non-finite {v} must render as null");
        }
        let doc = Json::obj().field("bad", f64::NAN);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(parsed.get("bad"), Some(&Json::Null));
    }

    #[test]
    fn negative_zero_renders_unsigned_and_round_trips() {
        let mut s = String::new();
        write_num(&mut s, -0.0).unwrap();
        assert_eq!(s, "0", "-0.0 must render without a sign");
        let doc = Json::obj().field("z", -0.0f64);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let z = parsed.get("z").and_then(Json::as_f64).unwrap();
        assert_eq!(z.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "\"open", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = Json::parse("{\"a\": 1} trailing").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let parsed = Json::parse(r#"{"s": "aA\n", "n": -2.5e2}"#).unwrap();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("aA\n"));
        assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(-250.0));
    }

    #[test]
    fn bits_eq_is_stricter_than_partial_eq() {
        let pos = Json::Num(0.0);
        let neg = Json::Num(-0.0);
        assert_eq!(pos, neg, "IEEE equality treats signed zeros alike");
        assert!(!pos.bits_eq(&neg), "bits_eq must distinguish them");
        let nan = Json::Num(f64::NAN);
        assert_ne!(nan, nan.clone(), "IEEE NaN is never ==");
        assert!(
            nan.bits_eq(&nan.clone()),
            "bits_eq treats same NaN as equal"
        );
    }

    #[test]
    fn streaming_matches_in_memory_rendering() {
        let doc = Json::obj()
            .field("label", "quote \" line\nend")
            .field("series", vec![1.5f64, 2.0, 0.25])
            .field("nested", Json::obj().field("k", 7u32))
            .field("empty", Json::Arr(vec![]));
        let mut pretty = Vec::new();
        doc.write_to(&mut pretty).unwrap();
        assert_eq!(pretty, doc.to_string_pretty().into_bytes());
        let mut compact = Vec::new();
        doc.write_compact_to(&mut compact).unwrap();
        assert_eq!(compact, doc.to_string_compact().into_bytes());
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let doc = Json::obj()
            .field("a", vec![1u32, 2, 3])
            .field("b", Json::obj().field("x", 0.5f64))
            .field("s", "multi\nline");
        let line = doc.to_string_compact();
        assert!(!line.contains('\n'), "{line}");
        assert!(!line.contains(": "), "compact has no key spacing: {line}");
        let parsed = Json::parse(&line).unwrap();
        assert!(parsed.bits_eq(&doc));
    }

    #[test]
    fn write_to_propagates_io_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let doc = Json::obj().field("k", 1u32);
        let err = doc.write_to(&mut Failing).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn options_and_tuples_convert() {
        let doc = Json::obj()
            .field("peak", Some(3.4f64))
            .field("missing", Option::<f64>::None)
            .field("pair", (16u32, 1.25f64));
        let s = doc.to_string_pretty();
        assert!(s.contains("\"peak\": 3.4"));
        assert!(s.contains("\"missing\": null"));
        assert!(s.contains("\"pair\": ["));
    }
}
