//! A dependency-free JSON document model, writer, and parser.
//!
//! The harness persists run results and provenance as JSON so external
//! tooling can consume them, but the workspace deliberately has no
//! external dependencies (it must build fully offline). This module
//! implements the small JSON subset the results schema needs:
//!
//! * objects preserve insertion order (serialized files are diffable),
//! * unsigned 64-bit integers round-trip exactly (cycle counts exceed
//!   `f64`'s 53-bit integer range in principle),
//! * floats round-trip exactly through Rust's shortest-representation
//!   formatting (`{:?}`),
//! * the parser accepts exactly what the writer emits, plus arbitrary
//!   whitespace, and refuses hostile input with an error rather than a
//!   panic or a stack overflow: nesting is bounded by [`MAX_DEPTH`].
//!
//! # Examples
//!
//! ```
//! use miopt_harness::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("FwSoft")),
//!     ("cycles", Json::U64(123_456)),
//!     ("ratio", Json::F64(0.5)),
//! ]);
//! let text = doc.to_pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(123_456));
//! ```

use std::fmt::Write as _;

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a bound a file of `[`s overflows
/// the stack. The deepest document the harness writes, a `serve` report
/// (report → jobs → job → tenants → tenant), nests 5 deep; reports,
/// journal records and telemetry traces stay within that.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, serialized without a decimal point.
    U64(u64),
    /// A floating-point number (also covers negative integers).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is an exact non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            // Accept floats that happen to be exact small integers, so a
            // hand-edited file with `"cycles": 100.0` still loads.
            Json::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Writes a float using Rust's shortest round-trip representation,
/// always with a decimal point or exponent so it re-parses as `F64`.
fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent NaN/inf (got {x})");
    let s = format!("{x:?}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
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
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| {
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                                })
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not produced by the
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code).ok_or_else(|| {
                                format!("surrogate \\u escape at byte {}", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character; `pos` only ever stops
                    // on ASCII structure, so it is a char boundary.
                    let c = self.text[self.pos..].chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        // The writer cannot represent an overflow to infinity (`1e999`).
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Json::F64)
            .ok_or_else(|| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_engine::prop;
    use std::path::Path;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj([
            ("null", Json::Null),
            ("yes", Json::Bool(true)),
            ("big", Json::U64(u64::MAX)),
            ("clock", Json::F64(1.6e9)),
            ("neg", Json::F64(-2.5)),
            ("text", Json::str("a \"quoted\"\nline\tand \\slash")),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj::<String>([])),
            (
                "arr",
                Json::Arr(vec![Json::U64(1), Json::str("two"), Json::Bool(false)]),
            ),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn u64_integers_survive_exactly() {
        for n in [0, 1, 1 << 53, u64::MAX - 1, u64::MAX] {
            let text = Json::U64(n).to_compact();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n), "{n}");
        }
    }

    #[test]
    fn floats_survive_exactly() {
        for x in [0.0, 1.6e9, 0.1, -1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let text = Json::F64(x).to_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn whole_floats_reparse_as_floats() {
        let text = Json::F64(1600000000.0).to_compact();
        assert!(text.contains('.') || text.contains('e'), "{text}");
        assert!(matches!(Json::parse(&text).unwrap(), Json::F64(_)));
    }

    #[test]
    fn object_access_helpers() {
        let doc = Json::parse(r#"{"a": 1, "b": {"c": "x"}, "d": [true]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(
            doc.get("d").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("d").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[1,]x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn control_characters_escape_and_return() {
        let doc = Json::str("bell\u{7}end");
        let text = doc.to_compact();
        assert!(text.contains("\\u0007"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn nesting_is_bounded_by_an_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        // Deep enough to overflow any stack without the bound.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        let err = Json::parse(&r#"{"a":"#.repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u004a\u004A""#), Ok(Json::str("JJ")));
        for bad in [
            r#""\u+04a""#,
            r#""\u-04a""#,
            r#""\u04a""#,
            r#""\u04a"#,
            r#""\u 04a""#,
            r#""\u04g0""#,
            "\"\\u0\u{e9}0\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_past_f64_range_are_refused() {
        // The writer cannot emit an infinity, so the parser does not make one.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("[-1e999]").is_err());
        assert_eq!(Json::parse("1e308"), Ok(Json::F64(1e308)));
    }

    /// Documents the harness writes: a figure report, the telemetry
    /// goldens (each JSONL line and the Chrome trace), and one whose
    /// strings need `\u00XX` escapes.
    fn written_documents() -> Vec<String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |path: &str| std::fs::read_to_string(root.join(path)).expect(path);
        let mut docs = vec![
            read("../../results/runs/figures-quick.json"),
            read("tests/golden/telemetry_fwsoft_cacher.trace.json"),
        ];
        let jsonl = read("tests/golden/telemetry_fwsoft_cacher.jsonl");
        docs.extend(jsonl.lines().map(str::to_string));
        // Every control character: most of this document is `\u00XX`.
        let controls: String = (0..0x20u8).map(char::from).collect();
        let escapes = Json::obj([(
            controls.clone(),
            Json::Arr(vec![
                Json::str(controls),
                Json::str("caf\u{e9} \u{2192} \u{1f600}, \"quoted\" back\\slash"),
                Json::F64(-0.5),
            ]),
        )]);
        docs.extend([escapes.to_compact(), escapes.to_pretty()]);
        docs
    }

    /// A random stretch of a `len`-byte document.
    fn span(c: &mut prop::Case, len: usize) -> std::ops::Range<usize> {
        let start = c.below(len as u64 + 1) as usize;
        start..start + c.below((len - start) as u64 + 1) as usize
    }

    #[test]
    fn corrupted_documents_are_refused_or_round_trip() {
        let docs = written_documents();
        for doc in &docs {
            assert!(Json::parse(doc).is_ok(), "written document parses: {doc}");
        }
        prop::check("corrupted_documents_are_refused_or_round_trip", 256, |c| {
            let mut bytes = docs[c.below(docs.len() as u64) as usize]
                .clone()
                .into_bytes();
            for _ in 0..c.steps(1..6) {
                let at = c.below(bytes.len() as u64 + 1) as usize;
                match c.below(4) {
                    // A truncation.
                    0 => bytes.truncate(at),
                    // A bit flip.
                    1 if at < bytes.len() => bytes[at] ^= 1 << c.below(8),
                    // A splice of a stretch of any written document.
                    2 => {
                        let from = docs[c.below(docs.len() as u64) as usize].as_bytes();
                        let stretch = span(c, from.len());
                        bytes.splice(at..at, from[stretch].iter().copied());
                    }
                    // A duplicated span.
                    _ => {
                        let stretch = span(c, bytes.len());
                        let copy = bytes[stretch.clone()].to_vec();
                        bytes.splice(stretch.start..stretch.start, copy);
                    }
                }
            }
            // Every reader takes text: bytes that are not UTF-8 are refused
            // before they reach the parser.
            let Ok(text) = String::from_utf8(bytes) else {
                return;
            };
            let Ok(doc) = Json::parse(&text) else {
                return;
            };
            for again in [doc.to_compact(), doc.to_pretty()] {
                assert_eq!(Json::parse(&again).as_ref(), Ok(&doc), "{again}");
            }
        });
    }
}
