//! The workspace's one JSON module: a value model, a recursive-descent
//! parser and a compact writer.
//!
//! The workspace is dependency-free, so everything that reads or writes
//! JSON goes through this module instead of serde: serve request bodies
//! and responses, report envelopes, `BENCH_*.json` snapshots and the
//! lint document. [`Json::parse`] reads one document; `impl Display for
//! Json` writes one compactly (no whitespace) with one string escaper:
//! `"`, `\`, newline, carriage return and tab get their two-character
//! escapes, every other control character `\u00xx`, and everything else
//! (non-ASCII included) passes through as UTF-8. Re-writing a parsed
//! document this module wrote gives back its bytes.
//!
//! Numbers are exact. A [`Number`] keeps its literal text, checked
//! against the RFC 8259 grammar, so writing a parsed number reproduces
//! its spelling. [`Json::as_u64`] returns the literal's exact value or
//! `None`, never a rounded or saturated one: a seed past 2^53 arrives
//! intact, and `18446744073709551616` is no `u64`. [`Json::as_f64`]
//! rounds to the nearest `f64`. Two numbers are equal when their
//! decimal values are (`1e2` equals `100`).
//!
//! One simplification of RFC 8259 remains: `\uXXXX` escapes decode the
//! Basic Multilingual Plane only; lone and paired surrogates are
//! rejected rather than combined (workload names and source labels are
//! ASCII, and the writer never emits a `\u` escape above `\u001f`).
//!
//! Objects preserve insertion order in a `Vec<(String, Json)>` — no hash
//! maps (varbench lint L001), and writing is deterministic by
//! construction.

use std::fmt::{self, Write};

/// Maximum nesting depth [`Json::parse`] accepts; deeper documents are
/// a [`JsonError`], not a stack overflow. The serve protocol needs 2.
pub const MAX_DEPTH: usize = 64;

/// A JSON value, parsed or built for writing.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, exact (see module docs).
    Num(Number),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order. Duplicate keys are rejected at
    /// parse time, so lookup by first match is unambiguous.
    Obj(Vec<(String, Json)>),
}

/// A JSON number: its literal text, valid by construction (parsed, or
/// written from an integer or a finite `f64` by `Json::from`).
#[derive(Debug, Clone)]
pub struct Number(String);

impl Number {
    /// The literal's exact value as `(negative, digits, exp)`, meaning
    /// `±digits × 10^exp` with no leading or trailing zero in `digits`;
    /// zero is `(false, "", 0)`, so equal values give equal triples.
    fn decimal(&self) -> (bool, String, i64) {
        let (mantissa, exp) = self.0.split_once(['e', 'E']).unwrap_or((&self.0, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
        // An exponent saturates at ±2^50: no literal has that many digits,
        // so a saturated exponent still reads as too large or fractional.
        let overflow = if exp.starts_with('-') {
            i64::MIN
        } else {
            i64::MAX
        };
        let exp = exp.parse().unwrap_or(overflow).clamp(-1 << 50, 1 << 50);
        let digits = format!("{}{frac}", int.trim_start_matches('-'));
        let significant = digits.trim_matches('0');
        if significant.is_empty() {
            return (false, String::new(), 0);
        }
        let trailing = digits.len() - digits.trim_end_matches('0').len();
        let exp = exp - frac.len() as i64 + trailing as i64;
        (int.starts_with('-'), significant.to_string(), exp)
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        self.decimal() == other.decimal()
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// An object of `fields`, in the order given.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload rounded to the nearest `f64`, if this is a
    /// number (literals beyond the `f64` range read as infinite).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: `None` unless this
    /// is a number whose exact value is an integer in `u64` range —
    /// `3.5`, `-1`, `1e300` and `18446744073709551616` all return `None`,
    /// while `3.0` and `1e2` are `3` and `100`.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(n) = self else {
            return None;
        };
        let (negative, digits, exp) = n.decimal();
        if digits.is_empty() {
            return Some(0);
        }
        if negative || exp < 0 || digits.len() as i64 + exp > 20 {
            return None;
        }
        (0..exp).try_fold(digits.parse::<u64>().ok()?, |v, _| v.checked_mul(10))
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for this value's type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Compact JSON: no whitespace, numbers as their literal text, strings
/// through the one escaper (see module docs).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(&n.0),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    fmt::Display::fmt(item, f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    write_string(f, key)?;
                    f.write_char(':')?;
                    fmt::Display::fmt(value, f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal, quotes included. Runs of bytes
/// that need no escape are written as one slice; every escaped byte is
/// ASCII, so the slice bounds are always char boundaries.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[plain..i])?;
        match b {
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b'"' | b'\\' => write!(f, "\\{}", char::from(b))?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        plain = i + 1;
    }
    f.write_str(&s[plain..])?;
    f.write_char('"')
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(Number(n.to_string()))
            }
        }
    )*};
}

from_unsigned!(u32, u64, u128, usize);

/// The shortest decimal text that reads back as the same `f64`; a NaN or
/// an infinity, which JSON cannot spell, becomes `null`.
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(Number(x.to_string()))
        } else {
            Json::Null
        }
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Collects values into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|e| JsonError {
                message: format!("object key: {}", e.message),
                offset: e.offset,
            })?;
            if fields.iter().any(|(k, _)| *k == key) {
                // A duplicate key means two contradictory settings in one
                // request; silently keeping either one would be a trap.
                return Err(self.err(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest run of plain bytes in one slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Always a char boundary: '"' and '\\' are ASCII and UTF-8
            // continuation bytes are >= 0x80.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is str"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                // Exactly four hex digits; `from_str_radix` would also
                // take a sign (`\u+041`).
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| {
                        h.iter()
                            .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
                    })
                    .ok_or_else(|| self.err("malformed \\u escape"))?;
                self.pos += 4;
                char::from_u32(hex).ok_or_else(|| self.err("surrogate \\u escape (unsupported)"))?
            }
            other => return Err(self.err(format!("unknown escape '\\{}'", other as char))),
        })
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? int frac? exp?` with no leading zero. The literal text is the
    /// number, so this grammar check is all the validation there is.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        let mut valid = int == 1 || (int > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !valid {
            return Err(JsonError {
                message: format!("malformed number \"{text}\""),
                offset: start,
            });
        }
        Ok(Json::Num(Number(text.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::from(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::from(-50.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn structures_and_accessors() {
        let doc = Json::parse(
            r#"{"workload": "synthetic-ridge", "seeds": 10, "gamma": 0.75,
                "sources": ["data_split", "weights_init"], "deep": {"a": null}}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("workload").unwrap().as_str(),
            Some("synthetic-ridge")
        );
        assert_eq!(doc.get("seeds").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("gamma").unwrap().as_f64(), Some(0.75));
        assert_eq!(doc.get("sources").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("deep").unwrap().get("a"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.as_object().unwrap().len(), 5);
        assert_eq!(doc.type_name(), "object");
        // Accessors are type-checked, not coercing.
        assert_eq!(doc.get("seeds").unwrap().as_str(), None);
        assert_eq!(doc.get("workload").unwrap().as_f64(), None);
    }

    #[test]
    fn as_u64_requires_exact_unsigned_integers() {
        assert_eq!(Json::parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(Json::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes() {
        let s = Json::parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\c\n\tA\u{e9}"));
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(Json::parse("\"a\nb\"").is_err(), "raw control char");
        assert!(Json::parse(r#""\u+041""#).is_err(), "signed \\u escape");
    }

    #[test]
    fn unicode_passthrough() {
        let s = Json::parse("\"ξ_O and γ\"").unwrap();
        assert_eq!(s.as_str(), Some("ξ_O and γ"));
    }

    #[test]
    fn round_trips_report_json() {
        // The parser must read what report.rs writes — the serve client
        // round-trips envelopes through exactly this pair.
        let mut r = crate::report::Report::new("figx", "Figure X");
        r.text("header ξ\n");
        let mut t = crate::report::Table::new(vec!["source".into(), "std".into()]);
        t.add_row(vec!["weights \"init\"".into(), "0.0012".into()]);
        r.table(t);
        let doc = Json::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("figx"));
        let blocks = doc.get("blocks").unwrap().as_array().unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].get("text").unwrap().as_str(), Some("header ξ\n"));
        assert_eq!(
            blocks[1].get("rows").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[0]
                .as_str(),
            Some("weights \"init\"")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "nul",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "--1",
            "\"unterminated",
            "{} extra",
            "{\"a\":1,}",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = Json::parse(r#"{"seeds": 3, "seeds": 4}"#).unwrap_err();
        assert!(err.message.contains("duplicate object key"), "{err}");
    }

    #[test]
    fn depth_limit_is_an_error_not_an_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("at byte 4"));
    }
    #[test]
    fn as_u64_reads_the_exact_literal() {
        let u = |s: &str| Json::parse(s).unwrap().as_u64();
        assert_eq!(u("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("18446744073709551616"), None, "2^64 is no u64");
        assert_eq!(
            u("4503599627370496.3"),
            None,
            "fraction below f64 resolution"
        );
        assert_eq!(u("1e2"), Some(100));
        assert_eq!(u("1.8446744073709551615e19"), Some(u64::MAX));
        assert_eq!(u("250e-2"), None);
        assert_eq!(u("2500e-3"), None);
        assert_eq!(u("3000e-3"), Some(3));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("0e99999999999999999999"), Some(0));
        assert_eq!(u("1e99999999999999999999"), None);
        assert_eq!(u("1e-99999999999999999999"), None);
        assert_eq!(Json::parse("1e400").unwrap().as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn numbers_keep_their_text_and_compare_by_value() {
        for text in ["-0.5e2", "1E+2", "0.000", "18446744073709551616", "3.0"] {
            assert_eq!(Json::parse(text).unwrap().to_string(), text);
        }
        assert_eq!(Json::parse("1e2").unwrap(), Json::from(100u64));
        assert_eq!(Json::parse("0.10").unwrap(), Json::from(0.1));
        assert_eq!(Json::parse("-0").unwrap(), Json::from(0u64));
        assert_ne!(
            Json::parse("9007199254740993").unwrap(),
            Json::parse("9007199254740992").unwrap()
        );
        assert_eq!(Json::from(0.75).to_string(), "0.75");
        assert_eq!(Json::from(1e-7).to_string(), "0.0000001");
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f64::NEG_INFINITY), Json::Null);
    }

    #[test]
    fn writes_compact_documents() {
        let doc = Json::object(vec![
            ("name", "a\"b\\c\n\r\t\u{1}\u{1f}ξ/".into()),
            ("n", 7u64.into()),
            ("ok", true.into()),
            ("none", Json::Null),
            ("xs", vec![Json::from(1.5), Json::from(usize::MAX)].into()),
            ("empty", Json::object(vec![])),
            ("labels", ["x", "y"].into_iter().collect()),
        ]);
        assert_eq!(
            doc.to_string(),
            concat!(
                r#"{"name":"a\"b\\c\n\r\t\u0001\u001fξ/","n":7,"ok":true,"none":null,"#,
                r#""xs":[1.5,18446744073709551615],"empty":{},"labels":["x","y"]}"#
            )
        );
    }

    /// A random value: every control character, quotes, backslashes and
    /// non-ASCII text in strings; integers up to `u64::MAX`; finite
    /// `f64`s; nesting up to `depth`.
    fn random_json(case: &mut varbench_rng::sweep::Case, depth: usize) -> Json {
        match case.usize_in(0, if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(case.usize_in(0, 2) == 1),
            2 => match case.usize_in(0, 3) {
                0 => Json::from(case.rng().next_u64()),
                1 => Json::from(u64::MAX - case.u64_in(0, 3)),
                _ => Json::from(case.u64_in(0, 100)),
            },
            3 => {
                let bits = f64::from_bits(case.rng().next_u64());
                if bits.is_finite() {
                    Json::from(bits)
                } else {
                    Json::from(case.f64_in(-1e9, 1e9))
                }
            }
            4 => Json::Str(random_text(case)),
            5 => (0..case.usize_in(0, 4))
                .map(|_| random_json(case, depth - 1))
                .collect(),
            // Fewer than ten fields: a one-digit suffix keeps keys distinct.
            _ => Json::Obj(
                (0..case.usize_in(0, 4))
                    .map(|i| {
                        let key = format!("{}{i}", random_text(case));
                        (key, random_json(case, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    fn random_text(case: &mut varbench_rng::sweep::Case) -> String {
        let alphabet: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/aZ é ξ€\u{1F600}\u{7f}".chars())
            .collect();
        (0..case.usize_in(0, 8))
            .map(|_| alphabet[case.usize_in(0, alphabet.len())])
            .collect()
    }

    #[test]
    fn written_values_parse_back_equal() {
        varbench_rng::sweep::sweep("json_write_parse_round_trip", 512, |case| {
            let v = random_json(case, 4);
            let text = v.to_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(back, v, "{text}");
            assert_eq!(back.to_string(), text);
        });
    }
}
