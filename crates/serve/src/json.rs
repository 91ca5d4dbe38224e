//! A small, dependency-free JSON codec: the wire layer's only serialization format.
//!
//! The build environment has no access to crates.io, so the service hand-rolls the
//! ~300 lines of RFC 8259 it actually needs instead of depending on `serde_json`:
//!
//! * a [`Json`] tree whose integers stay integers ([`Json::Int`] is `i64`, never
//!   silently widened to a float) and whose objects preserve insertion order — both
//!   properties the round-trip tests rely on for *bit-identical* serialize→parse
//!   cycles;
//! * an escape-correct serializer (`Json::to_string` via its [`std::fmt::Display`] impl),
//!   including `\uXXXX` escapes for control characters and surrogate-pair decoding on
//!   the way back in;
//! * a recursive-descent parser with explicit limits — input size
//!   ([`MAX_TEXT_BYTES`]) and nesting depth ([`MAX_DEPTH`]) — that returns a typed
//!   [`JsonError`] on malformed, oversized or too-deep input and never panics.
//!   Untrusted bytes from the network hit this parser first; everything behind it
//!   ([`crate::wire`]) can assume a well-formed tree.

use std::fmt;

/// Maximum nesting depth the parser accepts.  Deeper input is an error, not a stack
/// overflow: the recursive-descent parser charges one unit per `[`/`{` and refuses to
/// recurse past this bound.
pub const MAX_DEPTH: usize = 64;

/// Default maximum input size (bytes) for [`Json::parse`].  The HTTP layer enforces
/// its own body cap before the text ever reaches the parser; this bound is the
/// defense-in-depth backstop for direct library callers.
pub const MAX_TEXT_BYTES: usize = 4 << 20;

/// A parsed JSON value.
///
/// Integers and floats are distinct variants: `1` parses to [`Json::Int`] and
/// re-serializes as `1`, never `1.0`.  Objects are insertion-ordered vectors of
/// `(key, value)` pairs — serialization order equals construction/parse order, which
/// keeps encode→serialize→parse cycles bit-identical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no fraction or exponent in the source text).
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.  Duplicate keys are preserved by the parser;
    /// [`Json::get`] returns the first match.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A [`Json::Str`] from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is a [`Json::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer as a `u64`, if this is a non-negative [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The number as an `f64`, if this is a [`Json::Int`] or a [`Json::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string slice, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is a [`Json::Object`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The first member named `key`, if this is a [`Json::Object`] containing one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parse with the default limits ([`MAX_DEPTH`], [`MAX_TEXT_BYTES`]).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with_limits(text, MAX_DEPTH, MAX_TEXT_BYTES)
    }

    /// Parse with explicit limits.  Returns a [`JsonError`] — never panics — on
    /// malformed input, input longer than `max_bytes`, or nesting deeper than
    /// `max_depth`.
    pub fn parse_with_limits(
        text: &str,
        max_depth: usize,
        max_bytes: usize,
    ) -> Result<Json, JsonError> {
        if text.len() > max_bytes {
            return Err(JsonError {
                pos: 0,
                message: format!(
                    "input of {} bytes exceeds the {max_bytes}-byte limit",
                    text.len()
                ),
            });
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            max_depth,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            // Non-finite floats have no JSON spelling; the parser never produces
            // them, so this arm only guards hand-built values.
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: byte offset plus a human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > self.max_depth {
            return Err(self.err(format!(
                "nesting deeper than the {}-level limit",
                self.max_depth
            )));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes up to the next quote or backslash.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so slices between ASCII delimiters are valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    unit
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("escape is not a Unicode scalar value")),
                }
            }
            other => return Err(self.err(format!("invalid escape '\\{}'", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII digits/signs, so the str conversion cannot fail.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                _ => Err(self.err("number out of range")),
            }
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of i64 range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "9007199254740993",
            "\"hi\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("5").unwrap(), Json::Int(5));
        assert_eq!(Json::parse("5.0").unwrap(), Json::Float(5.0));
        assert_eq!(Json::parse("5").unwrap().to_string(), "5");
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z":1,"a":[{"k":null}],"m":"x"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::str("line\nquote\"back\\slash\ttab\u{1}bel\u{1F600}");
        let reparsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83dx\"").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn size_limit_is_enforced() {
        let text = format!("\"{}\"", "a".repeat(64));
        assert!(Json::parse_with_limits(&text, MAX_DEPTH, 16).is_err());
        assert!(Json::parse_with_limits(&text, MAX_DEPTH, 1024).is_ok());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "nul",
            "truex",
            "\"\\q\"",
            "[1 2]",
            "{\"a\":1,}",
            "--1",
            "\u{7}",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }
}
