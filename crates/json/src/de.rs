//! Strict JSON reading: one pull [`Reader`] lexes the text, and both the
//! [`Json`] tree builder ([`parse`]) and the typed decoders
//! ([`crate::FromJson::read_json`]) consume its tokens, so string,
//! escape, number and depth lexing exist once.
//!
//! Accepts exactly the JSON grammar (RFC 8259) with three deliberate
//! tightenings that matter for a scientific store format:
//!
//! * duplicate object keys are an error (silently keeping one side hides
//!   corrupted or hand-edited model files);
//! * `NaN` / `Infinity` tokens are rejected (they are not JSON, and a
//!   model containing them is meaningless);
//! * nesting deeper than [`crate::MAX_DEPTH`] is an error, so corrupt
//!   input cannot overflow the stack.

use std::borrow::Cow;

use crate::{Json, JsonError, MAX_DEPTH};

/// Parses a complete JSON document into a tree.
///
/// # Errors
///
/// Returns [`JsonError`] (with byte offset) on any syntax violation,
/// duplicate object key, or trailing non-whitespace content.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    crate::from_str(text)
}

/// The length of the run of plain string bytes that starts `bytes`: the
/// offset of its first quote, backslash or control character.
///
/// Eight bytes at a time: in each term below, the lowest set high bit
/// marks the first byte that is the quote, is the backslash, or is below
/// 0x20 (borrows only ever flag bytes above a true match), so the
/// lowest set bit of their union is the first stop byte.
#[inline]
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let quote = w ^ (ONES * u64::from(b'"'));
        let backslash = w ^ (ONES * u64::from(b'\\'));
        let stops = (quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash
            | w.wrapping_sub(ONES * 0x20) & !w)
            & HIGHS;
        if stops != 0 {
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - i)
}

/// The kind of the next JSON value, as its first byte announces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Token {
    /// One-word description, the same as [`Json::kind`] of the value.
    pub fn name(self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool => "bool",
            Token::Number => "number",
            Token::String => "string",
            Token::Array => "array",
            Token::Object => "object",
        }
    }
}

/// A strict pull reader over JSON text.
///
/// Each read consumes one whole value: [`Reader::null`],
/// [`Reader::bool`], [`Reader::number`] and [`Reader::string`] read a
/// scalar, [`Reader::array`] and [`Reader::object`] walk a container
/// through a callback per element or field, [`Reader::skip_value`]
/// validates a value without keeping it, and [`Reader::value`] builds
/// its [`Json`] tree. A read of the wrong kind fails with
/// `expected <kind>, found <kind>`.
///
/// The reader checks duplicate keys only where it keeps keys: in
/// [`Reader::value`] and [`Reader::skip_value`]. A caller that walks an
/// object with [`Reader::object`] checks its own keys.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current byte offset.
    #[cold]
    fn err(&self, msg: &str) -> JsonError {
        JsonError::msg(format!("{msg} at byte {}", self.pos))
    }

    /// The error for a key seen twice in one object, for a caller of
    /// [`Reader::object`] that checks its own keys.
    pub fn duplicate_key(&self, key: &str) -> JsonError {
        self.err(&format!("duplicate object key `{key}`"))
    }

    #[inline(always)]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    /// The kind of the next value, skipping whitespace before it.
    ///
    /// # Errors
    ///
    /// At the end of input, on a byte no value starts with, and when the
    /// value would sit deeper than [`MAX_DEPTH`].
    #[inline(always)]
    pub fn peek(&mut self) -> Result<Token, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.byte() {
            Some(b'n') => Ok(Token::Null),
            Some(b't' | b'f') => Ok(Token::Bool),
            Some(b'"') => Ok(Token::String),
            Some(b'[') => Ok(Token::Array),
            Some(b'{') => Ok(Token::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Peeks and checks that the next value is a `want`.
    #[inline(always)]
    fn start(&mut self, want: Token) -> Result<(), JsonError> {
        let found = self.peek()?;
        if found == want {
            Ok(())
        } else {
            Err(JsonError::msg(format!(
                "expected {}, found {}",
                want.name(),
                found.name()
            )))
        }
    }

    #[inline]
    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// When the next value is not `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.start(Token::Null)?;
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next value is not a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.start(Token::Bool)?;
        let value = self.byte() == Some(b't');
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Reads a number.
    ///
    /// # Errors
    ///
    /// When the next value is not a number, is malformed, or overflows
    /// `f64` (`1e999`).
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonError> {
        self.start(Token::Number)?;
        self.lex_number()
    }

    /// Reads a number and the text it was written as.
    ///
    /// # Errors
    ///
    /// As [`number`](Self::number).
    #[inline]
    pub fn number_text(&mut self) -> Result<(f64, &'a str), JsonError> {
        self.start(Token::Number)?;
        let start = self.pos;
        let n = self.lex_number()?;
        Ok((n, &self.text[start..self.pos]))
    }

    /// Lexes the number that starts at the current byte.
    #[inline]
    fn lex_number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` or non-zero digit followed by digits.
        let digits = self.pos;
        let mut magnitude = 0u64;
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.byte() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number (missing digits)")),
        }
        let int_end = self.pos;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (missing fraction digits)"));
            }
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (missing exponent digits)"));
            }
            self.digits();
        }
        // A plain integer of at most 15 digits is below 2^53, so its
        // digits' value converts to exactly the double `str::parse` gives.
        if self.pos == int_end && int_end - digits <= 15 {
            let magnitude = magnitude as f64;
            return Ok(if negative { -magnitude } else { magnitude });
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("number out of representable range"))?;
        if !n.is_finite() {
            // e.g. `1e999` overflows to infinity — not a usable model value.
            return Err(self.err("number overflows f64"));
        }
        Ok(n)
    }

    #[inline]
    fn digits(&mut self) {
        self.pos += self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    }

    /// Reads a string. It borrows from the text unless it holds escapes.
    ///
    /// # Errors
    ///
    /// When the next value is not a string, or the string is
    /// unterminated, holds a raw control character or a bad escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.start(Token::String)?;
        self.lex_string()
    }

    /// Lexes the string whose opening quote is the current byte.
    #[inline]
    fn lex_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Take a run of plain bytes in one go. Every byte that ends a
            // run is ASCII, so the cuts land on char boundaries.
            self.pos += plain_run(&text.as_bytes()[start..]);
            let run = &text[start..self.pos];
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.byte().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .byte()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + nibble;
            self.pos += 1;
        }
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pair handling.
        if (0xD800..0xDC00).contains(&first) {
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("invalid low surrogate"));
                }
                let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Reads an array, calling `element` once per element with the
    /// reader positioned at it; `element` must consume exactly that
    /// value.
    ///
    /// # Errors
    ///
    /// When the next value is not an array, is malformed, or `element`
    /// fails.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.start(Token::Array)?;
        self.pos += 1;
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            element(self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads an object, calling `field` once per member with its key
    /// and the reader positioned at its value; `field` must consume
    /// exactly that value. Keys borrow from the text unless they hold
    /// escapes. Duplicate keys are the caller's to reject.
    ///
    /// # Errors
    ///
    /// When the next value is not an object, is malformed, or `field`
    /// fails.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.start(Token::Object)?;
        self.pos += 1;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            if self.byte() != Some(b'"') {
                return Err(self.err("expected `\"`"));
            }
            let key = self.lex_string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Consumes the next value, checking it exactly as [`Reader::value`]
    /// would (grammar, depth, finite numbers, duplicate keys) without
    /// building it.
    ///
    /// # Errors
    ///
    /// When the value is malformed.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Token::Null => self.literal("null"),
            Token::Bool => self.bool().map(drop),
            Token::Number => self.lex_number().map(drop),
            Token::String => self.lex_string().map(drop),
            Token::Array => self.array(Self::skip_value),
            Token::Object => {
                let mut keys: Vec<Cow<'a, str>> = Vec::new();
                self.object(|r, key| r.skip_unknown(key, &mut keys))
            }
        }
    }

    /// Skips the value of a member whose key the caller does not read,
    /// rejecting the key if `seen` (the keys skipped so far in the same
    /// object) already holds it.
    ///
    /// # Errors
    ///
    /// On a duplicate key or a malformed value.
    pub(crate) fn skip_unknown(
        &mut self,
        key: Cow<'a, str>,
        seen: &mut Vec<Cow<'a, str>>,
    ) -> Result<(), JsonError> {
        if seen.contains(&key) {
            return Err(self.duplicate_key(&key));
        }
        seen.push(key);
        self.skip_value()
    }

    /// Reads the next value as a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// When the value is malformed.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek()? {
            Token::Null => {
                self.literal("null")?;
                Json::Null
            }
            Token::Bool => Json::Bool(self.bool()?),
            Token::Number => Json::Number(self.lex_number()?),
            Token::String => Json::String(self.lex_string()?.into_owned()),
            Token::Array => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Token::Object => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.object(|r, key| {
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(r.duplicate_key(&key));
                    }
                    fields.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Json::Object(fields)
            }
        })
    }

    /// Checks that only whitespace follows the values read so far.
    ///
    /// # Errors
    ///
    /// On trailing non-whitespace content.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e-1").unwrap(), Json::Number(-1.25));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": ""}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::String(String::new())));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0], Json::Number(1.0));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate object key"), "{err}");
    }

    #[test]
    fn rejects_nan_and_infinity_tokens() {
        for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf"] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
        assert!(parse("1e999").is_err(), "overflow to inf must not parse");
    }

    #[test]
    fn rejects_truncated_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "tru",
            "nul",
            "-",
            "1.",
            "1e",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_json5isms() {
        for bad in [
            "1 2",
            "{} []",
            "[1,]",
            "{\"a\":1,}",
            "'single'",
            "01",
            "+1",
            ".5",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn rejects_overdeep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("MAX_DEPTH"), "{err}");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap(),
            Json::String("🦀".into())
        );
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo\"").unwrap(), Json::String("héllo".into()));
    }

    #[test]
    fn integer_fast_path_matches_the_float_parser() {
        for text in [
            "0",
            "-0",
            "7",
            "-42",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740993",
            "18446744073709551615",
            "123456789012345678901234567890",
        ] {
            let fast = Reader::new(text).number().unwrap();
            let slow: f64 = text.parse().unwrap();
            assert_eq!(fast.to_bits(), slow.to_bits(), "{text}");
        }
    }

    #[test]
    fn plain_runs_stop_at_the_first_quote_backslash_or_control_byte() {
        for len in 0..20 {
            for stop in [b'"', b'\\', 0x00, 0x1F] {
                for filler in [b'a', 0x20, 0x7F, 0xC3, 0xFF, b'!', b'#', b'['] {
                    let mut bytes = vec![filler; len];
                    bytes.push(stop);
                    bytes.extend_from_slice(b"\"\\xyz");
                    assert_eq!(plain_run(&bytes), len, "{len} {stop:#x} {filler:#x}");
                }
            }
            assert_eq!(plain_run(&vec![b'a'; len]), len);
        }
    }

    #[test]
    fn keys_and_strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"{"plain":"v","t\u0061b":"a\tb"}"#);
        let mut seen = Vec::new();
        r.object(|r, key| {
            let value = r.string()?;
            seen.push((key, value));
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert!(matches!(seen[0].0, Cow::Borrowed("plain")));
        assert!(matches!(seen[0].1, Cow::Borrowed("v")));
        assert!(matches!(&seen[1].0, Cow::Owned(k) if k == "tab"));
        assert!(matches!(&seen[1].1, Cow::Owned(v) if v == "a\tb"));
    }

    #[test]
    fn skipping_is_as_strict_as_building() {
        let deep = "[".repeat(MAX_DEPTH + 1) + "1" + &"]".repeat(MAX_DEPTH + 1);
        let shallow = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for text in [
            r#"{"a":1,"a":2}"#,
            r#"[{"a":{"b":1,"b":1}}]"#,
            r#"{"a":1,"\u0061":2}"#,
            "[1e999]",
            "[1,]",
            "\"\\x\"",
            "[tru]",
            &deep,
            &shallow,
            r#"{"a":[1,{"b":"c"}],"d":null}"#,
        ] {
            let mut r = Reader::new(text);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped.is_ok(), parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn reads_of_the_wrong_kind_name_both_kinds() {
        let err = Reader::new("[1]").bool().unwrap_err();
        assert_eq!(err.to_string(), "json error: expected bool, found array");
        let err = Reader::new("{}").array(|_| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "json error: expected array, found object");
    }
}
