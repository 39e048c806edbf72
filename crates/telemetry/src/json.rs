//! The workspace's one JSON reader and writer (std-only). Every reader of
//! exported JSON goes through [`parse`], every exporter through [`quote`].
//! The reader is strict (trailing bytes, duplicate keys and nesting deeper
//! than [`MAX_DEPTH`] are errors), so damaged input is rejected whole, not
//! read as a shorter valid-looking value. Numbers keep their literal text
//! until an accessor converts them: `f32` bits and ns integers stay exact.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts; deeper is an error.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's literal text (valid JSON number grammar).
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Accessors returning a variant's payload, `None` for any other variant.
macro_rules! variant_accessors {
    ($($vis:vis fn $name:ident -> $ty:ty = $variant:ident;)*) => {$(
        $vis fn $name(&self) -> Option<&$ty> {
            match self { Value::$variant(v) => Some(v), _ => None }
        }
    )*};
}

impl Value {
    variant_accessors! {
        pub fn as_str -> str = String;
        pub fn as_array -> [Value] = Array;
        pub fn as_object -> [(String, Value)] = Object;
        fn literal -> str = Number;
    }

    /// The value under `key`, when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The number as an exact `u64`: `None` for a sign, fraction, exponent
    /// or overflow.
    pub fn as_u64(&self) -> Option<u64> {
        self.literal()?.parse().ok()
    }

    /// The number as an `f64`: `None` when it is not finite (`1e999`).
    pub fn as_f64(&self) -> Option<f64> {
        self.literal()?.parse().ok().filter(|v: &f64| v.is_finite())
    }
}

/// Why [`parse`] rejected its input: the byte offset where it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    pub offset: usize,
    pub reason: &'static str,
}

/// Parses exactly one JSON value, optionally surrounded by whitespace.
///
/// # Errors
///
/// Returns [`Error`] for anything else, including duplicate keys in one
/// object and nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.err("trailing bytes after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> Error {
        Error {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat_ws(&mut self, b: u8) -> bool {
        self.ws();
        self.eat(b)
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'[') => self.container(b']', depth + 1),
            Some(b'{') => self.container(b'}', depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// An array (`close` is `]`) or object (`}`) from its opening bracket.
    fn container(&mut self, close: u8, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.pos += 1;
        let (mut items, mut entries) = (Vec::new(), Vec::new());
        let mut done = self.eat_ws(close);
        while !done {
            if close == b']' {
                items.push(self.value(depth)?);
            } else {
                self.ws();
                let key = self.string()?;
                if !self.eat_ws(b':') {
                    return Err(self.err("expected ':' after an object key"));
                }
                entries.push((key, self.value(depth)?));
            }
            done = self.eat_ws(close);
            if !done && !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
        if close == b']' {
            return Ok(Value::Array(items));
        }
        let mut seen = HashSet::with_capacity(entries.len());
        if !entries.iter().all(|(k, _)| seen.insert(k.as_str())) {
            return Err(self.err("duplicate key in object"));
        }
        Ok(Value::Object(entries))
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let bad_int = int_digits == 0 || (leading_zero && int_digits > 1);
        let bad_frac = self.eat(b'.') && self.digits() == 0;
        let bad_exp = (self.eat(b'e') || self.eat(b'E')) && {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits() == 0
        };
        if bad_int || bad_frac || bad_exp {
            return Err(self.err("invalid number"));
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run of plain characters. It ends on an ASCII byte or
            // at the end of input, so both ends are char boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.err("unterminated string or control character"));
            }
            out.push(self.escape()?);
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let b = self.peek();
        self.pos += 1;
        Ok(match b {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                // a high surrogate must pair with an escaped low one
                let hi = self.hex4()?;
                let pair = (0xD800..0xDC00).contains(&hi) && self.eat(b'\\') && self.eat(b'u');
                let lo = if pair { self.hex4()? } else { 0 };
                char::decode_utf16([hi, lo])
                    .next()
                    .and_then(Result::ok)
                    .ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u16, Error> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u16::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// `s` as a quoted JSON string, with `"`, `\` and control characters
/// escaped.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A float as a JSON number in its `Display` form, or `null` when it is
/// not finite (JSON has no NaN or infinity).
pub fn number<T: Into<f64> + fmt::Display + Copy>(v: T) -> String {
    if v.into().is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(text: &str) -> Value {
        Value::Number(text.to_string())
    }

    #[test]
    fn parses_nested_values_and_keeps_key_order() {
        let v = parse(r#" {"b":[1,-2.5e3,true,false,null],"a":{"x":"y"}} "#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(
            b,
            [
                num("1"),
                num("-2.5e3"),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null
            ]
        );
        assert_eq!(v.get("a").unwrap().get("x").unwrap().as_str(), Some("y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("[]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(parse("{}").unwrap(), Value::Object(Vec::new()));
    }

    #[test]
    fn numbers_keep_their_literal_and_convert_exactly() {
        // every f32 bit pattern and any u64 nanosecond count survives
        assert_eq!(num("4294967295").as_u64(), Some(u64::from(u32::MAX)));
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(num("18446744073709551616").as_u64(), None);
        assert_eq!(
            num("1234567890123456789012345678901234567890").as_u64(),
            None
        );
        assert_eq!(num("-0").as_u64(), None);
        assert_eq!(num("1.0").as_u64(), None);
        assert_eq!(num("1e3").as_u64(), None);
        assert_eq!(num("2.5").as_f64(), Some(2.5));
        assert_eq!(num("1e999").as_f64(), None);
        assert_eq!(num("-1e999").as_f64(), None);
        assert_eq!(parse("1e999").unwrap(), num("1e999"));
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::String("1".into()).as_u64(), None);
    }

    #[test]
    fn strings_decode_every_escape() {
        let v = parse(r#""a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00µ""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\té😀µ"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\u+041""#,
            r#""\u12""#,
            r#""\x""#,
            "\"a\u{1}b\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{",
            "{\"a\":1",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "tru",
            "nul",
            "NaN",
            "{} {}",
            "{}x",
            "][",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn duplicate_keys_are_an_error_at_any_depth() {
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert_eq!(err.reason, "duplicate key in object");
        assert!(parse(r#"[{"k":{"x":1,"y":2,"x":3}}]"#).is_err());
        assert!(parse(r#"{"a":{"x":1},"b":{"x":1}}"#).is_ok());
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_limit() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&deep).unwrap_err().reason,
            "nesting deeper than MAX_DEPTH"
        );
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn writer_output_round_trips_through_the_reader() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f32::INFINITY), "null");
        assert_eq!(number(2.25f64), "2.25");
        assert_eq!(number(0.1f32), "0.1");
        for s in ["plain", "tab\there", "quote\"back\\slash", "\u{0}\u{1f}é"] {
            assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
        }
        let err = parse("[1,").unwrap_err();
        assert_eq!(err.offset, 3);
    }
}
