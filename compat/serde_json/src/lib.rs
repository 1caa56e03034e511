//! Offline JSON text layer for the serde stand-in: encodes the
//! [`serde::Value`] tree as JSON text and parses it back.
//!
//! Numeric fidelity: integers are printed in full (up to `i128` range)
//! and floats use Rust's shortest-round-trip `Display`, so
//! `from_str(&to_string(x))` reproduces `x` bit-for-bit for every
//! finite number. Non-finite floats are a serialization error.

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};
use std::fmt;

/// JSON serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Deserializes a `T` from JSON text.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

fn write_value(value: &Value, out: &mut String) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            // Shortest round-trip form; may lack a fractional part
            // (e.g. `2`), in which case it parses back as an integer
            // and the typed deserializer converts it.
            out.push_str(&f.to_string());
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser accepts. The parser recurses
/// once per level, so an unbounded depth lets `[[[[…` input overflow the
/// stack; every document this workspace writes is far shallower.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "unterminated array at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "unterminated object at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        // A literal past f64's range (`1e999`) parses to infinity, which
        // the writer refuses to emit; reject it here too, so everything
        // read back can be written again.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(Error::new(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: T) {
        let json = to_string(&v).expect("serialize");
        let back: T = from_str(&json).expect("deserialize");
        assert_eq!(back, v, "json was: {json}");
    }

    #[test]
    fn scalars_round_trip() {
        round(0u64);
        round(u64::MAX);
        round(i64::MIN);
        round(-0.000_001_5f64);
        round(1e300f64);
        round(0.1f32);
        round(true);
        round(String::from("line\nquote\" back\\slash \u{1F980} \u{1}"));
    }

    #[test]
    fn integral_floats_survive() {
        // 2.0 prints as "2"; the typed deserializer converts back.
        round(2.0f64);
        round(-7.0f32);
    }

    #[test]
    fn containers_round_trip() {
        round(vec![vec![1.5f64], vec![], vec![3.0, 4.25]]);
        round((Some(3u8), None::<u8>, -9i64));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("12 t").is_err());
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<u64>("\"unterminated").is_err());
        assert!(to_string(&f64::NAN).is_err());
        assert!(from_str::<f64>("1e999").is_err());
        assert!(from_str::<f64>("-1e999").is_err());
        assert!(from_str::<f64>("1e-999").is_ok());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Vec<(u8, bool)> = from_str(" [ [1 , true] , [2,false] ] ").expect("parse");
        assert_eq!(v, vec![(1, true), (2, false)]);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(100_000);
        let err = from_str::<Value>(&arrays).unwrap_err();
        assert_eq!(err.to_string(), "nesting too deep");
        let objects = "{\"a\":".repeat(100_000);
        let err = from_str::<Value>(&objects).unwrap_err();
        assert_eq!(err.to_string(), "nesting too deep");
    }

    #[test]
    fn nesting_within_the_limit_round_trips() {
        let mut value = Value::Int(7);
        for _ in 0..100 {
            value = Value::Seq(vec![value]);
        }
        let json = to_string(&value).expect("serialize");
        assert_eq!(json, format!("{}7{}", "[".repeat(100), "]".repeat(100)));
        let back: Value = from_str(&json).expect("100 levels parse");
        assert_eq!(back, value);

        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&at_limit).is_ok());
        let past_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&past_limit).is_err());
    }

    #[test]
    fn value_model_matches_serde() {
        assert_eq!(
            to_string(&Some(5u8)).unwrap(),
            "5",
            "Option serializes transparently"
        );
        let n: Option<u8> = from_str("null").unwrap();
        assert_eq!(n, None);
    }
}
