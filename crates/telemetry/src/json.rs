//! The workspace's one JSON reader.
//!
//! The workspace's `serde` is an inert offline stub (derives compile
//! but do nothing), so every JSON document is read by hand, here: run
//! manifests ([`crate::manifest`]), `--faults PLAN.json` fault plans
//! and the JSONL trace logs `trace_inspect` reads back (both in
//! `ffd2d-experiments`). Only the subset those formats need is
//! implemented: objects, arrays, strings without escapes, numbers,
//! `true`/`false`/`null`. Errors start with `JSON:`; callers prefix
//! what they were reading.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers above 2^53 lose precision — manifest
    /// fields stay far below that in practice).
    Num(f64),
    /// A string without escape sequences.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, field order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete document (rejecting trailing data).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        if p.peek().is_some() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer. `u64::MAX as f64` rounds
    /// up to 2^64, which is out of range, so the bound is strict.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON: {msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err(self.err("escape sequences are not supported"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }
}

/// Escape a string for embedding in a JSON document. Control
/// characters, quotes and backslashes never appear in metric keys or
/// config echoes, but escape defensively anyway (the parser above
/// rejects escapes, so writers should avoid producing them — this is a
/// belt for hand-edited configs).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let v = Value::parse(r#"{"a": 1, "b": [true, null, "x"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Value::as_f64),
            Some(-2.5)
        );
        match v.get("b") {
            Some(Value::Arr(items)) => {
                assert_eq!(items[0].as_bool(), Some(true));
                assert_eq!(items[1], Value::Null);
                assert_eq!(items[2].as_str(), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn bad_documents_are_rejected() {
        for bad in ["", "{", "[1,", r#"{"a" 1}"#, "{} extra", "tru"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn negative_numbers_are_not_u64() {
        let v = Value::parse(r#"{"n": -3}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), None);
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-3.0));
    }

    #[test]
    fn two_to_the_64_is_not_u64() {
        let at = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(at("18446744073709551616"), None);
        assert_eq!(at("1e300"), None);
        // The largest f64 below 2^64 still fits.
        assert_eq!(at("18446744073709549568"), Some(18_446_744_073_709_549_568));
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics(
            picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..48),
        ) {
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            let _ = Value::parse(&text);
            let _ = Value::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    /// Fragments arbitrary documents are assembled from: every byte
    /// the grammar branches on, plus a multi-byte character and a
    /// backslash.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "-", "+", ".", "e", "E", "0", "7", "1e999", "t",
        "true", "f", "false", "n", "null", "x", "\\", "é", "\n",
    ];
}
