//! A minimal JSON codec (the offline stand-in for `serde_json`,
//! DESIGN.md §5).
//!
//! Covers exactly what the workspace needs: objects, arrays, strings with
//! the standard escapes, finite numbers, booleans and null. Numbers are
//! carried as `f64`; since every `f32` converts to `f64` exactly and Rust's
//! float `Display` prints the shortest digits that round-trip, an `f32`
//! written by [`Value::to_json`] parses back bit-for-bit — which the model
//! save/load round-trip tests rely on.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects use a `BTreeMap`, so serialization order is
/// deterministic (sorted keys) and output is diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub(crate) msg: String,
    pub(crate) pos: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Serialization failure: JSON has no representation for NaN or ±∞.
///
/// Carries the offending value so callers (e.g. the bench harness) can
/// report *which* metric went non-finite instead of losing the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFiniteError(pub f64);

impl fmt::Display for NonFiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON cannot represent the non-finite number {}", self.0)
    }
}

impl std::error::Error for NonFiniteError {}

impl Value {
    /// Serialize compactly (no insignificant whitespace).
    ///
    /// Convenience wrapper over [`Value::try_to_json`] for documents known
    /// to be finite (model weights are guarded upstream). Panics on NaN or
    /// ±∞; code serializing *measured* values (rewards, bench metrics)
    /// must use [`Value::try_to_json`] or sanitize first.
    pub fn to_json(&self) -> String {
        self.try_to_json()
            .expect("document contains a non-finite number; use try_to_json")
    }

    /// Serialize compactly, returning an error instead of panicking when
    /// the document contains a number JSON cannot represent.
    pub fn try_to_json(&self) -> Result<String, NonFiniteError> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), NonFiniteError> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    return Err(NonFiniteError(*n));
                }
                // Integral values print without a fraction; Display
                // otherwise emits shortest-round-trip digits. Negative
                // zero must keep its sign for bit-exact round-trips.
                if *n == 0.0 && n.is_sign_negative() {
                    out.push_str("-0.0");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    // -- typed accessors used by the deserializers --------------------------

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|n| n as f32)
    }

    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Convenience constructor for object values.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            pos: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's documents; reject them plainly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run of unescaped bytes up to the next
                    // quote, backslash or control byte in one push. The run
                    // ends on an ASCII byte, so it never splits a multi-byte
                    // scalar of the (already valid UTF-8) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = obj(vec![
            ("name", Value::Str("osa".into())),
            (
                "layers",
                Value::Arr(vec![Value::Num(1.5), Value::Null, Value::Bool(true)]),
            ),
            ("empty", Value::Arr(vec![])),
        ]);
        let text = doc.to_json();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        let cases = [
            0.1f32,
            -3.402_823_5e38,
            1.175_494_4e-38,
            std::f32::consts::PI,
            1.0 / 3.0,
            -0.0,
        ];
        for &x in &cases {
            let text = Value::Num(x as f64).to_json();
            let back = Value::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "a \"quoted\"\\ line\nwith\ttabs and unicode: π";
        let text = Value::Str(s.into()).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_str().unwrap(), s);
    }

    /// A random string mixing every class the scanner treats differently:
    /// plain ASCII, the escaped `"`/`\`, control characters (written as
    /// escapes), and 2-, 3- and 4-byte UTF-8 scalars.
    fn random_string(rng: &mut crate::rng::Rng) -> String {
        let len = rng.below(24);
        (0..len)
            .map(|_| {
                let code = match rng.below(7) {
                    0 => b'"' as u32,
                    1 => b'\\' as u32,
                    2 => rng.below(0x20) as u32,
                    3 => 0x80 + rng.below(0x800 - 0x80) as u32,
                    // Skip the surrogate block, which has no `char`.
                    4 => 0xE000 + rng.below(0x1_0000 - 0xE000) as u32,
                    5 => 0x1_0000 + rng.below(0x11_0000 - 0x1_0000) as u32,
                    _ => 0x20 + rng.below(0x60) as u32,
                };
                char::from_u32(code).expect("scalar value")
            })
            .collect()
    }

    #[test]
    fn random_strings_roundtrip_through_the_scanner() {
        let mut rng = crate::rng::Rng::seed_from_u64(1201);
        for case in 0..2000 {
            let s = random_string(&mut rng);
            let text = obj(vec![(s.as_str(), Value::Str(s.clone()))]).to_json();
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(back.get(&s).and_then(Value::as_str), Some(s.as_str()));
        }
    }

    /// Every raw byte 0x00–0x1F inside a string is rejected at its own
    /// byte offset, wherever it falls among escapes and multi-byte runs.
    #[test]
    fn raw_control_bytes_are_rejected_at_their_offset() {
        let mut rng = crate::rng::Rng::seed_from_u64(1202);
        for raw in 0u8..0x20 {
            for _ in 0..20 {
                let head = Value::Str(random_string(&mut rng)).to_json();
                let tail = Value::Str(random_string(&mut rng)).to_json();
                // `head` minus its closing quote, the raw byte, `tail`
                // minus its opening quote: one string literal.
                let text = format!(
                    "[1,{}{}{}]",
                    &head[..head.len() - 1],
                    raw as char,
                    &tail[1..]
                );
                let err = Value::parse(&text).expect_err("raw control byte accepted");
                assert_eq!(err.msg, "raw control character in string");
                assert_eq!(err.pos, 3 + head.len() - 1, "byte {raw:#04x} in {text:?}");
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"abc", "{}x"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(42.0).to_json(), "42");
        assert_eq!(Value::Num(-0.5).to_json(), "-0.5");
    }

    /// Regression: a single NaN metric must surface as an error, not a
    /// panic that loses every other result in the document.
    #[test]
    fn non_finite_numbers_error_instead_of_panicking() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = obj(vec![
                ("good_metric", Value::Num(1.5)),
                ("reward", Value::Num(bad)),
            ]);
            let err = doc.try_to_json().expect_err("accepted non-finite");
            if bad.is_nan() {
                assert!(err.0.is_nan());
            } else {
                assert_eq!(err.0, bad);
            }
        }
    }

    #[test]
    fn try_to_json_matches_to_json_on_finite_documents() {
        let doc = obj(vec![
            ("a", Value::Num(0.1)),
            (
                "b",
                Value::Arr(vec![Value::Num(-0.0), Value::Str("x".into())]),
            ),
        ]);
        assert_eq!(doc.try_to_json().unwrap(), doc.to_json());
    }
}
