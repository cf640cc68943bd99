//! A strict JSON parser and writer for [`Value`].
//!
//! The grammar is RFC 8259 JSON with two deliberate simplifications that
//! match how the rest of the system uses it:
//!
//! * numbers are parsed into `f64` (integers beyond 2^53 lose precision);
//! * `\uXXXX` escapes are decoded, including surrogate pairs.
//!
//! The writer produces either compact one-line output ([`to_string`]) or
//! stable two-space-indented output ([`to_string_pretty`]); both are
//! canonical in the sense that parsing the output yields the input value,
//! which is enforced by property tests.

use crate::error::{FormatError, Result};
use crate::value::{push_num, Value};

/// Parse a JSON document into a [`Value`].
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Serialize a value as compact single-line JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialize a value as pretty-printed JSON with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => write_string(out, s),
        Value::List(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Append `n` as a JSON number: `null` for NaN and infinities (JSON has
/// neither, and most writers do the same), integers without a fraction,
/// anything else in its shortest round-trippable form.
pub fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        push_num(out, n);
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied whole, so a string without `"`, `\` or control
/// characters is one copy.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, msg: impl Into<String>) -> FormatError {
        FormatError::at("json", msg, self.line, self.col)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(self.err(format!("expected '{}', found '{}'", b as char, got as char))),
            None => Err(self.err(format!("expected '{}', found end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.parse_map(),
            Some(b'[') => self.parse_list(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        for expected in kw.bytes() {
            match self.bump() {
                Some(b) if b == expected => {}
                _ => return Err(self.err(format!("invalid literal, expected '{kw}'"))),
            }
        }
        Ok(value)
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        Ok(Value::Map(entries))
    }

    fn parse_list(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        Ok(Value::List(items))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
                self.col += 1;
            }
            if self.pos > start {
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("invalid UTF-8"))?);
            }
            match self.bump() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => {
                    let esc = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0C}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: expect a following low surrogate.
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                        }
                        other => return Err(self.err(format!("invalid escape '\\{}'", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            cp = cp * 16 + digit;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-3.25e2").unwrap(), Value::Num(-325.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get_path("c").unwrap().as_str(), Some("x"));
        let a = v.get_list("a").unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\t newline\n quote\" backslash\\ unicode\u{1F600} ctrl\u{01}";
        let v = Value::Str(s.into());
        let encoded = to_string(&v);
        assert_eq!(
            encoded,
            "\"tab\\t newline\\n quote\\\" backslash\\\\ unicode\u{1F600} ctrl\\u0001\""
        );
        assert_eq!(parse(&encoded).unwrap(), v);
        let controls = Value::Str("\u{08}\u{0c}\r\u{1f}\u{7f}".into());
        assert_eq!(to_string(&controls), "\"\\b\\f\\r\\u001f\u{7f}\"");
    }

    #[test]
    fn surrogate_pair_decoding() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_unpaired_surrogate() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\"}", "{\"a\":}", "[1 2]", "01", "1.", "1e", "nul", "\"abc"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::List(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Map(vec![]));
        assert_eq!(to_string(&Value::List(vec![])), "[]");
        assert_eq!(to_string(&Value::Map(vec![])), "{}");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"exp":"gassyfs","nodes":[1,2,4],"opts":{"fuse":true}}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"nodes\": [\n"));
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(to_string(&Value::Num(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                // Finite, round-trippable numbers.
                (-1.0e12f64..1.0e12).prop_map(|n| Value::Num((n * 1000.0).round() / 1000.0)),
                "[a-zA-Z0-9 _\\-\\\\\"\n\t\u{00e9}\u{4e16}]{0,20}".prop_map(Value::Str),
            ];
            leaf.prop_recursive(4, 64, 8, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
                    proptest::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(|pairs| {
                        // Deduplicate keys to keep equality well-defined.
                        let mut m = Value::empty_map();
                        for (k, v) in pairs {
                            m.insert(k, v);
                        }
                        m
                    }),
                ]
            })
        }

        proptest! {
            #[test]
            fn round_trip_compact(v in arb_value()) {
                let s = to_string(&v);
                prop_assert_eq!(parse(&s).unwrap(), v);
            }

            #[test]
            fn round_trip_pretty(v in arb_value()) {
                let s = to_string_pretty(&v);
                prop_assert_eq!(parse(&s).unwrap(), v);
            }

            #[test]
            fn parser_never_panics(s in "\\PC{0,64}") {
                let _ = parse(&s);
            }
        }
    }
}
