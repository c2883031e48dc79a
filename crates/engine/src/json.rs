//! A minimal hand-rolled JSON writer and reader.
//!
//! The engine serializes run results without external dependencies, and the
//! output doubles as the determinism fingerprint: the canonical form must be
//! byte-identical across thread counts and runs, so formatting is fully
//! specified here (shortest round-trip `f64` rendering, no whitespace,
//! insertion-ordered objects).
//!
//! The reader ([`parse`] → [`Value`]) is the matching recursive-descent
//! parser: it accepts anything this writer emits (and general JSON), keeps
//! object entries in document order, and round-trips every finite `f64` the
//! writer renders bit-exactly (Rust's shortest-decimal `Display` parses
//! back to the same bits). The sweep store's JSONL shards and the
//! `hira serve` wire protocol are both read through it.

use std::fmt;
use std::fmt::Write as _;

/// Appends the JSON string literal for `s` (quotes included).
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends the JSON rendering of `v`: shortest round-trip decimal for finite
/// values, `null` for NaN/infinities (JSON has no encoding for them).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends an object from pre-rendered `(key, raw_json_value)` entries.
pub fn write_object<'a>(out: &mut String, entries: impl IntoIterator<Item = (&'a str, String)>) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        out.push_str(&v);
    }
    out.push('}');
}

/// A parsed JSON value. Objects keep their entries in document order (the
/// writer is insertion-ordered, so write→parse→write is the identity on
/// entry order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also what the writer emits for NaN/infinite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, entries in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer. `u64::MAX as
    /// f64` rounds up to 2^64, which no `u64` holds, so the bound is strict.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entry list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first offending
/// input on malformed documents (including truncated ones — the store's
/// corrupt-tail recovery relies on truncation being an *error*, never a
/// silently short value).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by [`parse`] (guards the call stack).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            msg,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{', "expected `{`")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            entries.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v << 4 | u16::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 is copied through as-is: the input is
                    // a &str, so byte boundaries are already valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b >= 0x80 && b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII span");
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            msg: "invalid number",
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_of(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(str_of("plain"), "\"plain\"");
        assert_eq!(str_of("a\"b"), "\"a\\\"b\"");
        assert_eq!(str_of("a\\b"), "\"a\\\\b\"");
        assert_eq!(str_of("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(str_of("\u{1}"), "\"\\u0001\"");
        assert_eq!(str_of("µ-ops"), "\"µ-ops\"");
    }

    #[test]
    fn floats_render_shortest_and_nonfinite_as_null() {
        let f = |v: f64| {
            let mut out = String::new();
            write_f64(&mut out, v);
            out
        };
        assert_eq!(f(1.5), "1.5");
        assert_eq!(f(3.0), "3");
        assert_eq!(f(-0.25), "-0.25");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn objects_preserve_entry_order() {
        let mut out = String::new();
        write_object(
            &mut out,
            [("b", "1".to_string()), ("a", "\"x\"".to_string())],
        );
        assert_eq!(out, "{\"b\":1,\"a\":\"x\"}");
    }

    #[test]
    fn parse_reads_scalars_arrays_and_ordered_objects() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Num(-250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        let v = parse(r#"{"b":[1,2,{"x":null}],"a":"y"}"#).unwrap();
        let entries = v.as_obj().unwrap();
        assert_eq!(entries[0].0, "b");
        assert_eq!(entries[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("y"));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        // 2^64 - 2048 is the largest f64 below 2^64; 18446744073709551615
        // parses as 2^64 itself and must not saturate into u64::MAX.
        let big = parse("18446744073709549568").unwrap();
        assert_eq!(big.as_u64(), Some(u64::MAX - 2047));
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None);
        assert!(arr[2].get("x").unwrap().is_null());
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(parse(r#""A\t\"\\µ""#).unwrap().as_str(), Some("A\t\"\\µ"));
        // Surrogate pair → astral code point.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"µ-ops\"").unwrap().as_str(), Some("µ-ops"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parse_rejects_malformed_documents_with_offsets() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\":1,",
            "[1,2",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "{a:1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = parse("[1,]").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn writer_output_round_trips_through_parse() {
        let mut inner = String::new();
        write_object(
            &mut inner,
            [
                ("name", str_of("µ \"quoted\"\n")),
                ("v", "0.30000000000000004".to_string()),
                ("list", "[1,null,true]".to_string()),
            ],
        );
        let v = parse(&inner).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("µ \"quoted\"\n"));
        // Shortest-decimal rendering parses back to the exact same bits.
        assert_eq!(
            v.get("v").unwrap().as_f64().unwrap().to_bits(),
            0.30000000000000004f64.to_bits()
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly_through_write_and_parse() {
        for v in [
            1.0,
            -0.25,
            0.1 + 0.2,
            1e-300,
            123456789.12345679,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let mut out = String::new();
            write_f64(&mut out, v);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }
}
