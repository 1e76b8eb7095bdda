//! The workspace's one JSON codec.
//!
//! Every JSON reader and writer in Zeus goes through this module: the
//! `zeusd` wire protocol and artifact cache, fault-campaign checkpoint
//! journals, the string escaping of the campaign and ATPG reports, and
//! the Yosys-JSON bridge. The workspace deliberately has no external
//! dependencies, so the codec is hand-written, and it is written for
//! hostile input: nesting is capped at 128 levels (a stack overflow is
//! not a catchable panic), parsing takes time linear in the input,
//! every allocation is bounded by the input length, and malformed text
//! produces an `Err`, never a panic.
//!
//! A plain run of digits that fits a `u64` parses to an exact
//! [`Json::Num`]; every other finite number (a sign, a fraction, an
//! exponent, or a value past `u64::MAX`) is a [`Json::Float`].
//!
//! The encoder emits no whitespace and escapes every control character,
//! so an encoded value is a single line. Object key order is preserved
//! on parse and emitted verbatim on encode, so a deterministic builder
//! produces deterministic bytes.

use std::fmt::Write as _;

/// Maximum nesting of arrays/objects before the parser refuses.
const MAX_DEPTH: usize = 128;

/// 2^53: every integer up to it is exact as an `f64`.
const MAX_EXACT_FLOAT: f64 = (1u64 << 53) as f64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    Num(u64),
    /// Any other finite number: negative, fractional, written with an
    /// exponent, or past `u64::MAX`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, if it is one. An
    /// integral float up to 2^53 counts too, so a Yosys bit written `2.0`
    /// is bit 2.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= MAX_EXACT_FLOAT => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True for `1`, `"1"` and `true` (Yosys encodes attribute flags in
    /// all three ways across versions).
    pub fn is_truthy(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            Json::Num(n) => *n != 0,
            Json::Float(f) => *f != 0.0,
            Json::Str(s) => !s.is_empty() && s.bytes().any(|b| b != b'0'),
            _ => false,
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first offence (position and expectation).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Encodes compactly (no whitespace), preserving object key order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.fract() == 0.0 && f.abs() <= MAX_EXACT_FLOAT {
                    let _ = write!(out, "{}", *f as i64);
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and every
/// control character escaped.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    encode_str(s, &mut out);
    out
}

fn encode_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at offset {start}"))?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::Num(n));
            }
        }
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at offset {start}"));
        }
        Ok(Json::Float(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 in string at offset {start}"))?,
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // A high surrogate must pair with a low one.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!(
                                        "bad unicode escape ending at offset {}",
                                        self.pos
                                    ))
                                }
                            }
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at offset {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!("truncated unicode escape at offset {}", self.pos));
        };
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("bad unicode escape at offset {}", self.pos))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad unicode escape at offset {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_basic_document() {
        let text = r#"{"a":[1,2,{"b":"x\ny"}],"c":true,"d":null,"e":-3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.encode(), text);
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));

        // Escaped keys and values, nesting and empty containers come back
        // equal, and the encoding is one line.
        let v = Json::Obj(vec![
            ("a\n\"b\\".to_string(), Json::Str("x\ty\u{1}z".to_string())),
            (
                "list".to_string(),
                Json::Arr(vec![Json::Num(0), Json::Null, Json::Bool(true)]),
            ),
            ("empty".to_string(), Json::Obj(vec![])),
        ]);
        let text = v.encode();
        assert!(!text.contains('\n'), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);

        let v = Json::parse("{\"a\":[{\"b\":1},2],\"c\":\"x\\ny\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));

        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_are_exact_integers_or_floats() {
        let max = u64::MAX.to_string();
        assert_eq!(Json::parse(&max), Ok(Json::Num(u64::MAX)));
        assert_eq!(Json::parse(&max).unwrap().encode(), max);
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        assert!(matches!(
            Json::parse("18446744073709551616"),
            Ok(Json::Float(_))
        ));
        assert_eq!(Json::parse("007"), Ok(Json::Num(7)));
        assert_eq!(Json::parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(Json::parse("2.0").unwrap().encode(), "2");
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
        for not_u64 in ["2.5", "-1", "1e300"] {
            assert_eq!(Json::parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        assert_eq!(Json::parse("2.5").unwrap().encode(), "2.5");
        assert!(Json::parse("0").unwrap() == Json::Num(0));
        assert!(!Json::parse("0").unwrap().is_truthy());
        assert!(Json::parse("0.5").unwrap().is_truthy());
    }

    #[test]
    fn rejects_hostile_without_panicking() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        // A zeusd request line whose argv opens a million arrays.
        let line = format!("{{\"id\":1,\"argv\":{}", "[".repeat(1_000_000));
        let e = Json::parse(&line).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");
        for bad in [
            "",
            "{",
            "{}x",
            "[1,",
            "\"abc",
            "\"unterminated",
            "{\"a\" 1}",
            "{\"a\":",
            "{\"a\":1} trailing",
            "nul",
            "1e999999",
            "\"\\u12\"",
            "\"\\q\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"raw\ttab\"",
            "\"raw\nnewline\"",
            "[]x",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        // Every prefix of a valid document is an error or a value, never
        // a panic.
        let text = r#"{"mod":{"ports":{"a":{"direction":"input","bits":[2]}}}}"#;
        for i in 0..text.len() {
            let _ = Json::parse(&text[..i]);
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
    }
}
