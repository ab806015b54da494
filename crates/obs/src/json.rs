//! The workspace's one JSON implementation: the JSONL event sink, the
//! metrics report, `cwc-trace`, the bench report writers/readers and the
//! `benchmark/` harness all go through it. Hand-rolled so the crate stays
//! dependency-free. [`parse`] reads any JSON document (nesting capped at
//! [`MAX_DEPTH`]) into a [`JsonValue`]; values are built with the `From`
//! conversions and written back with `Display` — `{}` compact, `{:#}`
//! 2-space pretty — so that `parse(&v.to_string()) == v`.

use std::fmt;

/// Parsed JSON value. Integers are kept distinct from floats so `u64`
/// timestamps and sequence numbers survive a round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Negative integer in `i64` range.
    Int(i64),
    /// Non-negative integer in `u64` range.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(n) => Some(n),
            JsonValue::Int(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::UInt(n) => Some(n as f64),
            JsonValue::Int(n) => Some(n as f64),
            JsonValue::Float(n) => Some(n),
            _ => None,
        }
    }

    /// The object's key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::UInt(n as u64)
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Clone + Into<JsonValue>> From<&T> for JsonValue {
    fn from(v: &T) -> Self {
        v.clone().into()
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// An object from `(key, value)` pairs, kept in the order given.
impl<K: Into<String>, const N: usize> From<[(K, JsonValue); N]> for JsonValue {
    fn from(pairs: [(K, JsonValue); N]) -> Self {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// `{}` writes the value compactly on one line, `{:#}` pretty-printed with
/// 2-space indentation. Either form parses back to an equal value, except
/// that non-finite floats (invalid in JSON) are written as `null`.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

impl JsonValue {
    /// Appends the value to `out`; `indent` is the current nesting level
    /// when pretty-printing, `None` for the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, level: Option<usize>| {
            if let Some(level) = level {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
        };
        let inner = indent.map(|level| level + 1);
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::UInt(n) => out.push_str(&n.to_string()),
            JsonValue::Float(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_str(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Writes `s` as a JSON string literal (with quotes) onto `out`.
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `v` as a JSON number onto `out`. Integral finite floats keep a
/// trailing `.0` so they parse back as floats; non-finite values (invalid in
/// JSON) become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // `Display` for f64 never uses an exponent, so a missing `.` means
    // the value is integral.
    let text = v.to_string();
    out.push_str(&text);
    if !text.contains('.') {
        out.push_str(".0");
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses per
/// level and reads outside input (trace files, child stdout, report
/// baselines), so unbounded nesting would overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs one container parser a nesting level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.hex4()?;
                            if (0xd800..0xdc00).contains(&hex) {
                                // High surrogate: a low surrogate must
                                // follow as another \u escape; together they
                                // name one supplementary-plane code point.
                                // A lone surrogate decodes to U+FFFD.
                                let mark = self.pos;
                                if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xdc00..0xe000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((hex - 0xd800) << 10) + (lo - 0xdc00);
                                        out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                                        continue;
                                    }
                                    // Not a low surrogate: rewind and let the
                                    // escape be parsed on its own.
                                    self.pos = mark;
                                }
                                out.push('\u{fffd}');
                            } else {
                                // Lone low surrogates also decode to U+FFFD.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    /// Reads exactly four hex digits (one `\uXXXX` payload).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(JsonValue::Int(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2, 3.5, true, null], "b": {"c": "x\ny"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::UInt(1),
                JsonValue::Int(-2),
                JsonValue::Float(3.5),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn big_u64_survives() {
        let v = parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v, JsonValue::UInt(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tab\t newline\n quote\" backslash\\ unicode é 札幌 ctrl\u{1}";
        let mut encoded = String::new();
        write_str(&mut encoded, original);
        let v = parse(&encoded).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn pathological_payloads_round_trip() {
        // Every control character, DEL, C1 controls, non-BMP code points
        // (emoji, CJK extension, musical symbols), combining marks, and a
        // lone replacement char — the worst strings an event payload can
        // legally carry.
        let controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let cases = [
            controls.as_str(),
            "\u{7f}\u{80}\u{9f}",
            "😀 🚀 \u{1F600}\u{10FFFF}",
            "𝄞 music, 𠀀 CJK-B, 🏴 flags",
            "e\u{301} combining, \u{fffd} replacement",
            "mixed \u{0} nul and 😀 emoji and \t tab",
        ];
        for original in cases {
            let mut encoded = String::new();
            write_str(&mut encoded, original);
            let v = parse(&encoded).unwrap_or_else(|e| panic!("{encoded:?}: {e}"));
            assert_eq!(v.as_str(), Some(original), "encoded as {encoded:?}");
        }
    }

    #[test]
    fn surrogate_pairs_from_external_writers_decode() {
        // Our writer emits non-BMP code points as raw UTF-8, but external
        // JSONL (canonical JSON encoders) uses \u surrogate pairs; both
        // spellings must parse to the same string.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse("\"\\ud834\\udd1e clef\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E} clef"));
        // The raw UTF-8 spelling lands on the same string.
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
        // Lone surrogates (either half) degrade to U+FFFD, not an error.
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""\udc00""#).unwrap().as_str(), Some("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: the second
        // escape survives on its own.
        assert_eq!(parse(r#""\ud800A""#).unwrap().as_str(), Some("\u{fffd}A"));
        // Malformed hex in the low half is still an error.
        assert!(parse(r#""\ud83d\uzzzz""#).is_err());
        assert!(parse(r#""\u12"#).is_err());
        assert!(parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn float_writer_keeps_float_type() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3.0");
        assert_eq!(parse(&s).unwrap(), JsonValue::Float(3.0));

        let mut s = String::new();
        write_f64(&mut s, 0.125);
        assert_eq!(parse(&s).unwrap(), JsonValue::Float(0.125));

        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("MAX_DEPTH"), "{err}");
        // Hostile input: unbounded recursion would abort the process here.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(1_000_000)).is_err());
        // The cap is on depth, not on how many containers a document holds.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 10_000].join(","))).is_ok());
    }

    #[test]
    fn written_values_parse_back_equal() {
        let leaves = JsonValue::from(vec![
            JsonValue::Null,
            true.into(),
            u64::MAX.into(),
            0u64.into(),
            JsonValue::Int(-1),
            JsonValue::Int(i64::MIN),
            3.0.into(),
            (-0.125).into(),
            1e15.into(),
            1e300.into(),
            1e-7.into(),
            "".into(),
            "quote\" backslash\\ tab\t nl\n ctrl\u{1} nul\u{0} é 札幌 😀 \u{10FFFF}".into(),
        ]);
        let doc = JsonValue::from([
            ("zeta", leaves.clone()),
            ("alpha", JsonValue::from([("k\"ey", leaves)])),
            ("empty_arr", JsonValue::Arr(Vec::new())),
            ("empty_obj", JsonValue::Obj(Vec::new())),
            ("rows", vec![vec![1u64, 2], vec![]].into()),
        ]);
        for v in [doc.clone(), JsonValue::Null, 7u64.into(), "s".into()] {
            assert_eq!(parse(&v.to_string()).unwrap(), v, "compact");
            assert_eq!(parse(&format!("{v:#}")).unwrap(), v, "pretty");
        }
        // Objects keep source order (`zeta` before `alpha`).
        let keys: Vec<_> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["zeta", "alpha", "empty_arr", "empty_obj", "rows"]);
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let v = JsonValue::from([
            ("a", vec![1u64, 2].into()),
            ("b", JsonValue::from([("c", 1.5.into())])),
            ("d", JsonValue::Arr(Vec::new())),
        ]);
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":{"c":1.5},"d":[]}"#);
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": 1.5\n  },\n  \"d\": []\n}"
        );
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
    }
}
