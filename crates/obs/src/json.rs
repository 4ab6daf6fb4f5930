//! The workspace's one JSON type: [`JsonValue`] parses documents (the Chrome-trace
//! validator, the repository benchmark's `compare`) and renders every artifact, trace
//! and journal line the workspace writes (the workspace is offline; no serde).
//!
//! Parsing accepts the RFC 8259 grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) with no extensions: no raw control characters inside
//! strings, no leading zeros, no bare `.` in numbers. Errors carry a byte offset.
//!
//! Rendering ([`JsonValue::render`]) is compact — one line, no whitespace — keeps
//! object members in insertion order, escapes strings per RFC 8259 and writes
//! non-finite floats as `null`. Integer literals parse to the exact
//! [`JsonValue::Int`], which renders digit for digit, so a `u64` survives a round
//! trip that an `f64` would round.

use std::fmt::Write as _;

/// A JSON value. Object members keep source (or insertion) order; duplicate keys are
/// kept as-is, and lookups return the first.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact. Integer literals that fit a `u64` parse to this.
    Int(u64),
    /// Any other number, as `f64` (non-finite values render as `null`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns what is malformed and at which byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// An empty object, to fill with [`with`](Self::with).
    #[must_use]
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends the member `key: value` to an object and returns it, so calls chain.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        let JsonValue::Object(members) = &mut self else {
            panic!("JsonValue::with on a non-object");
        };
        members.push((key.to_owned(), value.into()));
        self
    }

    /// The value as one compact line of JSON (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest text that parses back to the same `f64`, and
            // always carries a fraction or an exponent, so it re-parses as a Number.
            JsonValue::Number(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            JsonValue::Number(_) => out.push_str("null"),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The member `key` of an object (`None` for other shapes or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other shapes).
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` for other shapes).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload of either number variant (`None` for other shapes).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Int(n)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Int(n.into())
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        // Lossless: every supported target has a `usize` of at most 64 bits.
        JsonValue::Int(n as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Writes `s` as a JSON string literal: `"` and `\` escaped, control characters as
/// their short escapes or `\u00XX`, everything else (non-ASCII included) verbatim.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    let Some(&next) = bytes.get(*pos) else {
        return Err(format!("unexpected end of input at byte {}", *pos));
    };
    match next {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        b't' => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        b'n' => parse_keyword(bytes, pos, "null", JsonValue::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected byte '{}' at {}",
            char::from(other),
            *pos
        )),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

/// Advances over a run of ASCII digits, returning how many there were.
fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — an unsigned integer
/// literal that fits a `u64` becomes [`JsonValue::Int`], anything else a
/// [`JsonValue::Number`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    let int_start = *pos;
    match digits(bytes, pos) {
        0 => return Err(format!("expected a digit at byte {}", *pos)),
        n if n > 1 && bytes[int_start] == b'0' => {
            return Err(format!("leading zero in number at byte {int_start}"))
        }
        _ => {}
    }
    let mut integer = !negative;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(bytes, pos) == 0 {
            return Err(format!("expected a fraction digit at byte {}", *pos));
        }
        integer = false;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(bytes, pos) == 0 {
            return Err(format!("expected an exponent digit at byte {}", *pos));
        }
        integer = false;
    }
    // The grammar above admits only ASCII, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number literal is ASCII");
    if integer {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(format!("unterminated string at byte {}", *pos));
        };
        *pos += 1;
        match byte {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&escape) = bytes.get(*pos) else {
                    return Err(format!("dangling escape at byte {}", *pos));
                };
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                        let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        *pos += 4;
                        // Surrogate pairs are not emitted by our renderer; map lone
                        // surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => {
                        return Err(format!(
                            "invalid escape '\\{}' at byte {}",
                            char::from(other),
                            *pos
                        ))
                    }
                }
            }
            byte if byte < b' ' => {
                return Err(format!(
                    "raw control character in string at byte {}",
                    *pos - 1
                ));
            }
            _ => {
                // Collect the raw UTF-8 run up to the next quote, backslash or
                // control character.
                let run_start = *pos - 1;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1F) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[run_start..*pos])
                    .map_err(|_| format!("non-utf8 string at byte {run_start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":true,"e":null}, "f" : "A" }"#;
        let value = JsonValue::parse(doc).expect("valid json");
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(
            value.get("b").unwrap().get("d"),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(value.get("b").unwrap().get("e"), Some(&JsonValue::Null));
        assert_eq!(value.get("f").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = JsonValue::parse("\"\\u0041\\u00e9\"").expect("valid json");
        assert_eq!(value.as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for (bad, offset) in [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            (r#"{"a" 1}"#, 5),
            ("tru", 0),
            (r#"{"a":1} extra"#, 8),
            (r#""unterminated"#, 13),
            ("\"a\nb\"", 2),
            ("\"\u{1}\"", 1),
            ("01", 0),
            ("-01", 1),
            ("1.", 2),
            ("1.e5", 2),
            ("-.5", 1),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("+1", 0),
            (".5", 0),
            ("[1-2]", 2),
            (r#""\u12G4""#, 3),
            (r#""\u+123""#, 3),
        ] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert!(
                err.ends_with(&format!(" {offset}")),
                "{bad:?}: expected an error at byte {offset}, got {err:?}"
            );
        }
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(
            JsonValue::parse("[]").unwrap(),
            JsonValue::Array(Vec::new())
        );
        assert_eq!(
            JsonValue::parse("{}").unwrap(),
            JsonValue::Object(Vec::new())
        );
    }

    #[test]
    fn integer_literals_parse_exactly() {
        let max = u64::MAX.to_string();
        assert_eq!(JsonValue::parse(&max), Ok(JsonValue::Int(u64::MAX)));
        assert_eq!(JsonValue::parse("0"), Ok(JsonValue::Int(0)));
        // Beyond u64, negative, fractional or exponent forms are Numbers.
        assert_eq!(
            JsonValue::parse("18446744073709551616"),
            Ok(JsonValue::Number(18_446_744_073_709_551_616.0))
        );
        assert_eq!(JsonValue::parse("-3"), Ok(JsonValue::Number(-3.0)));
        assert_eq!(JsonValue::parse("3.0"), Ok(JsonValue::Number(3.0)));
        assert_eq!(JsonValue::parse("3e0"), Ok(JsonValue::Number(3.0)));
        assert_eq!(JsonValue::Int(7).as_f64(), Some(7.0));
    }

    #[test]
    fn renders_compactly_in_insertion_order() {
        let value = JsonValue::object()
            .with("z", 1u64)
            .with("a", vec![true, false])
            .with("none", None::<u64>)
            .with("x", 0.5)
            .with("s", "q\"b\\n\n\u{1}é");
        assert_eq!(
            value.render(),
            r#"{"z":1,"a":[true,false],"none":null,"x":0.5,"s":"q\"b\\n\n\u0001é"}"#
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::Number(x).render(), "null");
        }
        let doc = JsonValue::from(vec![f64::NAN, 1.5]).render();
        assert_eq!(doc, "[null,1.5]");
        assert_eq!(
            JsonValue::parse(&doc),
            Ok(JsonValue::Array(vec![
                JsonValue::Null,
                JsonValue::Number(1.5)
            ]))
        );
    }

    /// SplitMix64: a deterministic stream for the round-trip generator.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn gen_string(s: &mut Stream) -> String {
        const PIECES: [&str; 12] = [
            "a", "Z", "\"", "\\", "/", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "🦀",
        ];
        (0..s.below(6))
            .map(|_| PIECES[s.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn gen_float(s: &mut Stream) -> f64 {
        match s.below(6) {
            0 => f64::MIN_POSITIVE / 8.0 * (s.below(7) + 1) as f64, // subnormal
            1 => 5e-324,
            2 => f64::MAX / (s.below(9) + 1) as f64,
            3 => -(s.below(1000) as f64) - 0.25,
            4 => 1e20 * (s.below(1000) + 1) as f64,
            // Any sign and mantissa under a finite, normal exponent.
            _ => f64::from_bits((s.next() & !(0x7FF << 52)) | ((s.below(0x7FE) + 1) << 52)),
        }
    }

    fn gen_value(s: &mut Stream, depth: u32) -> JsonValue {
        let kind = if depth == 0 || s.below(3) == 0 {
            s.below(6)
        } else {
            6 + s.below(2)
        };
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(s.below(2) == 1),
            2 => JsonValue::Int(match s.below(3) {
                0 => u64::MAX - s.below(3),
                1 => s.below(100),
                _ => s.next(),
            }),
            3 | 4 => JsonValue::Number(gen_float(s)),
            5 => JsonValue::String(gen_string(s)),
            6 => JsonValue::Array((0..s.below(4)).map(|_| gen_value(s, depth - 1)).collect()),
            _ => JsonValue::Object(
                (0..s.below(4))
                    .map(|_| (gen_string(s), gen_value(s, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parse_inverts_render() {
        let mut stream = Stream(0x0B5E_4A11);
        for _ in 0..500 {
            let value = gen_value(&mut stream, 4);
            let text = value.render();
            assert!(!text.contains('\n'), "render is one line: {text}");
            assert_eq!(JsonValue::parse(&text).as_ref(), Ok(&value), "{text}");
        }
    }
}
