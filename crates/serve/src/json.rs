//! Minimal hand-rolled JSON — exactly what the sp-serve wire protocol
//! needs, nothing more. The workspace builds offline with no external
//! crates (DESIGN §6), so this is ~300 lines of recursive-descent
//! parser plus a deterministic encoder instead of a serde dependency.
//!
//! The parser accepts exactly RFC 8259 documents: raw control
//! characters inside strings, leading zeros, `+1`, `.5`, `5.` and
//! trailing commas are errors naming the byte where they occur.
//!
//! Determinism matters here: cached results are compared and digested
//! byte-for-byte, so the encoder is stable — object keys keep insertion
//! order, integers in the `f64`-exact range print without a decimal
//! point, and other numbers use Rust's shortest-roundtrip `Display`.

/// A JSON value. Objects preserve insertion order (no hashing), which
/// keeps encoding deterministic and diffs readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (builder style).
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn push(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            other => panic!("push on non-object {other:?}"),
        }
        self
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode to compact JSON text (no whitespace). Deterministic for a
    /// given value: stable key order, stable number formatting.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document; trailing content (other than whitespace)
    /// is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf; simulations never produce them
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one line of `[[[[…` would
/// overflow the connection thread's stack — an abort no `catch_unwind`
/// can contain. Protocol documents nest three or four levels deep.
const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => {
                        *pos += 1;
                        skip_ws(bytes, pos);
                        if bytes.get(*pos) == Some(&b'}') {
                            // A trailing comma promises another member.
                            return Err(format!("expected value at byte {pos}", pos = *pos));
                        }
                    }
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(format!("expected value at byte {pos}", pos = *pos)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs: combine \uD8xx\uDCxx into one char.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("lone high surrogate".into());
                            }
                            let lo_hex = bytes
                                .get(*pos + 3..*pos + 7)
                                .ok_or("truncated surrogate pair")?;
                            let lo_hex =
                                std::str::from_utf8(lo_hex).map_err(|_| "bad surrogate")?;
                            let lo =
                                u32::from_str_radix(lo_hex, 16).map_err(|_| "bad surrogate")?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            cp
                        };
                        out.push(char::from_u32(c).ok_or("invalid \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "unescaped control character U+{c:04X} in string at byte {pos}",
                    pos = *pos
                ))
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control character in one step, so a long
                // string parses in linear time. Every stop is ASCII, so
                // on a `&str` input the run ends on a char boundary.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..run]).map_err(|_| "invalid utf-8")?);
                *pos = run;
            }
        }
    }
}

/// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| -> Result<usize, String> {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        match *pos - from {
            0 => Err(format!("expected digit at byte {pos}", pos = *pos)),
            n => Ok(n),
        }
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    if digits(pos)? > 1 && bytes.get(int_start) == Some(&b'0') {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)?;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_testkit::SmallRng;

    #[test]
    fn roundtrips_scalars_and_containers() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "0.5",
            "1.25e3",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            let enc = v.encode();
            assert_eq!(Json::parse(&enc).unwrap(), v, "reparse of {text}");
        }
    }

    #[test]
    fn encoding_is_canonical_and_stable() {
        let v = Json::obj()
            .push("b", Json::num(2))
            .push("a", Json::Arr(vec![Json::num(0.5), Json::str("x")]));
        // Insertion order preserved, integers without decimal point.
        assert_eq!(v.encode(), "{\"b\":2,\"a\":[0.5,\"x\"]}");
        // Encode → parse → encode is a fixed point (digest stability).
        let reparsed = Json::parse(&v.encode()).unwrap();
        assert_eq!(reparsed.encode(), v.encode());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}é€".to_string());
        let enc = v.encode();
        assert_eq!(Json::parse(&enc).unwrap(), v);
        // Parser accepts \u escapes including surrogate pairs.
        assert_eq!(
            Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap(),
            Json::Str("é 😀".to_string())
        );
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse("{\"type\":\"sweep\",\"ds\":[2,4],\"rp\":0.5,\"deep\":{\"ok\":true}}")
            .unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("sweep"));
        assert_eq!(v.get("rp").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            v.get("ds").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("ok"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, why) in [
            ("", "unexpected end of input"),
            ("{", "expected string at byte 1"),
            ("[1,", "unexpected end of input"),
            ("{\"a\"}", "expected ':' at byte 4"),
            ("{\"a\":}", "expected value at byte 5"),
            ("nul", "expected \"null\" at byte 0"),
            ("01x", "leading zero in number at byte 0"),
            ("\"unterminated", "unterminated string"),
            ("1 2", "trailing content at byte 2"),
            ("{\"a\":1} extra", "trailing content at byte 8"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\q\"", "bad escape at byte 2"),
            // RFC 8259: no trailing commas,
            ("[1,]", "expected value at byte 3"),
            ("{\"a\":1,}", "expected value at byte 7"),
            // no raw control characters inside strings,
            ("\"a\u{1}b\"", "character U+0001 in string at byte 2"),
            ("\"\u{0}\"", "control character U+0000 in string at byte 1"),
            ("\"\u{1f}\"", "control character U+001F in string at byte 1"),
            ("{\"a\nb\":1}", "character U+000A in string at byte 3"),
            // and numbers only of the form -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?.
            ("01", "leading zero in number at byte 0"),
            ("-01", "leading zero in number at byte 0"),
            ("[00]", "leading zero in number at byte 1"),
            ("+1", "expected value at byte 0"),
            (".5", "expected value at byte 0"),
            ("5.", "expected digit at byte 2"),
            ("1.e5", "expected digit at byte 2"),
            ("-", "expected digit at byte 1"),
            ("--1", "expected digit at byte 1"),
            ("1e", "expected digit at byte 2"),
            ("1e+", "expected digit at byte 3"),
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err:?} lacks {why:?}");
        }
        // The grammar's edges that stay valid.
        for (good, n) in [("0", 0.0), ("-0", -0.0), ("10", 10.0), ("1.5e-3", 1.5e-3)] {
            assert_eq!(Json::parse(good), Ok(Json::Num(n)), "{good:?}");
        }
        assert_eq!(Json::parse("1E+2"), Ok(Json::Num(100.0)));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past any stack's reach: rejected, not overflowed.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        let objs = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objs).is_err());
    }

    #[test]
    fn numbers_encode_deterministically() {
        assert_eq!(Json::Num(5.0).encode(), "5");
        assert_eq!(Json::Num(-2.0).encode(), "-2");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        let big = 9_007_199_254_740_992.0f64;
        assert_eq!(Json::Num(big).encode(), "9007199254740992");
    }

    #[test]
    fn a_64_kib_string_parses_whole() {
        let unit = "plain ASCII, é, € and 😀 \"quoted\" \\ ";
        let text = unit.repeat(64 * 1024 / unit.len());
        let doc = Json::Str(text.clone()).encode();
        assert!(doc.len() > 64 * 1024, "{} bytes", doc.len());
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(text));
    }

    /// A finite number: an integer within ±2^53, a fraction, or any
    /// finite bit pattern (subnormals and huge magnitudes included).
    fn gen_num(rng: &mut SmallRng) -> f64 {
        const EXACT: i64 = 1 << 53;
        match rng.gen_range(0..3u32) {
            0 => rng.gen_range(0..=2 * EXACT as u64) as f64 - EXACT as f64,
            1 => (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_range(0..40u32) as i32 - 20),
            _ => loop {
                let n = f64::from_bits(rng.next_u64());
                if n.is_finite() {
                    break n;
                }
            },
        }
    }

    /// A string over control characters, quotes, backslashes, ASCII,
    /// and multi-byte characters in and beyond the BMP.
    fn gen_string(rng: &mut SmallRng) -> String {
        const SPECIAL: [char; 10] = [
            '"',
            '\\',
            '/',
            '\u{7f}',
            'é',
            '€',
            '\u{2028}',
            '😀',
            '\u{10ffff}',
            ' ',
        ];
        sp_testkit::gen_vec(rng, 0..12, |rng| match rng.gen_range(0..3u32) {
            0 => char::from(rng.gen_range(0..0x20u32) as u8),
            1 => char::from(rng.gen_range(0x20..0x7fu32) as u8),
            _ => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        })
        .into_iter()
        .collect()
    }

    fn gen_scalar(rng: &mut SmallRng) -> Json {
        match rng.gen_range(0..5u32) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(gen_num(rng)),
            _ => Json::Str(gen_string(rng)),
        }
    }

    /// A value whose containers nest exactly `depth` levels: each level
    /// holds a few scalars beside the one child that goes deeper.
    fn gen_nested(rng: &mut SmallRng, depth: usize) -> Json {
        if depth == 0 {
            return gen_scalar(rng);
        }
        let mut items = sp_testkit::gen_vec(rng, 0..3, gen_scalar);
        let at = rng.gen_range(0..=items.len());
        items.insert(at, gen_nested(rng, depth - 1));
        if rng.gen_bool(0.5) {
            Json::Arr(items)
        } else {
            Json::Obj(items.into_iter().map(|v| (gen_string(rng), v)).collect())
        }
    }

    #[test]
    fn parse_inverts_encode() {
        sp_testkit::check(512, |rng| {
            let depth = rng.gen_range(0..=MAX_DEPTH);
            let v = gen_nested(rng, depth);
            let text = v.encode();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "{text}");
        });
    }
}
