//! A minimal JSON value with a writer, and a pull parser.
//!
//! The observability layer ships no external crates, so this module
//! provides exactly the JSON subset the manifests and Chrome traces need:
//! objects (insertion-ordered), arrays, strings, finite numbers, booleans
//! and null.
//!
//! [`Reader`] is the one grammar. `camp-serve` decodes its wire frames
//! with it, value by value, straight into its own types; [`parse`] builds
//! a [`Json`] tree with it, for the in-tree checker, the tests and the
//! daemon's `stats` answer. Both therefore accept the same documents and
//! report a syntax error with the same message at the same byte offset.
//! On the writing side, [`write_number`] and [`write_string`] are the
//! formatting [`Json::render`] uses, so a renderer that skips the tree
//! emits the same bytes.

use std::borrow::Cow;
use std::fmt;

mod ryu;

/// A JSON value. Object members keep insertion order, which keeps emitted
/// manifests deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a member of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as an integer, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Removes a member from an object (no-op on other variants); used by
    /// the tests to mask timing fields before comparing manifests.
    pub fn remove(&mut self, key: &str) {
        if let Json::Obj(members) = self {
            members.retain(|(k, _)| k != key);
        }
    }

    /// Serialises to a compact single-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Appends `n` as [`Json::render`] writes a number: integral values
/// below 2^53 without a fraction, others in shortest round-trip form,
/// non-finite ones as `null`.
///
/// The digits are those `format!("{n}")` prints, in the same positional
/// form (no exponent: trailing zeros for large integers, `0.000…` for
/// small values), but generated directly: an in-crate Ryū finds the
/// shortest digits that read back as `n` in a few integer
/// multiplications, where `core::fmt` runs Grisu with a Dragon fallback
/// behind a formatter.
pub fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; emit null rather than invalid output.
        out.push_str("null");
        return;
    }
    if n.is_sign_negative() && n != 0.0 {
        out.push('-');
    }
    let magnitude = n.abs();
    // Integral below 2^53, tested by a round trip through `u64` (the same
    // answer as `fract() == 0.0`, without a call to `trunc`), goes out as
    // its integer digits; -0 prints as 0.
    let (digits, exponent) =
        if magnitude < (1u64 << 53) as f64 && (magnitude as u64) as f64 == magnitude {
            (magnitude as u64, 0)
        } else {
            ryu::shortest(magnitude)
        };
    let len = decimal_len(digits);
    let mut buf = [0; 20];
    write_digits(digits, &mut buf[..len]);
    let digits = ascii(&buf[..len]);
    // The decimal point sits `point` digits into the digits.
    let point = len as i32 + exponent;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(-point as usize, out);
        out.push_str(digits);
    } else if (point as usize) < len {
        let (whole, fraction) = digits.split_at(point as usize);
        out.push_str(whole);
        out.push('.');
        out.push_str(fraction);
    } else {
        out.push_str(digits);
        push_zeros(point as usize - len, out);
    }
}

fn ascii(text: &[u8]) -> &str {
    std::str::from_utf8(text).expect("ASCII digits")
}

fn push_zeros(count: usize, out: &mut String) {
    out.extend(std::iter::repeat_n('0', count));
}

/// The number of decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().unwrap_or(0) as usize + 1
}

/// Two decimal digits per entry: `"00"`, `"01"`, … `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `n`'s decimal digits over the whole of `buf`, which must be
/// exactly [`decimal_len`] long: eight digits at a time split off as a
/// `u32`, then two at a time.
fn write_digits(mut n: u64, buf: &mut [u8]) {
    let mut end = buf.len();
    while end > 8 {
        write_chunk((n % 100_000_000) as u32, &mut buf[end - 8..end]);
        n /= 100_000_000;
        end -= 8;
    }
    write_chunk(n as u32, &mut buf[..end]);
}

/// Writes the `out.len()` decimal digits of `chunk` over `out`.
fn write_chunk(mut chunk: u32, out: &mut [u8]) {
    let mut end = out.len();
    while end >= 2 {
        let pair = (chunk % 100) as usize * 2;
        chunk /= 100;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        out[0] = b'0' + chunk as u8;
    }
}

/// Appends `s` as a quoted JSON string, escaped as [`Json::render`]
/// escapes it: each run free of escapes is copied whole.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every byte that needs an escape is ASCII, so it is a whole char and
    // the runs around it end on char boundaries.
    while let Some(at) = rest.bytes().position(|c| c == b'"' || c == b'\\' || c < 0x20) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(c >> 4)] as char);
                out.push(HEX[usize::from(c & 0xf)] as char);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (rejecting trailing garbage) into a
/// tree: a thin builder over [`Reader`], so both share one grammar and
/// report the same errors at the same offsets.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// The integer a JSON number stands for, if it is a non-negative integer
/// a double holds exactly ([`Json::as_u64`] on a bare number).
pub fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
}

/// The type of the value at a [`Reader`]'s cursor, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull parser: the caller walks the document value by value, and no
/// tree is built. [`parse`] is the tree builder on top of it, and
/// decoders that know their schema read straight into their own types.
///
/// Whitespace is skipped before every token. Arrays and objects are read
/// with a loop:
///
/// ```
/// use camp_obs::json::Reader;
///
/// let mut reader = Reader::new(r#"{"xs": [1, 2.5], "skip": {"me": null}}"#);
/// let mut xs = Vec::new();
/// reader.begin_object()?;
/// while let Some(key) = reader.next_key()? {
///     if key == "xs" {
///         reader.begin_array()?;
///         while reader.next_item()? {
///             xs.push(reader.number()?);
///         }
///     } else {
///         reader.skip()?;
///     }
/// }
/// reader.finish()?;
/// assert_eq!(xs, [1.0, 2.5]);
/// # Ok::<(), camp_obs::json::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Just past a `[` or `{`: the next [`Reader::next_item`] or
    /// [`Reader::next_key`] takes no separator and may meet the close.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, opened: false }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    /// The type of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn null(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.literal("null")
    }

    fn bool(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads a number. Out-of-range magnitudes saturate as
    /// `str::parse::<f64>` does (`1e999` reads as infinity).
    pub fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let digits = |reader: &mut Self| {
            while matches!(reader.byte(), Some(c) if c.is_ascii_digit()) {
                reader.pos += 1;
            }
        };
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.byte() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.error("invalid number"))
    }

    /// Reads a string. One without escapes is borrowed from the input.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut start = self.pos;
        let mut out: Option<String> = None;
        loop {
            // The run of plain characters up to the next quote or
            // backslash. Both are ASCII, so the run ends on a char
            // boundary, and scanning is linear in the string length.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(self.text.len() - self.pos);
            self.pos += run;
            let run = &self.text[start..self.pos];
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.escape(out)?;
                    start = self.pos;
                }
            }
        }
    }

    /// Decodes the escape sequence at the cursor (a backslash) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.pos += 1;
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                // Combine a UTF-16 surrogate pair if present.
                let c = if (0xd800..0xdc00).contains(&unit) {
                    if self.text[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        // A high surrogate followed by anything but a low
                        // one is invalid (and must not underflow below).
                        (0xdc00..0xe000)
                            .contains(&low)
                            .then(|| {
                                0x10000 + ((unit as u32 - 0xd800) << 10) + (low as u32 - 0xdc00)
                            })
                            .and_then(char::from_u32)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(unit as u32)
                };
                out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                return Ok(()); // hex4 advanced past the digits
            }
            _ => return Err(self.error("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        if self.pos + 4 > self.text.len() {
            return Err(self.error("truncated unicode escape"));
        }
        // Four bytes that cut a multi-byte character are no hex digits.
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        let unit =
            u16::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// Consumes the `[` of an array; read its elements with
    /// [`Reader::next_item`].
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'[')?;
        self.opened = true;
        Ok(())
    }

    /// Moves to the next element of the array being read: true when one
    /// follows (read it next), false past the closing `]`.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        match self.byte() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error("expected ',' or ']'")),
        }
    }

    /// Consumes the `{` of an object; read its members with
    /// [`Reader::next_key`].
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.opened = true;
        Ok(())
    }

    /// Moves to the next member of the object being read: its key (read
    /// the value next), or `None` past the closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        match self.byte() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => self.pos += 1,
            _ => return Err(self.error("expected ',' or '}'")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the next value if it is a number; otherwise skips it.
    pub fn number_or_skip(&mut self) -> Result<Option<f64>, ParseError> {
        match self.peek()? {
            Kind::Number => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads the next value if it is a string; otherwise skips it.
    pub fn string_or_skip(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        match self.peek()? {
            Kind::String => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Skips the next value, checking its syntax all the same. Nesting is
    /// tracked on the heap, so no depth of input exhausts the stack.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        // The containers being skipped, innermost last; true for objects.
        let mut open: Vec<bool> = Vec::new();
        loop {
            match self.peek()? {
                Kind::Null => self.null()?,
                Kind::Bool => {
                    self.bool()?;
                }
                Kind::Number => {
                    self.number()?;
                }
                Kind::String => {
                    self.string()?;
                }
                Kind::Array => {
                    self.begin_array()?;
                    open.push(false);
                }
                Kind::Object => {
                    self.begin_object()?;
                    open.push(true);
                }
            }
            // Close every container that ends here; stop at the next value.
            loop {
                let more = match open.last() {
                    None => return Ok(()),
                    Some(false) => self.next_item()?,
                    Some(true) => self.next_key()?.is_some(),
                };
                if more {
                    break;
                }
                open.pop();
            }
        }
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.bool()?),
            Kind::Number => Json::Num(self.number()?),
            Kind::String => Json::Str(self.string()?.into_owned()),
            Kind::Array => {
                let mut items = Vec::new();
                self.begin_array()?;
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::Object => {
                let mut members = Vec::new();
                self.begin_object()?;
                while let Some(key) = self.next_key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Json::Obj(members)
            }
        })
    }

    /// Checks that only whitespace follows the value read last.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::from("epoch tape")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.125)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("k", Json::from("v"))])),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).expect("parses"), doc);
    }

    #[test]
    fn integral_numbers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "a\"b\\c\nd\te\u{1}f→g";
        let rendered = Json::Str(original.to_string()).render();
        assert_eq!(parse(&rendered).expect("parses").as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogates() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate rejected");
        assert!(parse(r#""\ud83d\u0041""#).is_err(), "high surrogate needs a low one");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate rejected");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "12x", "[1] trailing", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn reader_borrows_plain_strings_and_owns_escaped_ones() {
        let mut reader = Reader::new(r#" [ "plain" , "esc\"aped", "\u00e9" ] "#);
        let mut strings = Vec::new();
        reader.begin_array().unwrap();
        while reader.next_item().unwrap() {
            strings.push(reader.string().unwrap());
        }
        reader.finish().unwrap();
        assert!(matches!(strings[0], Cow::Borrowed("plain")));
        assert!(matches!(&strings[1], Cow::Owned(s) if s == "esc\"aped"));
        assert_eq!(strings[2], "é");
    }

    #[test]
    fn skip_reports_the_errors_parse_reports() {
        for text in [
            "",
            "{",
            "[1,",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{,}",
            "{\"a\":1,}",
            "12x",
            "[1] trailing",
            "nul",
            "-",
            "\"\\q\"",
            "\"\\ud83d\"",
            "\"open",
            "[{\"a\":[true,{\"b\":\"c\"}]},null,-1.5e3]",
        ] {
            let mut reader = Reader::new(text);
            let skipped = reader.skip().and_then(|()| reader.finish());
            assert_eq!(skipped, parse(text).map(drop), "{text:?}");
        }
    }

    #[test]
    fn skip_survives_nesting_deeper_than_the_stack() {
        let depth = 1 << 20;
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        let mut reader = Reader::new(&deep);
        reader.skip().unwrap();
        reader.finish().unwrap();
    }

    #[test]
    fn numbers_saturate_like_str_parse() {
        assert_eq!(parse("1e999").unwrap(), Json::Num(f64::INFINITY));
        assert_eq!(Reader::new("-1e999").number().unwrap(), f64::NEG_INFINITY);
        assert_eq!(exact_u64(42.0), Some(42));
        assert_eq!(exact_u64(-1.0), None);
        assert_eq!(exact_u64(0.5), None);
        assert_eq!(exact_u64(f64::INFINITY), None);
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "t": true}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[1].as_u64(), None);
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn remove_masks_members() {
        let mut doc = parse(r#"{"keep": 1, "drop": 2}"#).unwrap();
        doc.remove("drop");
        assert_eq!(doc.render(), r#"{"keep":1}"#);
    }

    /// `write_number` must print what `{}` prints: the oracle, with the
    /// two documented departures (`null` for non-finite values, `0` for
    /// negative zero).
    fn assert_writes_like_fmt(n: f64, got: &mut String, want: &mut String) {
        use std::fmt::Write as _;
        got.clear();
        want.clear();
        write_number(n, got);
        if !n.is_finite() {
            want.push_str("null");
        } else if n == 0.0 {
            want.push('0');
        } else {
            write!(want, "{n}").unwrap();
        }
        assert_eq!(got, want, "bits {:#018x}", n.to_bits());
    }

    /// SplitMix64, for the number writer's random inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn numbers_write_like_fmt_on_every_class_edge() {
        let mut edges = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            0.5,
            0.125,
            // A tie between two shortest candidates: 2^50 + 1/4.
            (1u64 << 50) as f64 + 0.25,
            123456789.125,
            9007199254740993.0,
            f64::NAN,
            f64::INFINITY,
        ];
        // Every power of two, normal and subnormal.
        edges.extend((0..=1074).map(|k| f64::from_bits(1) * 2f64.powi(k)));
        // Every power of ten a double reaches.
        edges.extend((-323..=308).map(|k| format!("1e{k}").parse::<f64>().unwrap()));
        // Integers around 2^53 and round integers up to 1e308.
        let two53 = (1u64 << 53) as f64;
        edges.extend((-4..=4).map(|k| two53 + 2.0 * k as f64));
        edges.extend((1..=308).map(|k| 3.0 * 10f64.powi(k)));
        edges.extend((15..=22).map(|k| 10f64.powi(k) + 1.0));
        // Each value's neighbours, and every value negated.
        let neighbours: Vec<f64> = edges
            .iter()
            .filter(|n| n.is_finite() && **n != 0.0)
            .flat_map(|n| {
                [
                    f64::from_bits(n.to_bits() - 1),
                    f64::from_bits(n.to_bits() + 1),
                ]
            })
            .collect();
        edges.extend(neighbours);
        let negated: Vec<f64> = edges.iter().map(|n| -n).collect();
        edges.extend(negated);
        let (mut got, mut want) = (String::new(), String::new());
        for n in edges {
            assert_writes_like_fmt(n, &mut got, &mut want);
        }
    }

    #[test]
    fn numbers_write_like_fmt_on_random_bit_patterns() {
        let (mut got, mut want) = (String::new(), String::new());
        let mut state = 0x5eed;
        for _ in 0..1 << 20 {
            assert_writes_like_fmt(f64::from_bits(splitmix(&mut state)), &mut got, &mut want);
        }
    }

    #[test]
    fn numbers_write_like_fmt_on_random_wire_values() {
        let (mut got, mut want) = (String::new(), String::new());
        let mut state = 0x31e;
        for i in 0..1 << 20 {
            let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            // Signature counters (cycles ~1e7), latencies, fractions,
            // slowdowns of either sign, and Best-shot ratios.
            let n = match i % 6 {
                0 => 5e6 + unit * 2e7,
                1 => 150.0 + unit * 500.0,
                2 => unit,
                3 => (unit - 0.25) * 4.0,
                4 => unit * 10f64.powi(i % 40 - 20),
                _ => (i % 101) as f64 / 100.0,
            };
            assert_writes_like_fmt(n, &mut got, &mut want);
        }
    }

    #[test]
    fn strings_escape_every_class_at_every_position() {
        let escapes = [
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("\r", "\\r"),
            ("\t", "\\t"),
            ("\u{0}", "\\u0000"),
            ("\u{8}", "\\u0008"),
            ("\u{1f}", "\\u001f"),
        ];
        for (raw, escaped) in escapes {
            for (text, want) in [
                (raw.to_string(), escaped.to_string()),
                (format!("{raw}ab"), format!("{escaped}ab")),
                (format!("ab{raw}"), format!("ab{escaped}")),
                (format!("a→{raw}é"), format!("a→{escaped}é")),
                (format!("{raw}{raw}"), format!("{escaped}{escaped}")),
                (format!("x{raw}\"y"), format!("x{escaped}\\\"y")),
            ] {
                let mut out = String::new();
                write_string(&text, &mut out);
                assert_eq!(out, format!("\"{want}\""), "{text:?}");
                assert_eq!(parse(&out).unwrap().as_str(), Some(text.as_str()));
            }
        }
        let mut out = String::new();
        write_string("plain → text", &mut out);
        assert_eq!(out, "\"plain → text\"");
    }
}
