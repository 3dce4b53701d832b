//! The JSON text layer under the stand-in `Serialize` / `Deserialize`
//! traits: a pull parser over a byte slice and the writers for scalars,
//! strings and object keys. `serde_json` re-exports [`Error`].

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// Nesting beyond this is refused, as the published `serde_json` does, so
/// hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl Error {
    /// An error raised by a `Deserialize` impl, not by the text itself.
    pub fn custom(message: impl fmt::Display) -> Self {
        Error { message: message.to_string(), offset: 0 }
    }

    pub fn missing_field(name: &str) -> Self {
        Error::custom(format_args!("missing field `{name}`"))
    }

    pub fn unknown_variant(name: &str) -> Self {
        Error::custom(format_args!("unknown variant `{name}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "{} at byte {}", self.message, self.offset)
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Comma bookkeeping for one object or array being read.
pub struct Seq {
    first: bool,
}

pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        Parser { input, pos: 0, depth: 0 }
    }

    fn error<T>(&self, message: impl fmt::Display) -> Result<T> {
        Err(Error { message: message.to_string(), offset: self.pos + 1 })
    }

    /// Only whitespace may follow the value just read.
    pub fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.error("trailing characters"),
        }
    }

    /// The next byte that is not whitespace, left unread.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\n' | b'\t' | b'\r') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => self.error(format_args!(
                "expected `{}`, found `{}`",
                byte as char,
                (b as char).escape_default()
            )),
            None => self.error(format_args!("expected `{}`, found end of input", byte as char)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.error(format_args!("expected `{word}`"))
        }
    }

    /// Consumes `null` if that is the next value.
    pub fn parse_null(&mut self) -> Result<bool> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    pub fn parse_bool(&mut self) -> Result<bool> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => self.error("expected a boolean"),
        }
    }

    fn number_token(&mut self) -> Result<&'a str> {
        self.peek();
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.input.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.input.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.input[int_start] == b'0') {
            self.pos = start;
            return self.error("expected a number");
        }
        if self.input.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return self.error("expected digits after `.`");
            }
        }
        if matches!(self.input.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.input.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return self.error("expected digits in exponent");
            }
        }
        // The token is ASCII by construction.
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ASCII number token"))
    }

    pub fn parse_u64(&mut self) -> Result<u64> {
        let token = self.number_token()?;
        token.parse().or_else(|_| self.error(format_args!("`{token}` is not a u64")))
    }

    pub fn parse_i64(&mut self) -> Result<i64> {
        let token = self.number_token()?;
        token.parse().or_else(|_| self.error(format_args!("`{token}` is not an i64")))
    }

    pub fn parse_f64(&mut self) -> Result<f64> {
        let token = self.number_token()?;
        token.parse().or_else(|_| self.error(format_args!("`{token}` is not an f64")))
    }

    /// Reads a number as the widest type that holds it exactly.
    pub fn parse_number(&mut self) -> Result<Number> {
        let token = self.number_token()?;
        if let Ok(u) = token.parse::<u64>() {
            Ok(Number::U64(u))
        } else if let Ok(i) = token.parse::<i64>() {
            Ok(Number::I64(i))
        } else {
            token
                .parse()
                .map(Number::F64)
                .or_else(|_| self.error(format_args!("`{token}` is not a number")))
        }
    }

    pub fn parse_string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes, so the result borrows the input.
        loop {
            match self.input.get(self.pos) {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    let s = self.utf8(start, self.pos)?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(b) if *b < 0x20 => return self.error("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(self.utf8(start, self.pos)?);
        loop {
            let run = self.pos;
            while !matches!(self.input.get(self.pos), None | Some(b'"' | b'\\'))
                && self.input[self.pos] >= 0x20
            {
                self.pos += 1;
            }
            out.push_str(self.utf8(run, self.pos)?);
            match self.input.get(self.pos) {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.error("control character in string"),
            }
        }
    }

    fn utf8(&self, from: usize, to: usize) -> Result<&'a str> {
        std::str::from_utf8(&self.input[from..to]).or_else(|_| self.error("invalid UTF-8"))
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char> {
        let Some(&code) = self.input.get(self.pos) else {
            return self.error("unterminated escape");
        };
        self.pos += 1;
        Ok(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&hi) {
                    if !self.input[self.pos..].starts_with(b"\\u") {
                        return self.error("lone leading surrogate");
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.error("invalid trailing surrogate");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(scalar) {
                    Some(c) => c,
                    None => return self.error("escape is not a Unicode scalar value"),
                }
            }
            _ => return self.error("unknown escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(digits) = self.input.get(self.pos..self.pos + 4) else {
            return self.error("truncated \\u escape");
        };
        let mut value = 0;
        for &d in digits {
            match (d as char).to_digit(16) {
                Some(h) => value = value * 16 + h,
                None => return self.error("invalid \\u escape"),
            }
        }
        self.pos += 4;
        Ok(value)
    }

    fn enter(&mut self, open: u8) -> Result<Seq> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.error("recursion limit exceeded");
        }
        Ok(Seq { first: true })
    }

    /// Steps to the next member of an object or array; `false` at its end,
    /// which is consumed.
    fn advance(&mut self, seq: &mut Seq, close: u8) -> Result<bool> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !seq.first => {
                self.pos += 1;
                if self.peek() == Some(close) {
                    return self.error("trailing comma");
                }
                Ok(true)
            }
            Some(_) if seq.first => {
                seq.first = false;
                Ok(true)
            }
            _ => self.error(format_args!("expected `,` or `{}`", close as char)),
        }
    }

    pub fn begin_object(&mut self) -> Result<Seq> {
        self.enter(b'{')
    }

    /// The next key of the object, with its `:` consumed, or `None` once
    /// the closing brace has been consumed.
    pub fn next_key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>> {
        if !self.advance(seq, b'}')? {
            return Ok(None);
        }
        let key = self.parse_string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    pub fn begin_array(&mut self) -> Result<Seq> {
        self.enter(b'[')
    }

    /// Whether another element follows; `false` once the closing bracket
    /// has been consumed.
    pub fn next_element(&mut self, seq: &mut Seq) -> Result<bool> {
        self.advance(seq, b']')
    }

    /// After the elements a fixed-size reader wanted: the array must end.
    pub fn end_array(&mut self, seq: &mut Seq) -> Result<()> {
        if self.next_element(seq)? {
            return self.error("too many elements");
        }
        Ok(())
    }

    pub fn skip_value(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'{') => {
                let mut seq = self.begin_object()?;
                while self.next_key(&mut seq)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                let mut seq = self.begin_array()?;
                while self.next_element(&mut seq)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.parse_string().map(drop),
            Some(b't' | b'f') => self.parse_bool().map(drop),
            Some(b'n') => self.literal("null"),
            Some(_) => self.number_token().map(drop),
            None => self.error("expected a value, found end of input"),
        }
    }

    /// For an internally tagged enum: the string under `tag` in the object
    /// that starts here. The parser is left where it was, so the variant
    /// can read the same object and skip the tag as an unknown key.
    pub fn find_tag(&mut self, tag: &str) -> Result<Cow<'a, str>> {
        let start = self.pos;
        let depth = self.depth;
        let mut seq = self.begin_object()?;
        while let Some(key) = self.next_key(&mut seq)? {
            if key == tag {
                let value = self.parse_string()?;
                self.pos = start;
                self.depth = depth;
                return Ok(value);
            }
            self.skip_value()?;
        }
        Err(Error::missing_field(tag))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    if value < 0 {
        out.push(b'-');
    }
    write_u64(out, value.unsigned_abs());
}

/// Shortest text that reads back as the same `f64`, always with a `.` or
/// an exponent; `null` for NaN and the infinities, which JSON cannot hold.
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    if value.is_finite() {
        write!(out, "{value:?}").expect("writing to a Vec cannot fail");
    } else {
        out.extend_from_slice(b"null");
    }
}

pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                out.extend_from_slice(&bytes[run..i]);
                write!(out, "\\u{b:04x}").expect("writing to a Vec cannot fail");
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Writes `,` unless this is the object's first member, then `"name":`.
/// `name` is a field or variant identifier, so it needs no escaping.
pub fn write_key(out: &mut Vec<u8>, first: &mut bool, name: &str) {
    if !std::mem::take(first) {
        out.push(b',');
    }
    out.push(b'"');
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b"\":");
}

/// Writes a map key. JSON keys are strings, so a key that serializes as a
/// number is quoted, as the published `serde_json` does.
pub fn write_map_key<K: crate::Serialize + ?Sized>(out: &mut Vec<u8>, first: &mut bool, key: &K) {
    if !std::mem::take(first) {
        out.push(b',');
    }
    let start = out.len();
    key.serialize_json(out);
    if out[start] != b'"' {
        out.insert(start, b'"');
        out.push(b'"');
    }
    out.push(b':');
}

/// For a newtype variant of an internally tagged enum: `out` holds the
/// opening brace and the tag, then from `start` the variant's content,
/// which must be an object. Joins the two into one object.
pub fn splice_object(out: &mut Vec<u8>, start: usize) {
    assert!(
        out.len() >= start + 2 && out[start] == b'{' && out.last() == Some(&b'}'),
        "an internally tagged newtype variant must serialize as an object"
    );
    if out.len() == start + 2 {
        out.truncate(start);
        out.push(b'}');
    } else {
        out[start] = b',';
    }
}

/// Re-indents compact JSON (no whitespace outside strings) with two
/// spaces, the layout of the published `to_string_pretty`.
pub fn prettify(compact: &[u8]) -> Vec<u8> {
    fn newline(out: &mut Vec<u8>, depth: usize) {
        out.push(b'\n');
        out.resize(out.len() + 2 * depth, b' ');
    }
    let mut out = Vec::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut i = 0;
    while i < compact.len() {
        let b = compact[i];
        match b {
            b'"' => {
                let start = i;
                i += 1;
                while compact[i] != b'"' {
                    i += if compact[i] == b'\\' { 2 } else { 1 };
                }
                out.extend_from_slice(&compact[start..=i]);
            }
            b'{' | b'[' => {
                out.push(b);
                if matches!(compact.get(i + 1), Some(b'}' | b']')) {
                    out.push(compact[i + 1]);
                    i += 1;
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            b'}' | b']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(b);
            }
            b',' => {
                out.push(b);
                newline(&mut out, depth);
            }
            b':' => out.extend_from_slice(b": "),
            _ => out.push(b),
        }
        i += 1;
    }
    out
}
