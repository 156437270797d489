//! JSON text as `serde_json` writes it by default: structs are objects in
//! field order, enums are externally tagged (`"Unit"`, `{"Variant":…}`),
//! sequences, tuples and byte vectors are arrays of numbers, `None` is
//! `null`, and there is no whitespace. The cost model charges wire and log
//! bytes, so the byte counts have to be the published crate's.

use std::fmt;

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Appends `s` as a JSON string, escaped the way `serde_json` escapes.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0c => out.extend_from_slice(b"\\f"),
            0..=0x1f => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Appends a non-negative integer in decimal. (Bytes of a `Vec<u8>`, the
/// hot path, go through [`write_byte_array`] instead.)
pub fn write_unsigned(out: &mut Vec<u8>, mut v: u128) {
    let mut buf = [0u8; 39];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// `"0,"` … `"255,"` and the length of each.
const fn byte_texts() -> [([u8; 4], u8); 256] {
    let mut table = [([0u8; 4], 0u8); 256];
    let mut b = 0;
    while b < 256 {
        let digits = [
            b'0' + (b / 100) as u8,
            b'0' + (b / 10 % 10) as u8,
            b'0' + (b % 10) as u8,
        ];
        let skip = if b >= 100 {
            0
        } else if b >= 10 {
            1
        } else {
            2
        };
        let mut text = [b','; 4];
        let mut i = skip;
        while i < 3 {
            text[i - skip] = digits[i];
            i += 1;
        }
        table[b] = (text, (4 - skip) as u8);
        b += 1;
    }
    table
}

static BYTE_TEXTS: [([u8; 4], u8); 256] = byte_texts();

/// Appends `bytes` as an array of numbers, the way `serde_json` writes a
/// `Vec<u8>`.
pub fn write_byte_array(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(4 * bytes.len() + 2);
    out.push(b'[');
    for &b in bytes {
        let (text, len) = &BYTE_TEXTS[usize::from(b)];
        out.extend_from_slice(&text[..usize::from(*len)]);
    }
    if !bytes.is_empty() {
        out.pop(); // the last element's comma
    }
    out.push(b']');
}

/// Nesting that [`Parser::skip_value`] follows before giving up, as in
/// `serde_json`.
const MAX_DEPTH: usize = 128;

/// A cursor over one JSON document.
pub struct Parser<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> Parser<'de> {
    /// A parser at the start of `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Parser { input, pos: 0 }
    }

    fn err<T>(&self, what: &str) -> Result<T, Error> {
        Err(Error::new(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn expect(&mut self, want: u8) -> Result<(), Error> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", want as char))
        }
    }

    fn literal(&mut self, text: &[u8]) -> Result<(), Error> {
        self.peek();
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(())
        } else {
            self.err(&format!("expected `{}`", String::from_utf8_lossy(text)))
        }
    }

    /// Fails unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("trailing characters"),
        }
    }

    /// Reads `null`.
    pub fn parse_null(&mut self) -> Result<(), Error> {
        self.literal(b"null")
    }

    /// If the next value is `null`, consumes it.
    pub fn take_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.literal(b"null").is_ok()
    }

    /// Reads `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal(b"true").map(|()| true),
            Some(b'f') => self.literal(b"false").map(|()| false),
            _ => self.err("expected a boolean"),
        }
    }

    /// The text of the number at the cursor.
    fn number_text(&mut self) -> Result<&'de str, Error> {
        self.peek();
        let start = self.pos;
        while matches!(
            self.input.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ASCII by construction"))
    }

    /// Reads an integer without sign, fraction or exponent.
    pub fn parse_unsigned(&mut self) -> Result<u128, Error> {
        self.peek();
        let start = self.pos;
        let mut v: u128 = 0;
        while let Some(&d @ b'0'..=b'9') = self.input.get(self.pos) {
            v = match v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u128::from(d - b'0')))
            {
                Some(v) => v,
                None => return self.err("integer out of range"),
            };
            self.pos += 1;
        }
        if start == self.pos || matches!(self.input.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return self.err("expected an unsigned integer");
        }
        Ok(v)
    }

    /// Reads an integer with an optional minus sign.
    pub fn parse_signed(&mut self) -> Result<i128, Error> {
        let text = self.number_text()?;
        text.parse().or_else(|_| self.err("expected an integer"))
    }

    /// Reads any JSON number as a float.
    pub fn parse_f64(&mut self) -> Result<f64, Error> {
        let text = self.number_text()?;
        text.parse().or_else(|_| self.err("expected a number"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.input.get(self.pos..self.pos + 4);
        let v = digits
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match v {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("bad \\u escape"),
        }
    }

    /// Reads a string, resolving escapes.
    pub fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.input.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.input.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let mut cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                if !self.input[self.pos..].starts_with(b"\\u") {
                                    return self.err("lone surrogate");
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("lone surrogate");
                                }
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            }
                            let Some(c) = char::from_u32(cp) else {
                                return self.err("lone surrogate");
                            };
                            out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                0..=0x1f => return self.err("control character in string"),
                _ => out.push(b),
            }
        }
        String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"))
    }

    /// Enters an array. Follow with [`Parser::next_element`] until it
    /// returns `false`.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect(b'[')
    }

    /// Moves to the next array element; `false` once the array has closed.
    /// `first` says whether no element has been read yet.
    pub fn next_element(&mut self, first: bool) -> Result<bool, Error> {
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => self.err("expected `,` or `]`"),
        }
    }

    /// Reads an array of numbers 0..=255: [`Parser::begin_array`],
    /// [`Parser::next_element`] and [`Parser::parse_unsigned`] fused for the
    /// one shape that carries nearly all of the tree's bytes.
    pub fn parse_byte_array(&mut self) -> Result<Vec<u8>, Error> {
        self.begin_array()?;
        // At least two input bytes per element.
        let mut out = Vec::with_capacity((self.input.len() - self.pos).min(1 << 20) / 2);
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.peek();
            let start = self.pos;
            let mut v = 0u32;
            while let Some(&d @ b'0'..=b'9') = self.input.get(self.pos) {
                v = v * 10 + u32::from(d - b'0');
                self.pos += 1;
                if self.pos - start > 3 {
                    return self.err("number out of range for u8");
                }
            }
            if start == self.pos || matches!(self.input.get(self.pos), Some(b'.' | b'e' | b'E')) {
                return self.err("expected an unsigned integer");
            }
            out.push(u8::try_from(v).or_else(|_| self.err("number out of range for u8"))?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    /// Enters an object. Follow with [`Parser::next_key`] until it returns
    /// `None`, reading or skipping one value after each key.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect(b'{')
    }

    /// Moves to the next member and returns its key; `None` once the object
    /// has closed.
    pub fn next_key(&mut self, first: bool) -> Result<Option<String>, Error> {
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            Some(_) if first => {}
            _ => return self.err("expected `,` or `}`"),
        }
        let key = self.parse_string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enters an externally tagged enum: `"Variant"` (no content) or
    /// `{"Variant": content`. Returns the variant name and whether content
    /// follows; if it does, finish with [`Parser::end_enum`].
    pub fn begin_enum(&mut self) -> Result<(String, bool), Error> {
        if self.peek() == Some(b'"') {
            return Ok((self.parse_string()?, false));
        }
        self.expect(b'{')?;
        let variant = self.parse_string()?;
        self.expect(b':')?;
        Ok((variant, true))
    }

    /// Closes the object [`Parser::begin_enum`] opened.
    pub fn end_enum(&mut self) -> Result<(), Error> {
        self.expect(b'}')
    }

    /// Skips one value of any shape (an unknown struct field).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.skip_nested(0)
    }

    fn skip_nested(&mut self, depth: usize) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        match self.peek() {
            Some(b'"') => self.parse_string().map(drop),
            Some(b't' | b'f') => self.parse_bool().map(drop),
            Some(b'n') => self.parse_null(),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    self.skip_nested(depth + 1)?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip_nested(depth + 1)?;
                }
                Ok(())
            }
            _ => self.number_text().map(drop),
        }
    }
}
