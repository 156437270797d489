//! The one binary codec for every byte string that crosses the trust
//! boundary: protocol messages, WAL/MANIFEST/Clog records, SSTable footers,
//! counter messages and sealed enclave state.
//!
//! Integers are fixed-width little-endian; a byte string, a string or a
//! sequence is a `u32` length (a count, for sequences) followed by its
//! contents; an enum is a `u8` variant tag followed by the variant's fields
//! in declaration order; `Option` and `bool` are a `0`/`1` byte. A `usize`
//! is a `u64` on the wire. Every type declares its format once, next to the
//! type, with [`codec!`](crate::codec!): its fields in wire order, or each
//! variant's tag and fields, from which both [`Encode`] and [`Decode`] are
//! generated, so the wire format is what that line says (DESIGN.md, "The
//! wire and log format"). Two types keep a hand-written pair because their
//! decoders check more than the shape: `BloomFilter` refuses a filter
//! `BloomFilter::new` never builds, and `ObsSnapshotReply` refuses a
//! `backpressure` byte above 2.
//!
//! Decoding never panics and never trusts a length: a prefix is checked
//! against the bytes that are actually left *before* anything is allocated,
//! and each top-level record is one magic+version byte, its value, and
//! nothing after it ([`Reader::finish`]). The encoding is canonical — a
//! value has exactly one encoding — so any input a decoder accepts
//! re-encodes to itself byte for byte.

/// Why a byte string is not an encoding of the type asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, thiserror::Error)]
pub enum CodecError {
    /// The input ended inside a field, or a length prefix claims more
    /// bytes than are left.
    #[error("truncated encoding")]
    Truncated,
    /// A complete value was followed by more bytes.
    #[error("trailing bytes after a complete encoding")]
    Trailing,
    /// The record does not start with its class's magic+version byte.
    #[error("record magic {found:#04x}, expected {expected:#04x}")]
    Magic {
        /// The class's magic+version byte.
        expected: u8,
        /// The byte the input starts with.
        found: u8,
    },
    /// A tag, flag or field value no encoder produces.
    #[error("invalid {0}")]
    Invalid(&'static str),
}

/// Appends fields to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width bytes with no length prefix (digests, nonces).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// A `u32` length or count.
    ///
    /// # Panics
    ///
    /// Above `u32::MAX`, which no encoding holds: whatever a node
    /// re-encodes was decoded from a `u32` length.
    pub fn prefix(&mut self, n: usize) {
        assert!(
            n <= u32::MAX as usize,
            "length {n} does not fit a u32 prefix"
        );
        self.raw(&(n as u32).to_le_bytes());
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.prefix(v.len());
        self.raw(v);
    }

    /// The encoding so far.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fields off a borrowed buffer, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer are left.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer are left.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.raw(N)?);
        Ok(out)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u32` length or count, checked against the bytes left: every
    /// encoding this codec reads is at least one byte long, so a count
    /// above that is a lie, and is refused before anything is allocated.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix claims more than is left.
    pub fn prefix(&mut self) -> Result<usize, CodecError> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed byte string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix claims more than is left.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.prefix()?;
        self.raw(n)
    }

    /// Checks the class's magic+version byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Magic`] if the input starts with another byte.
    pub fn magic(&mut self, expected: u8) -> Result<(), CodecError> {
        match self.u8()? {
            found if found == expected => Ok(()),
            found => Err(CodecError::Magic { expected, found }),
        }
    }

    /// Ends the record.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`] if bytes are left.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }
}

/// A type with a wire form.
pub trait Encode {
    /// Appends this value's encoding.
    fn encode(&self, w: &mut Writer);
}

/// A type that can be read back from its wire form.
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for any input that is not an encoding of `Self`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// A top-level record class: its encoding is [`Record::MAGIC`] followed by
/// the value and nothing else.
pub trait Record: Encode + Decode {
    /// Magic+version byte: the high nibble names the class, the low nibble
    /// its format version.
    const MAGIC: u8;

    /// The record's bytes.
    fn to_bytes(&self) -> Vec<u8> {
        to_bytes(Self::MAGIC, self)
    }

    /// Reads a whole record.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for a wrong magic byte, a malformed value or
    /// trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        from_bytes(Self::MAGIC, bytes)
    }
}

/// `magic` followed by `v`'s encoding — for a class whose values are of
/// several types (the protocol messages, where the request code says
/// which).
pub fn to_bytes<T: Encode + ?Sized>(magic: u8, v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(magic);
    v.encode(&mut w);
    w.into_vec()
}

/// Reads a whole record written by [`to_bytes`] with the same `magic`.
///
/// # Errors
///
/// A [`CodecError`] for a wrong magic byte, a malformed value or trailing
/// bytes.
pub fn from_bytes<T: Decode>(magic: u8, bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    r.magic(magic)?;
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.raw(&self.to_le_bytes());
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(r.array()?))
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.raw(&self.to_le_bytes());
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(r.array()?))
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CodecError::Invalid("usize"))
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.raw(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.array()
    }
}

/// A byte string: length and raw bytes, one copy each way.
impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.bytes()?.to_vec())
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::from_utf8(Vec::decode(r)?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

/// A sequence: count, then each element. (`u8` has no [`Encode`] of its
/// own, so a `Vec<u8>` is always the byte string above.)
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.prefix(self.len());
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.prefix()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Implements [`Encode`] and [`Decode`] for a type from one list of its
/// fields in wire order, or of its variants with their tags:
///
/// ```
/// use treaty_crypto::codec;
/// use treaty_crypto::codec::{CodecError, Decode, Reader};
///
/// #[derive(Debug, PartialEq)]
/// struct WriteOp { key: Vec<u8>, value: Option<Vec<u8>> }
/// codec!(struct WriteOp { key, value });
///
/// #[derive(Debug, PartialEq)]
/// enum Reply { Done(u64), Vote { yes: bool }, Ack }
/// codec!(enum Reply { 0 => Done(result), 1 => Vote { yes }, 2 => Ack });
///
/// let op = WriteOp { key: b"k".to_vec(), value: None };
/// assert_eq!(codec::to_bytes(0x10, &op), [0x10, 1, 0, 0, 0, b'k', 0]);
/// assert_eq!(codec::to_bytes(0x10, &Reply::Vote { yes: true }), [0x10, 1, 1]);
/// assert_eq!(
///     Reply::decode(&mut Reader::new(&[3])),
///     Err(CodecError::Invalid("Reply tag"))
/// );
/// ```
///
/// A struct is its fields in the order listed. An enum variant is its
/// `u8` tag, then its fields in the order listed; a variant is a unit, a
/// one-field tuple (named by any identifier) or a named-field variant. A
/// tag no variant lists is `CodecError::Invalid("<Type> tag")`.
///
/// The compiler holds the list to the type: a field or variant left out
/// does not compile, and neither does a tag listed twice.
///
/// ```compile_fail,E0063
/// # use treaty_crypto::codec;
/// struct OpFailure { index: u32, reason: String }
/// codec!(struct OpFailure { index });
/// ```
///
/// ```compile_fail,E0081
/// # use treaty_crypto::codec;
/// enum PeerReply { Ack, Vote { yes: bool } }
/// codec!(enum PeerReply { 0 => Ack, 0 => Vote { yes } });
/// ```
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Encode::encode(&self.$field, w);)*
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                $(let $field = $crate::codec::Decode::decode(r)?;)*
                ::core::result::Result::Ok($ty { $($field),* })
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident
            $(($inner:ident))?
            $({ $($field:ident),* $(,)? })?
        ),* $(,)?
    }) => {
        // The tags are the discriminants of a throwaway enum, so a tag
        // listed twice is E0081.
        const _: () = {
            #[allow(dead_code)]
            #[repr(u8)]
            enum Tags {
                $($variant = $tag,)*
            }
        };

        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        w.u8($tag);
                        $($crate::codec::Encode::encode($inner, w);)?
                        $($($crate::codec::Encode::encode($field, w);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $($tag => {
                        $(let $inner = $crate::codec::Decode::decode(r)?;)?
                        $($(let $field = $crate::codec::Decode::decode(r)?;)*)?
                        $ty::$variant $(($inner))? $({ $($field),* })?
                    })*
                    _ => {
                        return ::core::result::Result::Err($crate::codec::CodecError::Invalid(
                            ::core::concat!(::core::stringify!($ty), " tag"),
                        ))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u8 = 0xF1;

    type Sample = Vec<(Vec<u8>, Option<(u64, bool)>)>;

    fn sample() -> Sample {
        vec![
            (b"key".to_vec(), Some((7, true))),
            (Vec::new(), None),
            (vec![0xFF; 3], Some((u64::MAX, false))),
        ]
    }

    #[test]
    fn layout_is_little_endian_and_length_prefixed() {
        let bytes = to_bytes(MAGIC, &(5u32, b"ab".to_vec()));
        assert_eq!(bytes, [MAGIC, 5, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
        let s = to_bytes(MAGIC, &Some("hi".to_string()));
        assert_eq!(s, [MAGIC, 1, 2, 0, 0, 0, b'h', b'i']);
    }

    #[test]
    fn roundtrip_and_exact_framing() {
        let v = sample();
        let bytes = to_bytes(MAGIC, &v);
        assert_eq!(from_bytes::<Sample>(MAGIC, &bytes), Ok(v));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Sample>(MAGIC, &bytes[..cut]).is_err(), "{cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            from_bytes::<Sample>(MAGIC, &long),
            Err(CodecError::Trailing)
        );
        assert_eq!(
            from_bytes::<Sample>(MAGIC ^ 1, &bytes),
            Err(CodecError::Magic {
                expected: MAGIC ^ 1,
                found: MAGIC
            })
        );
    }

    #[test]
    fn flags_and_tags_are_strict() {
        assert_eq!(
            from_bytes::<bool>(MAGIC, &[MAGIC, 2]),
            Err(CodecError::Invalid("bool"))
        );
        assert_eq!(
            from_bytes::<Option<u32>>(MAGIC, &[MAGIC, 2]),
            Err(CodecError::Invalid("option tag"))
        );
        assert_eq!(
            from_bytes::<String>(MAGIC, &[MAGIC, 1, 0, 0, 0, 0xFF]),
            Err(CodecError::Invalid("utf-8 string"))
        );
    }

    #[test]
    fn a_huge_length_is_refused_before_allocating() {
        let mut lie = vec![MAGIC];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            from_bytes::<Vec<u8>>(MAGIC, &lie),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            from_bytes::<Vec<Vec<u8>>>(MAGIC, &lie),
            Err(CodecError::Truncated)
        );
    }
}
