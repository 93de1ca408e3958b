//! Canonical binary serialization.
//!
//! Every structure that is hashed, signed, stored, or size-accounted in the
//! framework encodes through this module, guaranteeing a single
//! deterministic byte representation per value. The format is deliberately
//! simple:
//!
//! - fixed-width integers are big-endian,
//! - `bool` is one byte (0/1),
//! - variable-length data (`Vec`, `String`, maps) carries a `u32` big-endian
//!   length prefix,
//! - `Option<T>` is a 0/1 tag byte followed by the value,
//! - fixed-size digests/addresses are raw bytes (no prefix).
//!
//! Canonicality matters for security: if two byte strings decoded to the
//! same value, an adversary could present a "different" block with the same
//! digest. [`Decode`] implementations therefore reject non-minimal or
//! malformed inputs.
//!
//! # Example
//!
//! ```
//! use dcert_primitives::{Encode, Decode};
//!
//! let value: (u64, Vec<u8>) = (7, vec![1, 2, 3]);
//! let bytes = value.to_encoded_bytes();
//! let back = <(u64, Vec<u8>)>::decode_all(&bytes)?;
//! assert_eq!(back, value);
//! # Ok::<(), dcert_primitives::CodecError>(())
//! ```

use crate::error::CodecError;

/// Maximum length accepted for any length-prefixed collection (64 MiB of
/// elements). Prevents memory-exhaustion on malformed input.
pub const MAX_LEN: u64 = 1 << 26;

/// A cursor over input bytes used by [`Decode`] implementations.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Consumes and returns exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.input.len(),
            });
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// Consumes a single byte.
    pub fn take_byte(&mut self) -> Result<u8, CodecError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(CodecError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            })
    }

    /// Consumes a `u32` big-endian length prefix, enforcing [`MAX_LEN`].
    pub fn take_len(&mut self) -> Result<usize, CodecError> {
        let len = u64::from(u32::decode(self)?);
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow(len));
        }
        usize::try_from(len).map_err(|_| CodecError::LengthOverflow(len))
    }
}

/// Serializes a value into the canonical binary format.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Returns the canonical encoding as a fresh byte vector.
    fn to_encoded_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Returns the size of the canonical encoding in bytes.
    ///
    /// Used throughout the benchmark harness to report storage/proof sizes.
    fn encoded_len(&self) -> usize {
        self.to_encoded_bytes().len()
    }
}

/// Deserializes a value from the canonical binary format.
pub trait Decode: Sized {
    /// Decodes a value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must consume the entire input.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if bytes remain after decoding.
    fn decode_all(input: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(input);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(value)
    }
}

macro_rules! impl_codec_uint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                const WIDTH: usize = std::mem::size_of::<$ty>();
                let bytes = r.take(WIDTH)?;
                let fixed: [u8; WIDTH] =
                    bytes.try_into().map_err(|_| CodecError::UnexpectedEof {
                        needed: WIDTH,
                        remaining: 0,
                    })?;
                Ok(<$ty>::from_be_bytes(fixed))
            }
        }
    )*};
}

impl_codec_uint!(u8, u16, u32, u64, u128, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidBool(other)),
        }
    }
}

impl Encode for [u8] {
    fn encode(&self, out: &mut Vec<u8>) {
        // dcert-lint: allow(r2-panic-freedom, reason = "encoder half runs on locally produced data; MAX_LEN (64 MiB) bounds every collection the workspace encodes")
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len()?;
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = Vec::<u8>::decode(r)?;
        String::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            None => 1,
            Some(v) => 1 + v.encoded_len(),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// The unit type occupies no bytes — what lets a generic structure carry
/// an optional field (a `()` or a real value) with one wire format.
impl Encode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

/// Generic `Vec<T>` encoding. `Vec<u8>` has a specialized impl above, so this
/// wrapper type is used for element vectors to avoid overlap.
impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Encodes a slice of encodable elements with a `u32` count prefix.
pub fn encode_seq<T: Encode>(items: &[T], out: &mut Vec<u8>) {
    // dcert-lint: allow(r2-panic-freedom, reason = "encoder half runs on locally produced data; MAX_LEN (64 MiB) bounds every collection the workspace encodes")
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// The number of bytes [`encode_seq`] writes for `items`.
pub fn seq_encoded_len<T: Encode>(items: &[T]) -> usize {
    4 + items.iter().map(Encode::encoded_len).sum::<usize>()
}

/// Decodes a vector of elements with a `u32` count prefix.
///
/// # Errors
///
/// Propagates element decode errors and rejects oversized counts.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = r.take_len()?;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::{check, Gen};

    #[test]
    fn uints_are_big_endian() {
        assert_eq!(0x0102u16.to_encoded_bytes(), vec![1, 2]);
        assert_eq!(0x01020304u32.to_encoded_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bool_rejects_junk() {
        assert!(bool::decode_all(&[1]).unwrap());
        assert!(matches!(
            bool::decode_all(&[2]),
            Err(CodecError::InvalidBool(2))
        ));
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(42);
        let none: Option<u64> = None;
        assert_eq!(
            Option::<u64>::decode_all(&some.to_encoded_bytes()).unwrap(),
            some
        );
        assert_eq!(
            Option::<u64>::decode_all(&none.to_encoded_bytes()).unwrap(),
            none
        );
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert!(matches!(
            Option::<u64>::decode_all(&[7]),
            Err(CodecError::InvalidTag(7))
        ));
    }

    #[test]
    fn decode_all_rejects_trailing() {
        assert!(matches!(
            u8::decode_all(&[1, 2]),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncated_input_errors() {
        assert!(matches!(
            u64::decode_all(&[0, 1, 2]),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut bytes = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut bytes);
        assert!(matches!(
            String::decode_all(&bytes),
            Err(CodecError::InvalidUtf8)
        ));
    }

    #[test]
    fn length_prefix_overflow_rejected() {
        let mut bytes = Vec::new();
        (u32::MAX).encode(&mut bytes);
        assert!(matches!(
            Vec::<u8>::decode_all(&bytes),
            Err(CodecError::LengthOverflow(_))
        ));
    }

    #[test]
    fn seq_round_trip() {
        let items: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        let mut r = Reader::new(&out);
        assert_eq!(decode_seq::<u64>(&mut r).unwrap(), items);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unit_occupies_no_bytes() {
        let pair: (u64, ()) = (7, ());
        assert_eq!(pair.to_encoded_bytes(), 7u64.to_encoded_bytes());
        assert_eq!(<(u64, ())>::decode_all(&pair.to_encoded_bytes()), Ok(pair));
        assert_eq!(().encoded_len(), 0);
    }

    #[test]
    fn encoded_len_matches_bytes() {
        let v: (u64, Vec<u8>) = (9, vec![1, 2, 3, 4, 5]);
        assert_eq!(v.encoded_len(), v.to_encoded_bytes().len());
        let triple: (u8, String, bool) = (1, "abc".to_owned(), true);
        assert_eq!(triple.encoded_len(), triple.to_encoded_bytes().len());
        let some: Option<(u64, Vec<u8>)> = Some((3, vec![9; 7]));
        assert_eq!(some.encoded_len(), some.to_encoded_bytes().len());
        let none: Option<u64> = None;
        assert_eq!(none.encoded_len(), none.to_encoded_bytes().len());
    }

    /// Byte strings of 0..100 bytes (what `proptest` drew for `Vec<u8>`).
    fn bytes(g: &mut Gen) -> Vec<u8> {
        g.vec(0..100, |g| g.any())
    }

    #[test]
    fn prop_u64_round_trip() {
        check("prop_u64_round_trip", 256, |g| {
            let x: u64 = g.any();
            assert_eq!(u64::decode_all(&x.to_encoded_bytes()).unwrap(), x);
        });
    }

    #[test]
    fn prop_bytes_round_trip() {
        check("prop_bytes_round_trip", 256, |g| {
            let v = bytes(g);
            assert_eq!(Vec::<u8>::decode_all(&v.to_encoded_bytes()).unwrap(), v);
        });
    }

    #[test]
    fn prop_string_round_trip() {
        check("prop_string_round_trip", 256, |g| {
            let chars = g.vec(0..64, |g| char::from_u32(g.range(0u32..0x11_0000)));
            let s: String = chars.into_iter().flatten().collect();
            assert_eq!(String::decode_all(&s.to_encoded_bytes()).unwrap(), s);
        });
    }

    #[test]
    fn prop_tuple_round_trip() {
        check("prop_tuple_round_trip", 256, |g| {
            let v: (u32, Vec<u8>, bool) = (g.any(), bytes(g), g.any());
            let back = <(u32, Vec<u8>, bool)>::decode_all(&v.to_encoded_bytes()).unwrap();
            assert_eq!(back, v);
        });
    }

    #[test]
    fn prop_decoding_random_junk_never_panics() {
        check("prop_decoding_random_junk_never_panics", 256, |g| {
            let junk = bytes(g);
            let _ = Vec::<u8>::decode_all(&junk);
            let _ = String::decode_all(&junk);
            let _ = Option::<u64>::decode_all(&junk);
        });
    }
}
