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
//!
//! # Declaring a wire type
//!
//! A wire type's codec is declared once, in a [`wire!`](crate::wire) table:
//! a struct is its fields in wire order (a newtype `struct K(field)`), an
//! enum one `tag => Variant` row per variant, naming that variant's fields.
//! A field marked `: seq` is a `Vec` of encodable items and goes through
//! [`encode_seq`] / [`decode_seq`] (count prefix, capacity capped). The table
//! generates [`Encode`] with an exact `encoded_len`, [`Decode`] (an unknown
//! tag is [`CodecError::InvalidTag`]) and, for an enum, [`Tagged::TAGS`].
//!
//! ```
//! use dcert_primitives::codec::{Decode, Encode, Tagged};
//!
//! #[derive(Debug, PartialEq)]
//! enum Msg { Ping, Page(Vec<u8>), Ask { from: u64, to: Vec<u64> } }
//!
//! dcert_primitives::wire! {
//!     enum Msg { 0 => Ping, 1 => Page(bytes), 3 => Ask { from, to: seq } }
//! }
//!
//! let msg = Msg::Ask { from: 1, to: vec![9] };
//! assert_eq!(Msg::decode_all(&msg.to_encoded_bytes())?, msg);
//! assert_eq!(Msg::TAGS, &[(0, "Ping"), (1, "Page"), (3, "Ask")]);
//! # Ok::<(), dcert_primitives::CodecError>(())
//! ```
//!
//! A codec stays hand-written only where its bytes are not such a table:
//! the base impls below, the fixed-width `Hash`, `Address`, `PublicKey`,
//! `Signature` and `Vec<Hash>`, `SmtProof` (runs merge on the wire), the
//! B-tree's `Shape<F>` (its tags are offset by the flavor's `OP_TAG`),
//! `BlockHeader` (its prefix is the sealing-digest preimage), and the
//! reference program's messages in `world::naive` (kept independent of the
//! codec it checks).

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::CodecError;

/// Maximum length accepted for any length-prefixed collection (64 MiB of
/// elements). Prevents memory-exhaustion on malformed input.
pub const MAX_LEN: u64 = 1 << 26;

/// The most items a decoder reserves room for before it has decoded them
/// ([`Reader::presize_cap`]); a longer collection grows as its items
/// arrive.
pub const MAX_PRESIZE: usize = 1024;

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

    /// The most items of at least `min_len` encoded bytes each a decoder
    /// reserves room for before decoding them: what the unread input can
    /// hold, and no more than [`MAX_PRESIZE`]. A decoder presizes to the
    /// count its frame declares, clamped to this, so a count that lies
    /// reserves no more; its items decode (or fail) all the same.
    pub fn presize_cap(&self, min_len: usize) -> usize {
        (self.input.len() / min_len.max(1)).min(MAX_PRESIZE)
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

    /// Returns the canonical encoding as a fresh byte vector, allocated
    /// once at its [`Encode::encoded_len`].
    fn to_encoded_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Returns the size of the canonical encoding in bytes, exactly and
    /// without encoding: what [`Encode::to_encoded_bytes`] reserves, and
    /// what the benchmark harness reports as storage and proof sizes.
    fn encoded_len(&self) -> usize;
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

// The base impls stay hand-written: every table's fields bottom out in them.
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

/// `usize` travels as a `u64`; a value this platform cannot hold is refused.
impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        u64::try_from(*self).unwrap_or(u64::MAX).encode(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let wide = u64::decode(r)?;
        usize::try_from(wide).map_err(|_| CodecError::LengthOverflow(wide))
    }
}

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

/// Writes a `u32` length prefix. A length past `u32::MAX` saturates, which
/// the decoder refuses ([`MAX_LEN`]), where a cast would wrap it to a short
/// prefix that decodes.
fn encode_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len).unwrap_or(u32::MAX).encode(out);
}

impl Encode for [u8] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
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

/// A reference encodes as what it points at.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// Text travels as a `String` does and decodes owned: `==` the one encoded.
impl Encode for Cow<'_, str> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for Cow<'static, str> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::decode(r).map(Cow::Owned)
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

/// A shared byte string travels as a `Vec<u8>` does.
impl Encode for Arc<[u8]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl Decode for Arc<[u8]> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len()?;
        Ok(Arc::from(r.take(len)?))
    }
}

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
    encode_len(items.len(), out);
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
    let mut out = Vec::with_capacity(len.min(r.presize_cap(1)));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// The tag table of an enum declared with [`wire!`](crate::wire).
pub trait Tagged {
    /// `(tag, variant)` per row of the declaration, in its order.
    const TAGS: &'static [(u8, &'static str)];
}

/// Declares the codec of one or more wire types; see the
/// [module documentation](crate::codec#declaring-a-wire-type).
///
/// An enum may end with one `host_only tag => A | B` clause: those variants
/// all encode as `tag`, and decoding `tag` is refused.
#[macro_export]
macro_rules! wire {
    () => {};
    (@encode $out:ident, $f:ident: seq) => { $crate::codec::encode_seq($f, $out) };
    (@encode $out:ident, $f:ident) => { $crate::codec::Encode::encode($f, $out) };
    (@len $f:ident: seq) => { $crate::codec::seq_encoded_len($f) };
    (@len $f:ident) => { $crate::codec::Encode::encoded_len($f) };
    (@decode $r:ident, $f:ident: seq) => { $crate::codec::decode_seq($r)? };
    (@decode $r:ident, $f:ident) => { $crate::codec::Decode::decode($r)? };
    (@impls ($($gen:tt)*) $name:ident ($($args:tt)*)
        encode($this:ident, $out:ident) $encode:block
        encoded_len($this_len:ident) $len:block
        decode($r:ident) $decode:block
    ) => {
        impl $($gen)* $crate::codec::Encode for $name $($args)* {
            fn encode(&self, $out: &mut ::std::vec::Vec<u8>) {
                let $this = self;
                $encode
            }
            fn encoded_len(&self) -> usize {
                let $this_len = self;
                $len
            }
        }
        impl $($gen)* $crate::codec::Decode for $name $($args)* {
            fn decode($r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::CodecError> {
                $decode
            }
        }
    };
    (struct $name:ident $(<$($g:ident: $bound:path),+>)?
        { $($f:ident $(: $k:ident)?),+ $(,)? } $($rest:tt)*
    ) => {
        $crate::wire!(@impls ($(<$($g: $bound),+>)?) $name ($(<$($g),+>)?)
            encode(this, out) {
                let Self { $($f),+ } = this;
                $($crate::wire!(@encode out, $f $(: $k)?);)+
            }
            encoded_len(this) {
                let Self { $($f),+ } = this;
                let mut len = 0;
                $(len += $crate::wire!(@len $f $(: $k)?);)+
                len
            }
            decode(r) {
                Ok(Self { $($f: $crate::wire!(@decode r, $f $(: $k)?)),+ })
            }
        );
        $crate::wire!($($rest)*);
    };
    (struct $name:ident ($f:ident) $($rest:tt)*) => {
        $crate::wire!(@impls () $name ()
            encode(this, out) { $crate::codec::Encode::encode(&this.0, out) }
            encoded_len(this) { $crate::codec::Encode::encoded_len(&this.0) }
            decode(r) { Ok(Self($crate::codec::Decode::decode(r)?)) }
        );
        $crate::wire!($($rest)*);
    };
    (enum $name:ident $(<$($g:ident: $bound:path),+>)? {
        $($tag:literal => $v:ident
            $(($($tf:ident $(: $tk:ident)?),+))?
            $({$($sf:ident $(: $sk:ident)?),+ $(,)?})?
        ),+
        $(, host_only $host:literal => $($hv:ident)|+)?
        $(,)?
    } $($rest:tt)*) => {
        $crate::wire!(@impls ($(<$($g: $bound),+>)?) $name ($(<$($g),+>)?)
            encode(this, out) {
                match this {
                    $(Self::$v $(($($tf),+))? $({$($sf),+})? => {
                        out.push($tag);
                        $($($crate::wire!(@encode out, $tf $(: $tk)?);)+)?
                        $($($crate::wire!(@encode out, $sf $(: $sk)?);)+)?
                    })+
                    $($(Self::$hv { .. })|+ => out.push($host),)?
                }
            }
            encoded_len(this) {
                match this {
                    $(Self::$v $(($($tf),+))? $({$($sf),+})? => {
                        1 $($(+ $crate::wire!(@len $tf $(: $tk)?))+)?
                            $($(+ $crate::wire!(@len $sf $(: $sk)?))+)?
                    })+
                    $($(Self::$hv { .. })|+ => 1,)?
                }
            }
            decode(r) {
                match r.take_byte()? {
                    $($tag => Ok(Self::$v
                        $(($($crate::wire!(@decode r, $tf $(: $tk)?)),+))?
                        $({$($sf: $crate::wire!(@decode r, $sf $(: $sk)?)),+})?
                    ),)+
                    $($host => Err($crate::error::CodecError::Invalid("host-only error".into())),)?
                    other => Err($crate::error::CodecError::InvalidTag(other)),
                }
            }
        );
        impl $(<$($g: $bound),+>)? $crate::codec::Tagged for $name $(<$($g),+>)? {
            const TAGS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($v))),+];
        }
        $crate::wire!($($rest)*);
    };
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
        let wide: (usize, &u64) = (usize::MAX, &7);
        assert_eq!(wide.encoded_len(), wide.to_encoded_bytes().len());
    }

    #[test]
    fn cow_text_is_exact_and_encodes_as_its_string() {
        for text in ["", "history", "a name longer than sixteen bytes"] {
            let owned = Cow::<'static, str>::Owned(text.to_owned());
            for cow in [Cow::Borrowed(text), owned.clone()] {
                let bytes = cow.to_encoded_bytes();
                assert_eq!(cow.encoded_len(), bytes.len());
                assert_eq!(bytes, text.to_owned().to_encoded_bytes());
                assert_eq!(Cow::<'static, str>::decode_all(&bytes), Ok(owned.clone()));
            }
        }
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

    /// A declared struct, tuple struct and sparse-tagged enum (tags 0, 2,
    /// 3 and a host-only 0xff, like `ProofOp` and `CertError`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Page {
        height: u64,
        name: String,
        rows: Vec<(u32, bool)>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Id(u64);

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Op {
        Push(Page, Id),
        Parent,
        Child { depth: u8, path: Vec<Id> },
        Lost,
    }

    crate::wire! {
        struct Page { height, name, rows: seq }
        struct Id(id)
        enum Op {
            0 => Push(page, id),
            2 => Parent,
            3 => Child { depth, path: seq },
            host_only 0xff => Lost,
        }
    }

    fn ops() -> Vec<Op> {
        let page = Page {
            height: 9,
            name: "p".to_owned(),
            rows: vec![(1, true), (2, false)],
        };
        vec![
            Op::Push(page, Id(4)),
            Op::Parent,
            Op::Child {
                depth: 3,
                path: vec![Id(1), Id(u64::MAX)],
            },
        ]
    }

    #[test]
    fn declared_types_round_trip_with_exact_lengths() {
        for op in ops() {
            let bytes = op.to_encoded_bytes();
            assert_eq!(op.encoded_len(), bytes.len(), "{op:?}");
            assert_eq!(Op::decode_all(&bytes), Ok(op));
        }
        let id = Id(7);
        assert_eq!(id.to_encoded_bytes(), 7u64.to_encoded_bytes());
        assert_eq!(Id::decode_all(&id.to_encoded_bytes()), Ok(id));
        assert_eq!(Op::Parent.to_encoded_bytes(), [2]);
    }

    #[test]
    fn unknown_and_host_only_tags_are_refused() {
        for tag in [1, 4, 0xfe] {
            assert_eq!(Op::decode_all(&[tag]), Err(CodecError::InvalidTag(tag)));
        }
        assert_eq!(Op::Lost.to_encoded_bytes(), [0xff]);
        assert_eq!(Op::Lost.encoded_len(), 1);
        assert_eq!(
            Op::decode_all(&[0xff]),
            Err(CodecError::Invalid("host-only error".into()))
        );
    }

    #[test]
    fn every_truncation_of_a_declared_type_is_refused() {
        for op in ops() {
            let bytes = op.to_encoded_bytes();
            for cut in 0..bytes.len() {
                assert!(Op::decode_all(&bytes[..cut]).is_err(), "{op:?} at {cut}");
            }
        }
    }

    #[test]
    fn tag_rows_are_pairwise_distinct() {
        assert_eq!(Op::TAGS, &[(0, "Push"), (2, "Parent"), (3, "Child")]);
        for (i, (tag, name)) in Op::TAGS.iter().enumerate() {
            for (other_tag, other) in Op::TAGS.iter().skip(i + 1) {
                assert_ne!(tag, other_tag, "{name} and {other} share a tag");
            }
        }
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
