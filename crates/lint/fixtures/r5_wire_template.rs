//! dcert-lint fixture (r5, codec template): a declared wire type's decoder
//! is the `wire!` template, whose panic site R5 must see, and whose
//! `Decode::decode` call reaches every hand-written decoder. Analyzed as
//! `crates/primitives/src/codec.rs`.

pub struct Reader<'a>(pub &'a [u8]);

pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

#[macro_export]
macro_rules! wire {
    (struct $name:ident ($f:ident)) => {
        impl $crate::codec::Decode for $name {
            fn decode(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some(Self($crate::codec::Decode::decode(r).unwrap()))
            }
        }
    };
}
