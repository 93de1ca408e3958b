//! dcert-lint fixture (r5, codec declarations): one type declared through
//! `wire!`, one hand-written decoder that only the template calls. Analyzed
//! as `crates/chain/src/block.rs`.

use dcert_primitives::codec::{Decode, Reader};

pub struct Key(u64);

pub struct Header(u8);

dcert_primitives::wire! {
    struct Key(height)
}

impl Decode for Header {
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let bytes = r.0;
        Some(Header(bytes[0]))
    }
}

pub fn read_key(bytes: &[u8]) -> Option<Key> {
    Key::decode(&mut Reader(bytes))
}
