//! Minimal hexadecimal encoding and decoding.
//!
//! Implemented from scratch so the workspace does not need an extra
//! dependency for something this small. Lower-case output, case-insensitive
//! input.

use crate::error::CodecError;

/// Maps a value in `0..16` to its lower-case hex digit without a table
/// lookup, so the encoder stays free of slice indexing.
const fn digit(nibble: u8) -> char {
    let n = nibble & 0x0f;
    (if n < 10 { b'0' + n } else { b'a' + (n - 10) }) as char
}

/// Encodes `bytes` as a lower-case hexadecimal string.
///
/// ```
/// assert_eq!(dcert_primitives::hex::encode([0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: impl AsRef<[u8]>) -> String {
    let bytes = bytes.as_ref();
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(digit(b >> 4));
        out.push(digit(b & 0x0f));
    }
    out
}

/// Decodes a hexadecimal string (upper- or lower-case) into bytes.
///
/// # Errors
///
/// Returns [`CodecError::Invalid`] if the input has odd length or contains a
/// non-hex character.
///
/// ```
/// assert_eq!(dcert_primitives::hex::decode("DEad").unwrap(), vec![0xde, 0xad]);
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, CodecError> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(CodecError::Invalid("odd-length hex string".into()));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        // Slice patterns keep this free of panicking indexing; chunks of
        // any other width are impossible out of `chunks_exact(2)`.
        let [hi, lo] = pair else {
            return Err(CodecError::Invalid("odd-length hex string".into()));
        };
        out.push((nibble(*hi)? << 4) | nibble(*lo)?);
    }
    Ok(out)
}

fn nibble(c: u8) -> Result<u8, CodecError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CodecError::Invalid("non-hex character".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_empty() {
        assert_eq!(encode([]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn encodes_known_vector() {
        assert_eq!(encode([0x00, 0x01, 0xff, 0x7a]), "0001ff7a");
    }

    #[test]
    fn decodes_mixed_case() {
        assert_eq!(decode("aAbBcC").unwrap(), vec![0xaa, 0xbb, 0xcc]);
    }

    #[test]
    fn rejects_odd_length() {
        assert!(decode("abc").is_err());
    }

    #[test]
    fn rejects_bad_character() {
        assert!(decode("zz").is_err());
    }

    #[test]
    fn round_trips_all_bytes() {
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&all)).unwrap(), all);
    }
}
