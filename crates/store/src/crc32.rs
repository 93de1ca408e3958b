//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the frame
//! checksum guarding every record in a segment file.
//!
//! The implementation is the bitwise (table-free) form: a branchless
//! mask-and-shift per bit. A 256-entry lookup table would be ~8× faster,
//! but building and indexing it cannot be written without slice indexing,
//! which the crate root denies — and at the scale this
//! reproduction stores (kilobytes to megabytes of certified history) the
//! bitwise form is nowhere near the bottleneck. CRC-32 detects all
//! single-bit errors and all burst errors up to 32 bits, which is exactly
//! the torn-write/bit-rot threat model the recovery suite replays.

/// Computes the CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        // The canonical CRC-32 check value: crc32("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flips_change_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let want = crc32(&base);
        for pos in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at {pos}:{bit} undetected");
            }
        }
    }
}
