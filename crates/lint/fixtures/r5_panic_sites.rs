//! Fixture: R5 must fire on every panic site in a verifier module, each
//! fn a root — and stay silent on the test module at the bottom.
#![allow(unused)]

struct Client { ias: Ias }

impl Client {
    fn attest_bypass(&self, quote: &Quote) -> Report {
        self.ias.attest(&quote).unwrap() // regression: client-side attestation panic
    }

    fn decode(bytes: &[u8]) -> Header {
        Header::decode_all(bytes)
            .expect("malformed header")
    }

    fn dispatch(&self, tag: u8) {
        match tag {
            0 => panic!("bad tag"),
            1 => (),
            _ => unreachable!(),
        }
    }

    fn first_sig(&self, proof: &[Sig], bytes: &[u8]) -> (Sig, Sig) {
        (
            proof[0].clone(),
            // Slicing is indexing too.
            bytes[..4].to_vec(),
        )
    }

    fn shorten(&self, height: u64) -> u32 {
        height as u32
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let w: Option<u8> = Some(1);
        w.unwrap();
        let proof = vec![1u8];
        let _ = proof[0];
    }
}
