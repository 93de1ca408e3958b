//! Fixture: R1 must fire on enclave-secret identifiers outside the
//! trusted modules. Scanned by the linter's self-tests, never compiled.
#![allow(unused)]

// Importing the trusted-program traits enables an ECall bypass.
use dcert_sgx::{TrustedApp, Sealable};

struct Operator;

impl Operator {
    fn steal_key(&self, kp: &dcert_primitives::keys::Keypair) -> SecretSeed {
        kp.to_secret_bytes()
    }
    fn poke_state(&self, app: &mut AppHandle, bytes: &[u8]) {
        app.import_state(bytes);
    }
}

// A host seed keying an enclave: the host would hold `sk_enc`.
fn seeded(program: CertProgram) -> CertProgram {
    program.with_signing_seed([7; 32])
}
