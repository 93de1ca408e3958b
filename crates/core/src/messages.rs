//! The ECall boundary protocol, plus the network wire format.
//!
//! Real SGX ECalls marshal opaque byte buffers; the simulated enclave does
//! the same (and charges the cost model by byte), so every request and
//! response here has a canonical binary encoding. The message sizes are the
//! "data passed into the enclave" whose growth drives the enclave-overhead
//! curves of Figures 8–9. What one replay can answer travels in one
//! request: Algorithm 5's block and index certificates are one
//! [`EcallRequest::HierSigGen`], not a request each.
//!
//! The `wire!` table below is the one spelling of a request's field order
//! and tags. Whoever proves a job builds its [`EcallRequest`]; the issuer
//! sets the previous certificates on it and encodes it once, through this
//! codec, into a reused buffer.
//!
//! [`NetMessage`] gets its canonical encoding here too: a real deployment
//! ships certificates as bytes, and the fault-injection layer
//! ([`crate::netsim`]) corrupts traffic at exactly this byte level — a flipped bit either breaks the framing (the receiver
//! drops the message as malformed) or yields a decodable-but-forged
//! message that the client's certificate checks must catch.

use dcert_chain::{Block, BlockHeader};
use dcert_merkle::SmtProof;
use dcert_primitives::codec::{Encode, Tagged};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_vm::StateKey;

use crate::cert::Certificate;
use crate::error::CertError;
use crate::network::NetMessage;
use crate::range::RangeCert;

/// A pre-state read set: `{r}_i` of Algorithm 1.
pub type ReadSet = Vec<(StateKey, Option<Vec<u8>>)>;

/// A write set: `{w}_i` (`None` = deletion).
pub type WriteSet = Vec<(StateKey, Option<Vec<u8>>)>;

/// One link of a batch request: a block with its read set and state
/// proof, validated against the preceding link's (or the batch anchor's)
/// header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLink {
    /// The block `blk_i`.
    pub block: Block,
    /// Its authenticated read set `{r}_i`.
    pub reads: ReadSet,
    /// Its update proof `π_i` against the preceding state root.
    pub state_proof: SmtProof,
}

/// The block-validation inputs shared by Algorithms 2, 4 and 5: everything
/// `blk_verify_t` consumes — one [`BatchLink`] and the anchor it is
/// validated against, so a `SigGen` is a batch of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInput {
    /// The previous block's header `hdr_{i-1}`.
    pub prev_header: BlockHeader,
    /// The previous block's certificate (absent iff parent is genesis).
    pub prev_cert: Option<Certificate>,
    /// The new block `blk_i`, its read set `{r}_i` and its update proof
    /// `π_i` against `prev_header.state_root`.
    pub link: BatchLink,
}

/// The per-index inputs shared by Algorithms 4 and 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInput {
    /// Registered verifier type (e.g. `"history"`, `"inverted"`).
    pub index_type: String,
    /// `H_{i-1}^{idx}`.
    pub prev_digest: Hash,
    /// `cert_{i-1}^{idx}` (absent iff parent is genesis).
    pub prev_cert: Option<Certificate>,
    /// The claimed `H_i^{idx}`.
    pub new_digest: Hash,
    /// Index-specific update proof (`π_i^{idx}`), encoded by the verifier's
    /// companion prover.
    pub aux: Vec<u8>,
}

/// A request crossing into the enclave.
// Variant sizes intentionally differ: requests are built once and
// immediately serialized across the boundary, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcallRequest {
    /// Generate `(sk_enc, pk_enc)` inside the enclave; returns `pk_enc`.
    Init,
    /// Algorithm 2: validate the chain transition and sign `H(hdr_i)`.
    SigGen(BlockInput),
    /// Algorithm 4: validate the chain transition *and* one index update;
    /// sign `H(H(hdr_i) ‖ H_i^{idx})`.
    AugSigGen(BlockInput, IndexInput),
    /// Algorithm 5, in one crossing: validate the chain transition once,
    /// sign `H(hdr_i)`, then validate every index update on the replayed
    /// write set and sign each `H(H(hdr_i) ‖ H_i^{idx})` — answered by
    /// [`EcallResponse::Signatures`], the block's first, then the indexes'
    /// in request order.
    HierSigGen(BlockInput, Vec<IndexInput>),
    /// Batch extension: validate `links` as consecutive chain transitions
    /// from the anchor `(prev_header, prev_cert)` and sign the **last**
    /// header — amortizing the ECall and recursive-verification cost. The
    /// recursive trust argument is unchanged: the final certificate still
    /// vouches for the whole prefix.
    BatchSigGen {
        /// The batch anchor's header.
        prev_header: BlockHeader,
        /// The anchor's certificate (absent iff the anchor is genesis).
        prev_cert: Option<Certificate>,
        /// Consecutive blocks extending the anchor.
        links: Vec<BatchLink>,
    },
    /// Shard-fleet range step: validate `links` as consecutive chain
    /// transitions from an *uncertified* anchor header and sign the range
    /// binding digest (see [`RangeCert`]) over every validated header
    /// digest. Unlike `BatchSigGen`, no anchor certificate exists yet —
    /// anchor authenticity is established later, when the aggregator
    /// chains ranges digest-to-digest.
    RangeSigGen {
        /// The uncertified anchor header (height `first - 1`).
        anchor: BlockHeader,
        /// Consecutive blocks extending the anchor.
        links: Vec<BatchLink>,
    },
    /// Aggregator step: verify the anchor certificate (or genesis digest),
    /// verify and chain the shard [`RangeCert`]s digest-to-digest, then
    /// sign every folded header digest — producing the exact per-height
    /// signatures sequential recursion would have produced.
    FoldRanges {
        /// Header the first range must anchor at.
        anchor: BlockHeader,
        /// The anchor's own certificate (absent iff the anchor is genesis).
        anchor_cert: Option<Certificate>,
        /// Contiguous shard ranges, ordered by height.
        ranges: Vec<RangeCert>,
    },
}

/// A response crossing out of the enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcallResponse {
    /// `Init` succeeded; here is `pk_enc`.
    Initialized(PublicKey),
    /// A signature over the requested digest.
    Signature(Signature),
    /// The trusted program rejected the request: its own typed refusal.
    Rejected(CertError),
    /// One signature per digest the request asked for: per folded header,
    /// ordered by height (`FoldRanges`), or the block's then one per index
    /// (`HierSigGen`).
    Signatures(Vec<Signature>),
}

// --- codec ----------------------------------------------------------------

dcert_primitives::wire! {
    struct BatchLink { block, reads: seq, state_proof }
    struct BlockInput { prev_header, prev_cert, link }
    struct IndexInput { index_type, prev_digest, prev_cert, new_digest, aux }
    enum EcallRequest {
        0 => Init,
        1 => SigGen(input),
        2 => AugSigGen(block, index),
        3 => HierSigGen(block, indexes: seq),
        4 => BatchSigGen { prev_header, prev_cert, links: seq },
        5 => RangeSigGen { anchor, links: seq },
        6 => FoldRanges { anchor, anchor_cert, ranges: seq },
    }
    enum NetMessage {
        0 => Block(block),
        1 => BlockCert { header, cert },
        2 => IndexCert { header, index, digest, cert },
        3 => CertRequest { from, to },
        4 => Shutdown,
        5 => Serve { payload },
    }
    enum EcallResponse {
        0 => Initialized(pk),
        1 => Signature(sig),
        2 => Rejected(reason),
        3 => Signatures(sigs: seq),
    }
}

/// The `AugSigGen` row of the request table, written without building the
/// request. Algorithm 4 sends one such request per index over the same
/// block input, so the issuer encodes each through this function instead.
pub(crate) fn encode_aug_sig_gen(block: &BlockInput, index: &IndexInput, out: &mut Vec<u8>) {
    let tag = EcallRequest::TAGS
        .iter()
        .find(|(_, name)| *name == "AugSigGen");
    out.extend(tag.map(|(tag, _)| *tag));
    block.encode(out);
    index.encode(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::{hash_bytes, Address};
    use dcert_primitives::keys::Keypair;

    fn header() -> BlockHeader {
        BlockHeader {
            height: 1,
            prev_hash: hash_bytes(b"prev"),
            state_root: hash_bytes(b"state"),
            tx_root: Hash::ZERO,
            timestamp: 7,
            miner: Address::from_seed(1),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 2,
                nonce: 3,
            },
        }
    }

    #[test]
    fn init_round_trip() {
        let req = EcallRequest::Init;
        assert_eq!(
            EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
            req
        );
    }

    #[test]
    fn sig_gen_round_trip() {
        let input = BlockInput {
            prev_header: header(),
            prev_cert: None,
            link: BatchLink {
                block: Block {
                    header: header(),
                    txs: Vec::new(),
                },
                reads: vec![(StateKey::new("kv", b"a"), Some(b"1".to_vec()))],
                state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
            },
        };
        let req = EcallRequest::SigGen(input);
        assert_eq!(
            EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
            req
        );
    }

    /// A well-formed certificate (it need not verify: these are codec tests).
    fn sample_cert() -> Certificate {
        let kp = Keypair::from_seed([9; 32]);
        Certificate {
            pk_enc: kp.public(),
            report: dcert_sgx::AttestationReport {
                measurement: hash_bytes(b"m"),
                report_data: hash_bytes(b"d"),
                signature: kp.sign(b"r"),
            },
            digest: header().hash(),
            signature: kp.sign(b"s"),
        }
    }

    #[test]
    fn hier_sig_gen_round_trip() {
        let cert = sample_cert();
        let input = BlockInput {
            prev_header: header(),
            prev_cert: Some(cert.clone()),
            link: BatchLink {
                block: Block {
                    header: header(),
                    txs: Vec::new(),
                },
                reads: vec![(StateKey::new("kv", b"a"), None)],
                state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
            },
        };
        let index = |name: &str, prev_cert| IndexInput {
            index_type: name.to_owned(),
            prev_digest: hash_bytes(b"prev"),
            prev_cert,
            new_digest: hash_bytes(b"new"),
            aux: vec![1, 2, 3],
        };
        for indexes in [
            Vec::new(),
            vec![index("history", Some(cert)), index("inverted", None)],
        ] {
            let req = EcallRequest::HierSigGen(input.clone(), indexes);
            assert_eq!(
                EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
                req
            );
        }
        // Algorithm 4's request, written without building it, is the table's.
        let mut aug = Vec::new();
        encode_aug_sig_gen(&input, &index("history", None), &mut aug);
        let req = EcallRequest::AugSigGen(input, index("history", None));
        assert_eq!(aug, req.to_encoded_bytes());
    }

    #[test]
    fn response_round_trip() {
        let rejected = EcallResponse::Rejected(CertError::HeightRegression {
            last_signed: 7,
            offered: 3,
        });
        assert_eq!(
            EcallResponse::decode_all(&rejected.to_encoded_bytes()).unwrap(),
            rejected
        );
    }

    #[test]
    fn junk_is_rejected() {
        assert!(EcallRequest::decode_all(&[42]).is_err());
        assert!(EcallResponse::decode_all(&[42]).is_err());
    }

    #[test]
    fn range_sig_gen_round_trip() {
        let req = EcallRequest::RangeSigGen {
            anchor: header(),
            links: vec![BatchLink {
                block: Block {
                    header: header(),
                    txs: Vec::new(),
                },
                reads: vec![(StateKey::new("kv", b"a"), None)],
                state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
            }],
        };
        assert_eq!(
            EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
            req
        );
    }

    #[test]
    fn fold_ranges_round_trip() {
        let kp = Keypair::from_seed([4; 32]);
        let range = RangeCert {
            pk_range: kp.public(),
            report: dcert_sgx::AttestationReport {
                measurement: hash_bytes(b"m"),
                report_data: hash_bytes(b"d"),
                signature: kp.sign(b"r"),
            },
            anchor_digest: hash_bytes(b"anchor"),
            first: 1,
            last: 2,
            header_digests: vec![hash_bytes(b"h1"), hash_bytes(b"h2")],
            signature: kp.sign(b"s"),
        };
        let req = EcallRequest::FoldRanges {
            anchor: header(),
            anchor_cert: None,
            ranges: vec![range],
        };
        assert_eq!(
            EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
            req
        );
    }

    #[test]
    fn signatures_round_trip() {
        let kp = Keypair::from_seed([5; 32]);
        let resp = EcallResponse::Signatures(vec![kp.sign(b"a"), kp.sign(b"b")]);
        assert_eq!(
            EcallResponse::decode_all(&resp.to_encoded_bytes()).unwrap(),
            resp
        );
    }

    #[test]
    fn net_message_round_trips() {
        use crate::network::NetMessage;

        let cert = sample_cert();
        let messages = [
            NetMessage::Block(Block {
                header: header(),
                txs: Vec::new(),
            }),
            NetMessage::BlockCert {
                header: header(),
                cert: cert.clone(),
            },
            NetMessage::IndexCert {
                header: header(),
                index: "history".into(),
                digest: hash_bytes(b"idx"),
                cert,
            },
            NetMessage::CertRequest { from: 3, to: 9 },
            NetMessage::Shutdown,
            NetMessage::Serve {
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
        ];
        for message in messages {
            assert_eq!(
                NetMessage::decode_all(&message.to_encoded_bytes()).unwrap(),
                message
            );
        }
        assert!(NetMessage::decode_all(&[0xEE]).is_err());
    }
}
