//! The ECall boundary protocol, plus the network wire format.
//!
//! Real SGX ECalls marshal opaque byte buffers; the simulated enclave does
//! the same (and charges the cost model by byte), so every request and
//! response here has a canonical binary encoding. The message sizes are the
//! "data passed into the enclave" whose growth drives the enclave-overhead
//! curves of Figures 8–9. What one replay can answer travels in one
//! request: Algorithm 2, its batch extension and Algorithm 5 are one
//! [`EcallRequest::Certify`] at different sizes (links from an anchor,
//! then zero or more indexes), and every signing request is answered by
//! [`EcallResponse::Signatures`].
//!
//! The `wire!` table below is the one spelling of a request's field order
//! and tags. Whoever proves a job prepares its links and indexes; the
//! issuer adds the previous certificates, builds the [`EcallRequest`] and
//! encodes it once, through this codec, into a reused buffer.
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

/// One link of a certification request: a block with its read set and
/// state proof, validated against the preceding link's (or the request
/// anchor's) header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLink {
    /// The block `blk_i`.
    pub block: Block,
    /// Its authenticated read set `{r}_i`.
    pub reads: ReadSet,
    /// Its update proof `π_i` against the preceding state root.
    pub state_proof: SmtProof,
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
    /// Algorithm 2, its batch extension and Algorithm 5, in one shape:
    /// validate `links` as consecutive chain transitions from the anchor
    /// `(prev_header, prev_cert)`, sign the **last** header, then validate
    /// each index update on the last link's replayed write set and sign
    /// its `H(H(hdr_i) ‖ H_i^{idx})`. Answered by
    /// [`EcallResponse::Signatures`]: the block's first, then the
    /// indexes' in request order.
    ///
    /// One link and no index is Algorithm 2; `k` links amortise the ECall
    /// and the anchor check over a batch, and the last certificate still
    /// vouches for the whole prefix; one link plus `n` indexes is
    /// Algorithm 5's block and index certificates off one replay. Indexes
    /// need exactly one link: an index certificate binds one block's
    /// update.
    Certify {
        /// The anchor's header `hdr_{i-1}`.
        prev_header: BlockHeader,
        /// The anchor's certificate (absent iff the anchor is genesis).
        prev_cert: Option<Certificate>,
        /// Consecutive blocks extending the anchor.
        links: Vec<BatchLink>,
        /// The index updates of the one link's block.
        indexes: Vec<IndexInput>,
    },
    /// Algorithm 4: validate the chain transition *and* one index update;
    /// sign `H(H(hdr_i) ‖ H_i^{idx})` only. Its anchor is the previous
    /// index certificate, so it carries no block certificate.
    AugSigGen {
        /// The previous block's header `hdr_{i-1}`.
        prev_header: BlockHeader,
        /// The new block `blk_i`, its read set and its update proof.
        link: BatchLink,
        /// The index update to certify.
        index: IndexInput,
    },
    /// Shard-fleet range step: validate `links` as consecutive chain
    /// transitions from an *uncertified* anchor header and sign the range
    /// binding digest (see [`RangeCert`]) over every validated header
    /// digest. Unlike `Certify`, no anchor certificate exists yet —
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
    /// The trusted program rejected the request: its own typed refusal.
    Rejected(CertError),
    /// Every signing request's answer, one signature per digest it asked
    /// for: the block's then one per index (`Certify`), the index's
    /// (`AugSigGen`), the range binding's (`RangeSigGen`), or one per
    /// folded header, ordered by height (`FoldRanges`).
    Signatures(Vec<Signature>),
}

// --- codec ----------------------------------------------------------------

// Retired tags, never reused: request 3 and 4 (the earlier spellings of
// `Certify`'s index and batch shapes), response 1 (a lone signature).
dcert_primitives::wire! {
    struct BatchLink { block, reads: seq, state_proof }
    struct IndexInput { index_type, prev_digest, prev_cert, new_digest, aux }
    enum EcallRequest {
        0 => Init,
        1 => Certify { prev_header, prev_cert, links: seq, indexes: seq },
        2 => AugSigGen { prev_header, link, index },
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
        2 => Rejected(reason),
        3 => Signatures(sigs: seq),
    }
}

/// The `AugSigGen` row of the request table, written without building the
/// request. Algorithm 4 sends one such request per index over the same
/// block, so the issuer encodes each through this function instead.
pub(crate) fn encode_aug_sig_gen(
    prev_header: &BlockHeader,
    link: &BatchLink,
    index: &IndexInput,
    out: &mut Vec<u8>,
) {
    let tag = EcallRequest::TAGS
        .iter()
        .find(|(_, name)| *name == "AugSigGen");
    out.extend(tag.map(|(tag, _)| *tag));
    prev_header.encode(out);
    link.encode(out);
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

    fn link(read: Option<Vec<u8>>) -> BatchLink {
        BatchLink {
            block: Block {
                header: header(),
                txs: Vec::new(),
            },
            reads: vec![(StateKey::new("kv", b"a"), read)],
            state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
        }
    }

    #[test]
    fn certify_round_trip() {
        for links in [
            vec![link(Some(b"1".to_vec()))],
            vec![link(None), link(None)],
        ] {
            let req = EcallRequest::Certify {
                prev_header: header(),
                prev_cert: None,
                links,
                indexes: Vec::new(),
            };
            assert_eq!(
                EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
                req
            );
        }
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
    fn certify_with_indexes_round_trip() {
        let cert = sample_cert();
        let index = |name: &str, prev_cert| IndexInput {
            index_type: name.to_owned(),
            prev_digest: hash_bytes(b"prev"),
            prev_cert,
            new_digest: hash_bytes(b"new"),
            aux: vec![1, 2, 3],
        };
        let req = EcallRequest::Certify {
            prev_header: header(),
            prev_cert: Some(cert.clone()),
            links: vec![link(None)],
            indexes: vec![index("history", Some(cert)), index("inverted", None)],
        };
        assert_eq!(
            EcallRequest::decode_all(&req.to_encoded_bytes()).unwrap(),
            req
        );
        // Algorithm 4's request, written without building it, is the table's.
        let mut aug = Vec::new();
        encode_aug_sig_gen(&header(), &link(None), &index("history", None), &mut aug);
        let req = EcallRequest::AugSigGen {
            prev_header: header(),
            link: link(None),
            index: index("history", None),
        };
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
            links: vec![link(None)],
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
