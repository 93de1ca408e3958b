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
//! [`NetMessage`](crate::network::NetMessage) gets its canonical encoding
//! here too: a real deployment ships certificates as bytes, and the
//! fault-injection layer ([`crate::netsim`]) corrupts traffic at exactly
//! this byte level — a flipped bit either breaks the framing (the receiver
//! drops the message as malformed) or yields a decodable-but-forged
//! message that the client's certificate checks must catch.

use dcert_chain::{Block, BlockHeader};
use dcert_merkle::SmtProof;
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_vm::StateKey;

use crate::cert::Certificate;
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

/// The block-validation inputs shared by Algorithms 2 and 4: everything
/// `blk_verify_t` consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInput {
    /// The previous block's header `hdr_{i-1}`.
    pub prev_header: BlockHeader,
    /// The previous block's certificate (absent iff parent is genesis).
    pub prev_cert: Option<Certificate>,
    /// The new block `blk_i` (header and transactions).
    pub block: Block,
    /// The authenticated read set `{r}_i`.
    pub reads: ReadSet,
    /// The update proof `π_i` over reads ∪ writes against
    /// `prev_header.state_root`.
    pub state_proof: SmtProof,
}

impl BlockInput {
    /// Splits the input into its anchor — `(prev_header, prev_cert)` — and
    /// the one [`BatchLink`] validated against it: a `SigGen` is a batch
    /// of one, and the trusted program replays it as such without copying.
    pub fn into_anchor_and_link(self) -> (BlockHeader, Option<Certificate>, BatchLink) {
        let link = BatchLink {
            block: self.block,
            reads: self.reads,
            state_proof: self.state_proof,
        };
        (self.prev_header, self.prev_cert, link)
    }
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
    /// The trusted program rejected the request.
    Rejected(String),
    /// One signature per digest the request asked for: per folded header,
    /// ordered by height (`FoldRanges`), or the block's then one per index
    /// (`HierSigGen`).
    Signatures(Vec<Signature>),
}

// --- codec ----------------------------------------------------------------

/// [`EcallRequest`] wire tags, shared by the encoder, the decoder and the
/// split encoders below.
const TAG_INIT: u8 = 0;
const TAG_SIG_GEN: u8 = 1;
const TAG_AUG_SIG_GEN: u8 = 2;
const TAG_HIER_SIG_GEN: u8 = 3;
const TAG_BATCH_SIG_GEN: u8 = 4;
const TAG_RANGE_SIG_GEN: u8 = 5;
const TAG_FOLD_RANGES: u8 = 6;

impl Encode for BatchLink {
    fn encode(&self, out: &mut Vec<u8>) {
        self.block.encode(out);
        encode_seq(&self.reads, out);
        self.state_proof.encode(out);
    }
}

impl Decode for BatchLink {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BatchLink {
            block: Block::decode(r)?,
            reads: decode_seq(r)?,
            state_proof: SmtProof::decode(r)?,
        })
    }
}

impl Encode for BlockInput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prev_header.encode(out);
        self.prev_cert.encode(out);
        self.block.encode(out);
        encode_seq(&self.reads, out);
        self.state_proof.encode(out);
    }
}

impl Decode for BlockInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BlockInput {
            prev_header: BlockHeader::decode(r)?,
            prev_cert: Option::<Certificate>::decode(r)?,
            block: Block::decode(r)?,
            reads: decode_seq(r)?,
            state_proof: SmtProof::decode(r)?,
        })
    }
}

impl Encode for IndexInput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index_type.encode(out);
        self.prev_digest.encode(out);
        self.prev_cert.encode(out);
        self.new_digest.encode(out);
        self.aux.encode(out);
    }
}

impl Decode for IndexInput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(IndexInput {
            index_type: String::decode(r)?,
            prev_digest: Hash::decode(r)?,
            prev_cert: Option::<Certificate>::decode(r)?,
            new_digest: Hash::decode(r)?,
            aux: Vec::<u8>::decode(r)?,
        })
    }
}

impl Encode for EcallRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EcallRequest::Init => out.push(TAG_INIT),
            EcallRequest::SigGen(input) => {
                out.push(TAG_SIG_GEN);
                input.encode(out);
            }
            EcallRequest::AugSigGen(block, index) => {
                out.push(TAG_AUG_SIG_GEN);
                block.encode(out);
                index.encode(out);
            }
            EcallRequest::HierSigGen(block, indexes) => {
                out.push(TAG_HIER_SIG_GEN);
                block.encode(out);
                encode_seq(indexes, out);
            }
            EcallRequest::BatchSigGen {
                prev_header,
                prev_cert,
                links,
            } => {
                out.push(TAG_BATCH_SIG_GEN);
                prev_header.encode(out);
                prev_cert.encode(out);
                encode_seq(links, out);
            }
            EcallRequest::RangeSigGen { anchor, links } => {
                out.push(TAG_RANGE_SIG_GEN);
                anchor.encode(out);
                encode_seq(links, out);
            }
            EcallRequest::FoldRanges {
                anchor,
                anchor_cert,
                ranges,
            } => {
                out.push(TAG_FOLD_RANGES);
                anchor.encode(out);
                anchor_cert.encode(out);
                encode_seq(ranges, out);
            }
        }
    }
}

impl Decode for EcallRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            TAG_INIT => Ok(EcallRequest::Init),
            TAG_SIG_GEN => Ok(EcallRequest::SigGen(BlockInput::decode(r)?)),
            TAG_AUG_SIG_GEN => Ok(EcallRequest::AugSigGen(
                BlockInput::decode(r)?,
                IndexInput::decode(r)?,
            )),
            TAG_HIER_SIG_GEN => Ok(EcallRequest::HierSigGen(
                BlockInput::decode(r)?,
                decode_seq(r)?,
            )),
            TAG_BATCH_SIG_GEN => Ok(EcallRequest::BatchSigGen {
                prev_header: BlockHeader::decode(r)?,
                prev_cert: Option::<Certificate>::decode(r)?,
                links: decode_seq(r)?,
            }),
            TAG_RANGE_SIG_GEN => Ok(EcallRequest::RangeSigGen {
                anchor: BlockHeader::decode(r)?,
                links: decode_seq(r)?,
            }),
            TAG_FOLD_RANGES => Ok(EcallRequest::FoldRanges {
                anchor: BlockHeader::decode(r)?,
                anchor_cert: Option::<Certificate>::decode(r)?,
                ranges: decode_seq(r)?,
            }),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// A request encoding cut at the one certificate only the issuer can
/// supply — `prev_cert` of a `SigGen`/`AugSigGen`/`HierSigGen`/
/// `BatchSigGen`/[`IndexInput`] — so everything around it can be marshalled
/// before that certificate exists. For every constructor,
/// `head ++ enc(certificate) ++ tail` is byte-for-byte the canonical
/// [`EcallRequest`] encoding (the law the tests below pin); this is the
/// only place outside the codec that spells a request's field order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SplitRequest {
    head: Vec<u8>,
    tail: Vec<u8>,
}

impl SplitRequest {
    /// `tag ++ enc(prev_header)` — how every certifying request starts.
    fn anchored(tag: u8, prev_header: &BlockHeader) -> Self {
        let mut split = SplitRequest {
            head: vec![tag],
            tail: Vec::new(),
        };
        prev_header.encode(&mut split.head);
        split
    }

    /// A [`BlockInput`] under `tag`, cut at its `prev_cert`: a [`BatchLink`]
    /// encodes exactly the `block`, `reads`, `state_proof` run that follows.
    fn block_input(tag: u8, prev_header: &BlockHeader, link: &BatchLink) -> Self {
        let mut split = Self::anchored(tag, prev_header);
        link.encode(&mut split.tail);
        split
    }

    /// `SigGen`, cut at [`BlockInput::prev_cert`].
    pub(crate) fn sig_gen(prev_header: &BlockHeader, link: &BatchLink) -> Self {
        Self::block_input(TAG_SIG_GEN, prev_header, link)
    }

    /// `AugSigGen` up to its [`IndexInput`], cut at
    /// [`BlockInput::prev_cert`]; a [`SplitRequest::index`] follows.
    pub(crate) fn aug_sig_gen(prev_header: &BlockHeader, link: &BatchLink) -> Self {
        Self::block_input(TAG_AUG_SIG_GEN, prev_header, link)
    }

    /// `BatchSigGen`, cut at its `prev_cert`.
    pub(crate) fn batch_sig_gen(prev_header: &BlockHeader, links: &[BatchLink]) -> Self {
        let mut split = Self::anchored(TAG_BATCH_SIG_GEN, prev_header);
        encode_seq(links, &mut split.tail);
        split
    }

    /// `RangeSigGen`: a batch under another tag with no certificate slot —
    /// marshal it with [`SplitRequest::joined`].
    pub(crate) fn range_sig_gen(anchor: &BlockHeader, links: &[BatchLink]) -> Self {
        let mut split = Self::anchored(TAG_RANGE_SIG_GEN, anchor);
        encode_seq(links, &mut split.tail);
        split
    }

    /// `HierSigGen` up to the items of its index list, cut at
    /// [`BlockInput::prev_cert`]; `index_count` [`SplitRequest::index`]es
    /// follow.
    pub(crate) fn hier_sig_gen(
        prev_header: &BlockHeader,
        link: &BatchLink,
        index_count: usize,
    ) -> Self {
        let mut split = Self::block_input(TAG_HIER_SIG_GEN, prev_header, link);
        // The list's count prefix: a sequence of that many zero-width items.
        encode_seq(&vec![(); index_count], &mut split.tail);
        split
    }

    /// A trailing [`IndexInput`], cut at its `prev_cert`.
    pub(crate) fn index(index: &IndexInput) -> Self {
        let mut split = SplitRequest::default();
        index.index_type.encode(&mut split.head);
        index.prev_digest.encode(&mut split.head);
        index.new_digest.encode(&mut split.tail);
        index.aux.encode(&mut split.tail);
        split
    }

    /// Appends `head ++ enc(certificate) ++ tail` to `out`.
    pub(crate) fn splice(&self, certificate: &impl Encode, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head);
        certificate.encode(out);
        out.extend_from_slice(&self.tail);
    }

    /// `head ++ tail`: the whole request, when it has no certificate slot.
    pub(crate) fn joined(mut self) -> Vec<u8> {
        self.head.extend_from_slice(&self.tail);
        self.head
    }
}

impl Encode for crate::network::NetMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        use crate::network::NetMessage;
        match self {
            NetMessage::Block(block) => {
                out.push(0);
                block.encode(out);
            }
            NetMessage::BlockCert { header, cert } => {
                out.push(1);
                header.encode(out);
                cert.encode(out);
            }
            NetMessage::IndexCert {
                header,
                index,
                digest,
                cert,
            } => {
                out.push(2);
                header.encode(out);
                index.encode(out);
                digest.encode(out);
                cert.encode(out);
            }
            NetMessage::CertRequest { from, to } => {
                out.push(3);
                from.encode(out);
                to.encode(out);
            }
            NetMessage::Shutdown => out.push(4),
            NetMessage::Serve { payload } => {
                out.push(5);
                payload.encode(out);
            }
        }
    }
}

impl Decode for crate::network::NetMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::network::NetMessage;
        match r.take_byte()? {
            0 => Ok(NetMessage::Block(Block::decode(r)?)),
            1 => Ok(NetMessage::BlockCert {
                header: BlockHeader::decode(r)?,
                cert: Certificate::decode(r)?,
            }),
            2 => Ok(NetMessage::IndexCert {
                header: BlockHeader::decode(r)?,
                index: String::decode(r)?,
                digest: Hash::decode(r)?,
                cert: Certificate::decode(r)?,
            }),
            3 => Ok(NetMessage::CertRequest {
                from: u64::decode(r)?,
                to: u64::decode(r)?,
            }),
            4 => Ok(NetMessage::Shutdown),
            5 => Ok(NetMessage::Serve {
                payload: Vec::<u8>::decode(r)?,
            }),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl Encode for EcallResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EcallResponse::Initialized(pk) => {
                out.push(0);
                pk.encode(out);
            }
            EcallResponse::Signature(sig) => {
                out.push(1);
                sig.encode(out);
            }
            EcallResponse::Rejected(reason) => {
                out.push(2);
                reason.encode(out);
            }
            EcallResponse::Signatures(sigs) => {
                out.push(3);
                encode_seq(sigs, out);
            }
        }
    }
}

impl Decode for EcallResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(EcallResponse::Initialized(PublicKey::decode(r)?)),
            1 => Ok(EcallResponse::Signature(Signature::decode(r)?)),
            2 => Ok(EcallResponse::Rejected(String::decode(r)?)),
            3 => Ok(EcallResponse::Signatures(decode_seq(r)?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::Transaction;
    use dcert_primitives::hash::{hash_bytes, Address};
    use dcert_primitives::keys::Keypair;
    use dcert_testkit::{check, Gen};

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
            block: Block {
                header: header(),
                txs: Vec::new(),
            },
            reads: vec![(StateKey::new("kv", b"a"), Some(b"1".to_vec()))],
            state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
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
            block: Block {
                header: header(),
                txs: Vec::new(),
            },
            reads: vec![(StateKey::new("kv", b"a"), None)],
            state_proof: dcert_merkle::SparseMerkleTree::new().prove(&[hash_bytes(b"k")]),
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
    }

    #[test]
    fn response_round_trip() {
        let rejected = EcallResponse::Rejected("nope".to_owned());
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

    // --- the split-encoder law ------------------------------------------------
    //
    // For every request the issuer splices a certificate into,
    // `head ++ enc(certificate) ++ tail` must be the canonical encoding,
    // and must decode back to the request — with the slot both empty and
    // filled.

    fn arb_hash(g: &mut Gen) -> Hash {
        hash_bytes(g.any::<[u8; 32]>())
    }

    fn arb_header(g: &mut Gen) -> BlockHeader {
        let (height, timestamp, nonce) = (g.any(), g.any(), g.any::<u64>());
        BlockHeader {
            height,
            prev_hash: arb_hash(g),
            state_root: arb_hash(g),
            tx_root: hash_bytes(nonce.to_be_bytes()),
            timestamp,
            miner: Address::from_seed(timestamp),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 3,
                nonce,
            },
        }
    }

    fn arb_cert(g: &mut Gen) -> Certificate {
        let kp = Keypair::from_seed(g.any());
        let digest = arb_hash(g);
        Certificate {
            pk_enc: kp.public(),
            report: dcert_sgx::AttestationReport {
                measurement: hash_bytes(b"measurement"),
                report_data: Certificate::key_binding(&kp.public()),
                signature: kp.sign(b"report"),
            },
            digest,
            signature: kp.sign(digest.as_bytes()),
        }
    }

    fn arb_bytes(g: &mut Gen, max: usize) -> Vec<u8> {
        g.vec(0..max, |g| g.any())
    }

    fn arb_kv_set(g: &mut Gen) -> ReadSet {
        let set = g.vec(0..5, |g| (arb_bytes(g, 6), g.option(|g| arb_bytes(g, 12))));
        set.into_iter()
            .map(|(field, value)| (StateKey::new("kv", &field), value))
            .collect()
    }

    fn arb_proof(g: &mut Gen) -> SmtProof {
        let mut tree = dcert_merkle::SparseMerkleTree::new();
        let mut keys = Vec::new();
        for (label, present) in g.vec(0..6, |g| (g.any::<u8>(), g.any::<bool>())) {
            let key = hash_bytes([label]);
            if present {
                tree.insert(key, vec![label]);
            }
            keys.push(key);
        }
        tree.prove(&keys)
    }

    fn arb_link(g: &mut Gen) -> BatchLink {
        let header = arb_header(g);
        let senders = g.vec(0..3, |g| (g.any::<[u8; 32]>(), g.any::<u64>()));
        BatchLink {
            block: Block {
                header,
                txs: senders
                    .into_iter()
                    .map(|(seed, nonce)| {
                        let key = Keypair::from_seed(seed);
                        Transaction::sign(&key, nonce, "kv", nonce.to_be_bytes().to_vec())
                    })
                    .collect(),
            },
            reads: arb_kv_set(g),
            state_proof: arb_proof(g),
        }
    }

    fn arb_index(g: &mut Gen) -> IndexInput {
        IndexInput {
            index_type: arb_bytes(g, 8)
                .iter()
                .map(|b| char::from(b'a' + b % 26))
                .collect(),
            prev_digest: arb_hash(g),
            prev_cert: g.option(arb_cert),
            new_digest: arb_hash(g),
            aux: arb_bytes(g, 40),
        }
    }

    /// `spliced` is the canonical encoding of `request` and decodes back
    /// to it.
    fn assert_law(spliced: &[u8], request: &EcallRequest) {
        assert_eq!(spliced, &request.to_encoded_bytes()[..]);
        assert_eq!(&EcallRequest::decode_all(spliced).unwrap(), request);
    }

    fn block_input(
        prev_header: &BlockHeader,
        prev_cert: &Option<Certificate>,
        link: &BatchLink,
    ) -> BlockInput {
        BlockInput {
            prev_header: prev_header.clone(),
            prev_cert: prev_cert.clone(),
            block: link.block.clone(),
            reads: link.reads.clone(),
            state_proof: link.state_proof.clone(),
        }
    }

    #[test]
    fn prop_sig_gen_splits_at_prev_cert() {
        check("prop_sig_gen_splits_at_prev_cert", 48, |g| {
            let (prev_header, prev_cert, link) = (arb_header(g), g.option(arb_cert), arb_link(g));
            let mut spliced = Vec::new();
            SplitRequest::sig_gen(&prev_header, &link).splice(&prev_cert, &mut spliced);
            let request = EcallRequest::SigGen(block_input(&prev_header, &prev_cert, &link));
            assert_law(&spliced, &request);
        });
    }

    #[test]
    fn prop_aug_sig_gen_splits_at_both_prev_certs() {
        check("prop_aug_sig_gen_splits_at_both_prev_certs", 48, |g| {
            let (prev_header, prev_cert, link) = (arb_header(g), g.option(arb_cert), arb_link(g));
            let index = arb_index(g);
            let mut spliced = Vec::new();
            SplitRequest::aug_sig_gen(&prev_header, &link).splice(&prev_cert, &mut spliced);
            SplitRequest::index(&index).splice(&index.prev_cert, &mut spliced);
            let request =
                EcallRequest::AugSigGen(block_input(&prev_header, &prev_cert, &link), index);
            assert_law(&spliced, &request);
        });
    }

    #[test]
    fn prop_hier_sig_gen_splits_at_every_prev_cert() {
        check("prop_hier_sig_gen_splits_at_every_prev_cert", 48, |g| {
            let (prev_header, prev_cert, link) = (arb_header(g), g.option(arb_cert), arb_link(g));
            let indexes = g.vec(0..4, arb_index);
            let mut spliced = Vec::new();
            SplitRequest::hier_sig_gen(&prev_header, &link, indexes.len())
                .splice(&prev_cert, &mut spliced);
            for index in &indexes {
                SplitRequest::index(index).splice(&index.prev_cert, &mut spliced);
            }
            let request =
                EcallRequest::HierSigGen(block_input(&prev_header, &prev_cert, &link), indexes);
            assert_law(&spliced, &request);
        });
    }

    #[test]
    fn prop_batch_sig_gen_splits_at_prev_cert() {
        check("prop_batch_sig_gen_splits_at_prev_cert", 48, |g| {
            let (prev_header, prev_cert) = (arb_header(g), g.option(arb_cert));
            let links = g.vec(0..4, arb_link);
            let mut spliced = Vec::new();
            SplitRequest::batch_sig_gen(&prev_header, &links).splice(&prev_cert, &mut spliced);
            let request = EcallRequest::BatchSigGen {
                prev_header,
                prev_cert,
                links,
            };
            assert_law(&spliced, &request);
        });
    }

    #[test]
    fn prop_range_sig_gen_joins_without_a_slot() {
        check("prop_range_sig_gen_joins_without_a_slot", 48, |g| {
            let (anchor, links) = (arb_header(g), g.vec(0..4, arb_link));
            let joined = SplitRequest::range_sig_gen(&anchor, &links).joined();
            let request = EcallRequest::RangeSigGen { anchor, links };
            assert_law(&joined, &request);
        });
    }
}
