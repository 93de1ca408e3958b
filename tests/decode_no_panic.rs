//! The dynamic twin of the crate roots' panic-lint `deny`, and the only
//! guard inside `macro_rules!` bodies, where clippy does not fire
//! `unwrap_used`, `expect_used` or `panic` (DESIGN.md §7): every wire
//! decoder in the workspace is exercised with arbitrary, truncated, and
//! bit-flipped byte strings, and must always return `Err` — never panic.
//!
//! The suite goes wide: it enumerates the *complete* decoder surface
//! (certificates, network messages, sealed blobs, every proof family,
//! keys, primitives) and sweeps each type's valid encoding through
//! exhaustive truncations and single-byte corruptions. On top of that,
//! for the three types a client acts on directly — transactions, state
//! proofs, certificates — a mutation that still decodes must also be
//! *semantically* harmless: it fails verification or changes no
//! authenticated claim.

use dcert::baselines::lineage::LineageIndex;
use dcert::baselines::skiplist::AuthSkipList;
use dcert::baselines::{LineageProof, SkipRangeProof};
use dcert::chain::consensus::ConsensusProof;
use dcert::chain::{Block, BlockHeader, ChainError, Transaction};
use dcert::core::{
    BatchLink, CertError, Certificate, EcallRequest, EcallResponse, IndexInput, NetMessage,
    RangeCert,
};
use dcert::merkle::btree::{Annotation, AppendProof, Flavor, Plain, Shape, Summary, Summed};
use dcert::merkle::ops::OpProof;
use dcert::merkle::{
    AggMbTree, AggOpProof, Aggregate, MbOpProof, MbTree, ProofError, ProofOp, SmtProof,
    SparseMerkleTree, MAX_OP_STACK, MAX_PROOF_DEPTH,
};
use dcert::primitives::codec::{encode_seq, Decode, Encode, Tagged};
use dcert::primitives::hash::{hash_bytes, Address, Hash};
use dcert::primitives::keys::{Keypair, PublicKey, SecretBytes, Signature};
use dcert::primitives::CodecError;
use dcert::query::aggregate::{verify_aggregate, verify_aggregate_op, AggregateIndex};
use dcert::query::history::{verify_history, verify_history_op, HistoryIndex};
use dcert::query::inverted::InvertedIndex;
use dcert::query::{
    AggQueryProof, CertifiedEntry, HistoryProof, KeywordPage, KeywordProof, QueryError, WritesPage,
};
use dcert::serve::{
    decode_aggregate_op_payload, decode_aggregate_payload, decode_history_op_payload,
    decode_history_payload, encode_history_payload, QuerySpec, RefusalReason, ServeRefusal,
    ServeRequest, ServeResponse, ServeWire,
};
use dcert::sgx::{sealing, AttestationReport, AttestationService, Quote, SealedBlob, SgxError};
use dcert::store::frame::{append_frame, decode_framed, scan_frames, ScanStop, MAX_FRAME};
use dcert::store::head::HEAD_SLOT_A;
use dcert::store::{HeadState, Record, SegmentMark, StoreError, StreamId};
use dcert::vm::{Call, StateKey};
use dcert::workloads::cpuheavy::CpuHeavyCall;
use dcert::workloads::ioheavy::IoHeavyCall;
use dcert::workloads::kvstore::KvCall;
use dcert::workloads::smallbank::BankCall;
use dcert_testkit::{check, smt_frames};

/// Feeds `bytes` to every wire decoder in the workspace. Each call must
/// return (any result is fine) without panicking.
fn try_decode_everything(bytes: &[u8]) {
    // Primitives.
    let _ = Hash::decode_all(bytes);
    let _ = Address::decode_all(bytes);
    let _ = PublicKey::decode_all(bytes);
    let _ = Signature::decode_all(bytes);
    let _ = String::decode_all(bytes);
    let _ = Vec::<u8>::decode_all(bytes);
    let _ = Vec::<Hash>::decode_all(bytes);
    let _ = StateKey::decode_all(bytes);
    let _ = CodecError::decode_all(bytes);
    // Chain, and the transaction payloads the enclave decodes on replay.
    let _ = ChainError::decode_all(bytes);
    let _ = Call::decode_all(bytes);
    let _ = KvCall::decode_all(bytes);
    let _ = IoHeavyCall::decode_all(bytes);
    let _ = CpuHeavyCall::decode_all(bytes);
    let _ = BankCall::decode_all(bytes);
    let _ = BlockHeader::decode_all(bytes);
    let _ = Block::decode_all(bytes);
    let _ = Transaction::decode_all(bytes);
    let _ = ConsensusProof::decode_all(bytes);
    // Certificates, enclave messages, network envelopes.
    let _ = Certificate::decode_all(bytes);
    let _ = AttestationReport::decode_all(bytes);
    let _ = EcallRequest::decode_all(bytes);
    let _ = EcallResponse::decode_all(bytes);
    let _ = IndexInput::decode_all(bytes);
    let _ = BatchLink::decode_all(bytes);
    let _ = NetMessage::decode_all(bytes);
    let _ = SealedBlob::decode_all(bytes);
    let _ = RangeCert::decode_all(bytes);
    let _ = CertError::decode_all(bytes);
    let _ = SgxError::decode_all(bytes);
    // Proof families.
    let _ = ProofError::decode_all(bytes);
    let _ = SmtProof::decode_all(bytes);
    let _ = AppendProof::<Plain>::decode_all(bytes);
    let _ = AppendProof::<Summed>::decode_all(bytes);
    let _ = Aggregate::decode_all(bytes);
    let _ = HistoryProof::decode_all(bytes);
    let _ = KeywordProof::decode_all(bytes);
    let _ = AggQueryProof::decode_all(bytes);
    // Window proofs: the program and its ops (and so nodes), per flavor.
    let _ = ProofOp::<Plain>::decode_all(bytes);
    let _ = ProofOp::<Summed>::decode_all(bytes);
    let _ = MbOpProof::decode_all(bytes);
    let _ = AggOpProof::decode_all(bytes);
    let _ = SkipRangeProof::decode_all(bytes);
    let _ = LineageProof::decode_all(bytes);
    // Persistence layer: segment records, head state, SP pages.
    let _ = Record::decode_all(bytes);
    let _ = StreamId::decode_all(bytes);
    let _ = SegmentMark::decode_all(bytes);
    let _ = HeadState::decode_all(bytes);
    let _ = WritesPage::decode_all(bytes);
    let _ = KeywordPage::decode_all(bytes);
    let _ = CertifiedEntry::decode_all(bytes);
    // Serving front-end wire messages.
    let _ = QuerySpec::decode_all(bytes);
    let _ = ServeRequest::decode_all(bytes);
    let _ = ServeResponse::decode_all(bytes);
    let _ = ServeRefusal::decode_all(bytes);
    let _ = ServeWire::decode_all(bytes);
    let _ = decode_history_payload(bytes);
    let _ = dcert::serve::decode_keyword_payload(bytes);
    let _ = decode_aggregate_payload(bytes);
    // Framing decoders (distinct from plain codecs: CRC-checked length-
    // prefixed frames and magic-guarded slot files).
    let _ = scan_frames(bytes);
    let _ = decode_framed(bytes);
    let _ = HeadState::decode_slot_file(HEAD_SLOT_A, bytes);
}

/// A named valid encoding plus its own type's decoder (for asserting that
/// truncation breaks the *matching* decoder, not just any decoder) and
/// the size its type accounts for it.
struct Probe {
    name: &'static str,
    ty: &'static str,
    bytes: Vec<u8>,
    encoded_len: usize,
    decode_ok: fn(&[u8]) -> bool,
}

fn probe<T: Encode + Decode>(name: &'static str, value: &T) -> Probe {
    fn ok<T: Decode>(bytes: &[u8]) -> bool {
        T::decode_all(bytes).is_ok()
    }
    Probe {
        name,
        ty: std::any::type_name::<T>(),
        bytes: value.to_encoded_bytes(),
        encoded_len: value.encoded_len(),
        decode_ok: ok::<T>,
    }
}

/// A two-leaf tree whose keys share four bits, and the proof of an absent
/// key that parts from both at bit 0: its one sibling is their branch,
/// beside an empty side, so it comes with its header.
fn header_proof() -> (Hash, SmtProof) {
    let key = |first: u8| Hash::from_bytes([first; 32]);
    let mut tree = SparseMerkleTree::new();
    tree.insert(key(0x00), b"a".to_vec());
    tree.insert(key(0x0f), b"b".to_vec());
    let proof = tree.prove(&[key(0x80)]);
    assert_eq!(
        proof.size_bytes(),
        4 + 32 + 4 + 1 + 4 + 99 + 3,
        "a header and a run"
    );
    (tree.root(), proof)
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        prev_hash: hash_bytes(height.to_be_bytes()),
        state_root: hash_bytes(b"state"),
        tx_root: hash_bytes(b"txs"),
        timestamp: height,
        miner: Address::default(),
        consensus: ConsensusProof::Pow {
            difficulty_bits: 0,
            nonce: 0,
        },
    }
}

fn certificate() -> (Certificate, AttestationReport) {
    let mut ias = AttestationService::with_seed([1; 32]);
    let platform = Keypair::from_seed([2; 32]);
    ias.register_platform(platform.public());
    let enclave_key = Keypair::from_seed([3; 32]);
    let quote = Quote::sign(
        &platform,
        hash_bytes(b"program"),
        Certificate::key_binding(&enclave_key.public()),
    );
    let report = ias.attest(&quote).expect("registered platform attests");
    let digest = hash_bytes(b"hdr");
    let cert = Certificate {
        pk_enc: enclave_key.public(),
        report: report.clone(),
        digest,
        signature: enclave_key.sign(digest.as_bytes()),
    };
    (cert, report)
}

/// One valid encoding per wire type — the corpus the truncation and
/// bit-flip sweeps run over.
/// A `Certify` of one link over two indexes, and the offsets of its two
/// count prefixes: the link list's, then the index list's.
fn certify() -> (EcallRequest, [usize; 2]) {
    let (cert, _) = certificate();
    let tx = Transaction::sign(&Keypair::from_seed([9; 32]), 7, "kvstore", b"p".to_vec());
    let (prev_header, prev_cert) = (header(2), Some(cert.clone()));
    let link = BatchLink {
        block: Block {
            header: header(3),
            txs: vec![tx],
        },
        reads: vec![(StateKey::new("kvstore", b"balance"), Some(vec![1]))],
        state_proof: header_proof().1,
    };
    let index = |name: &str, prev_cert| IndexInput {
        index_type: name.to_owned(),
        prev_digest: hash_bytes(b"prev"),
        prev_cert,
        new_digest: hash_bytes(b"new"),
        aux: vec![7; 9],
    };
    let links_at = 1 + prev_header.encoded_len() + prev_cert.encoded_len();
    let indexes_at = links_at + 4 + link.encoded_len();
    let request = EcallRequest::Certify {
        prev_header,
        prev_cert,
        links: vec![link],
        indexes: vec![index("history", Some(cert)), index("inverted", None)],
    };
    (request, [links_at, indexes_at])
}

fn sample_encodings() -> Vec<Probe> {
    let kp = Keypair::from_seed([9; 32]);
    let tx = Transaction::sign(&kp, 7, "kvstore", b"payload".to_vec());
    let (cert, report) = certificate();
    let key = StateKey::new("kvstore", b"balance");
    let missing = CertError::Proof(ProofError::Malformed("missing evidence".into()));
    let regressed = CertError::HeightRegression {
        last_signed: 9,
        offered: 3,
    };

    let mut smt = SparseMerkleTree::new();
    for i in 0..8u32 {
        smt.insert(hash_bytes(format!("k{i}")), vec![i as u8]);
    }
    let smt_proof = smt.prove(&[hash_bytes("k3"), hash_bytes("missing")]);

    let (_, smt_header_proof) = header_proof();

    let mut mb = MbTree::new(4);
    for t in 0..10u64 {
        mb.insert(t, vec![t as u8]);
    }
    let mb_append = mb.prove_append();

    let mut agg = AggMbTree::new(4);
    for t in 0..10u64 {
        agg.insert(t, t * 3);
    }
    let (aggregate, agg_ops) = agg.window(2, 7);
    let agg_append = agg.prove_append();

    let (_, mb_ops) = mb.window(2, 7);

    let history = HistoryIndex::new();
    let (_, history_proof) = history.query(&key, 0, 10);
    let inverted = InvertedIndex::new();
    let (_, keyword_proof) = inverted.query(&["alpha"]);
    let aggregate_index = AggregateIndex::new();
    let (_, agg_query_proof) = aggregate_index.query(&key, 0, 10);

    // Populated indexes so the query proofs carry real programs.
    let mut tracked_history = HistoryIndex::new();
    let mut tracked_aggregate = AggregateIndex::new();
    for height in 1..=6u64 {
        let writes = vec![(key, Some(height.to_be_bytes().to_vec()))];
        tracked_history.apply_block(height, &writes);
        tracked_aggregate.apply_block(height, &writes);
    }
    let (_, tracked_history_proof) = tracked_history.query(&key, 2, 5);
    let (_, tracked_agg_query_proof) = tracked_aggregate.query(&key, 2, 5);

    let mut skiplist = AuthSkipList::new();
    for t in 0..6u64 {
        skiplist.append(t, vec![t as u8]);
    }
    let (_, skip_proof) = skiplist.range(1, 4);

    let mut lineage = LineageIndex::new();
    lineage.apply_block(1, &[(key, Some(b"v".to_vec()))]);
    let (_, lineage_proof) = lineage.query(&key, 0, 10);

    let sealed = sealing::seal(
        &SecretBytes::from([7; 32]),
        &hash_bytes(b"program"),
        &SecretBytes::new(b"enclave state"),
    );

    let record = Record::new(5, StreamId::Writes, b"page bytes".to_vec());
    let head_state = HeadState {
        seq: 3,
        durable_height: 2,
        segments: vec![SegmentMark {
            index: 0,
            durable_len: 4096,
        }],
        entries: vec![("sp.height".to_string(), 2u64.to_encoded_bytes())],
    };
    let writes_page = WritesPage {
        writes: vec![
            (key, Some(b"v1".to_vec())),
            (StateKey::new("kvstore", b"gone"), None),
        ],
    };
    let keyword_page = KeywordPage {
        appends: vec![("stock".to_string(), vec![hash_bytes(b"tx-1")])],
    };
    let certified_entry = CertifiedEntry {
        digest: hash_bytes(b"index digest"),
        anchor: Some((hash_bytes(b"hdr"), hash_bytes(b"dig"), cert.clone())),
    };

    let serve_query = QuerySpec::History {
        index: "history".into(),
        key,
        t1: 1,
        t2: 9,
    };
    // The compatibility kinds: same layout, their own tags.
    let (index, t1, t2) = ("history".into(), 2, 5);
    let history_op = QuerySpec::HistoryOp { index, key, t1, t2 };
    let index = "aggregate".into();
    let aggregate_op = QuerySpec::AggregateOp { index, key, t1, t2 };
    let serve_request = ServeRequest {
        client: 41,
        id: 7,
        query: serve_query.clone(),
    };
    let (history_results, history_payload_proof) = history.query(&key, 0, 10);
    let serve_response = ServeResponse {
        id: 7,
        certified_height: 9,
        payload: encode_history_payload(&history_results, &history_payload_proof).into(),
    };
    let serve_refusal = ServeRefusal {
        id: 8,
        reason: RefusalReason::RateLimited {
            retry_after_ticks: 2,
        },
    };

    let mut probes = vec![
        probe("Hash", &hash_bytes(b"x")),
        probe("PublicKey", &kp.public()),
        probe("Signature", &kp.sign(b"msg")),
        probe("StateKey", &key),
        probe("BlockHeader", &header(3)),
        probe(
            "Block",
            &Block {
                header: header(3),
                txs: vec![tx.clone()],
            },
        ),
        probe("Transaction", &tx),
        probe("Certificate", &cert),
        probe("AttestationReport", &report),
        probe("EcallRequest", &EcallRequest::Init),
        probe("EcallRequest::Certify", &certify().0),
        probe("EcallResponse", &EcallResponse::Initialized(kp.public())),
        probe("EcallResponse::Rejected", &EcallResponse::Rejected(missing)),
        probe(
            "EcallResponse::Rejected::HeightRegression",
            &EcallResponse::Rejected(regressed),
        ),
        probe(
            "NetMessage::BlockCert",
            &NetMessage::BlockCert {
                header: header(3),
                cert: cert.clone(),
            },
        ),
        probe(
            "NetMessage::IndexCert",
            &NetMessage::IndexCert {
                header: header(3),
                index: "history".into(),
                digest: hash_bytes(b"digest"),
                cert,
            },
        ),
        probe("SealedBlob", &sealed),
        probe("SmtProof", &smt_proof),
        probe("SmtProof::header", &smt_header_proof),
        probe("MbAppendProof", &mb_append),
        probe("AggAppendProof", &agg_append),
        probe("Aggregate", &aggregate),
        probe("HistoryProof", &history_proof),
        probe("KeywordProof", &keyword_proof),
        probe("AggQueryProof", &agg_query_proof),
        probe("ProofOp", &ProofOp::<Plain>::Push(pruned(b"pruned"))),
        probe("MbOpProof", &mb_ops),
        probe("AggOpProof", &agg_ops),
        probe("HistoryProof::tracked", &tracked_history_proof),
        probe("AggQueryProof::tracked", &tracked_agg_query_proof),
        probe("SkipRangeProof", &skip_proof),
        probe("LineageProof", &lineage_proof),
        probe("Record", &record),
        probe("StreamId", &StreamId::Checkpoint),
        probe("SegmentMark", &head_state.segments[0]),
        probe("HeadState", &head_state),
        probe("WritesPage", &writes_page),
        probe("KeywordPage", &keyword_page),
        probe("CertifiedEntry", &certified_entry),
        probe("QuerySpec", &serve_query),
        probe("QuerySpec::HistoryOp", &history_op),
        probe("QuerySpec::AggregateOp", &aggregate_op),
        probe("ServeWire::Request", &ServeWire::Request(serve_request)),
        probe("ServeWire::Response", &ServeWire::Response(serve_response)),
        probe("ServeWire::Refusal", &ServeWire::Refusal(serve_refusal)),
        probe(
            "NetMessage::Serve",
            &NetMessage::Serve {
                payload: ServeWire::Request(ServeRequest {
                    client: 42,
                    id: 11,
                    query: QuerySpec::Keywords {
                        index: "inverted".into(),
                        keywords: vec!["alpha".into(), "beta".into()],
                    },
                })
                .to_encoded_bytes(),
            },
        ),
    ];
    probes.extend(tag_probes());
    probes
}

/// Every refusal the trusted program can send, leaves included.
fn refusals() -> Vec<CertError> {
    let (a, b) = (hash_bytes(b"a"), hash_bytes(b"b"));
    let chain = [
        ChainError::BadTxSignature,
        ChainError::SenderMismatch,
        ChainError::BrokenLink {
            claimed: a,
            actual: b,
        },
        ChainError::BadHeight {
            parent: 4,
            child: 6,
        },
        ChainError::BadConsensus("difficulty".into()),
        ChainError::TxRootMismatch,
        ChainError::StateRootMismatch,
        ChainError::UnknownParent(a),
        ChainError::Duplicate(b),
        ChainError::BadGenesis("height".into()),
    ];
    let proof = [
        ProofError::RootMismatch,
        ProofError::Malformed("evidence".into()),
        ProofError::MissingKey,
        ProofError::Incomplete("window".into()),
    ];
    let attestation = [
        SgxError::UntrustedPlatform,
        SgxError::BadQuote,
        SgxError::BadReport,
        SgxError::BadSeal,
    ];
    let codec = [
        CodecError::UnexpectedEof {
            needed: 32,
            remaining: 3,
        },
        CodecError::LengthOverflow(u64::MAX),
        CodecError::InvalidTag(0x2a),
        CodecError::InvalidBool(7),
        CodecError::InvalidUtf8,
        CodecError::TrailingBytes(5),
        CodecError::Invalid("hex".into()),
    ];
    let mut out: Vec<CertError> = chain.into_iter().map(CertError::Chain).collect();
    out.extend(proof.map(CertError::Proof));
    out.extend(attestation.map(CertError::Attestation));
    out.extend(codec.map(CertError::Codec));
    out.extend([
        CertError::WrongMeasurement,
        CertError::KeyBindingMismatch,
        CertError::BadSignature,
        CertError::DigestMismatch,
        CertError::MissingPrevCert,
        CertError::GenesisMismatch,
        CertError::ReadSetMismatch,
        CertError::StateRootMismatch,
        CertError::IndexDigestMismatch,
        CertError::UnknownIndexType("nope".to_owned()),
        CertError::BadIndexUpdate("aux".into()),
        CertError::NotInitialized,
        CertError::HeightRegression {
            last_signed: 9,
            offered: 3,
        },
        CertError::EmptyRange,
        CertError::HeightOverflow,
        CertError::RangeLengthMismatch,
        CertError::RangeAnchorMismatch,
        CertError::RangeDiscontinuity {
            expected: 5,
            found: 7,
        },
    ]);
    out
}

/// The tags `sample_encodings`'s hand-picked frames above leave out: every
/// other request, response, envelope, refusal, payload and op.
fn tag_probes() -> Vec<Probe> {
    let kp = Keypair::from_seed([9; 32]);
    let (cert, report) = certificate();
    let key = StateKey::new("kvstore", b"balance");
    let (request, _) = certify();
    let EcallRequest::Certify { links, indexes, .. } = request else {
        unreachable!("certify builds a Certify")
    };
    let link = links[0].clone();
    let range = RangeCert {
        pk_range: kp.public(),
        report,
        anchor_digest: hash_bytes(b"anchor"),
        first: 4,
        last: 5,
        header_digests: vec![hash_bytes(b"4"), hash_bytes(b"5")],
        signature: kp.sign(b"range"),
    };
    let mut probes = vec![
        probe("RangeCert", &range),
        probe(
            "EcallRequest::Certify::batch",
            &EcallRequest::Certify {
                prev_header: header(2),
                prev_cert: Some(cert.clone()),
                links: vec![link.clone(), link.clone()],
                indexes: Vec::new(),
            },
        ),
        probe(
            "EcallRequest::AugSigGen",
            &EcallRequest::AugSigGen {
                prev_header: header(2),
                link: link.clone(),
                index: indexes[0].clone(),
            },
        ),
        probe(
            "EcallRequest::RangeSigGen",
            &EcallRequest::RangeSigGen {
                anchor: header(2),
                links: vec![link.clone()],
            },
        ),
        probe(
            "EcallRequest::FoldRanges",
            &EcallRequest::FoldRanges {
                anchor: header(3),
                anchor_cert: None,
                ranges: vec![range],
            },
        ),
        probe(
            "EcallResponse::Signatures",
            &EcallResponse::Signatures(vec![kp.sign(b"a"), kp.sign(b"b")]),
        ),
        probe("NetMessage::Block", &NetMessage::Block(link.block)),
        probe(
            "NetMessage::CertRequest",
            &NetMessage::CertRequest { from: 3, to: 9 },
        ),
        probe("NetMessage::Shutdown", &NetMessage::Shutdown),
        probe("ConsensusProof::Pow", &header(1).consensus),
        probe(
            "ConsensusProof::Authority",
            &ConsensusProof::Authority {
                signer: kp.public(),
                signature: kp.sign(b"seal"),
            },
        ),
        probe("ProofOp::Parent", &ProofOp::<Plain>::Parent),
        probe("ProofOp::Child", &ProofOp::<Plain>::Child),
        probe(
            "ProofOp::<Summed>::Push",
            &ProofOp::<Summed>::Push(pruned(b"summed")),
        ),
        probe("ProofOp::<Summed>::Parent", &ProofOp::<Summed>::Parent),
        probe("ProofOp::<Summed>::Child", &ProofOp::<Summed>::Child),
        probe(
            "QuerySpec::Keywords",
            &QuerySpec::Keywords {
                index: "inverted".into(),
                keywords: vec!["alpha".into()],
            },
        ),
        probe(
            "QuerySpec::Aggregate",
            &QuerySpec::Aggregate {
                index: "aggregate".into(),
                key,
                t1: 1,
                t2: 4,
            },
        ),
        probe("StreamId::Cert", &StreamId::Cert),
        probe("StreamId::Writes", &StreamId::Writes),
        probe("StreamId::Keywords", &StreamId::Keywords),
        probe(
            "Call",
            &Call::new(Address::from_seed(5), "kvstore", vec![1]),
        ),
        probe("CpuHeavyCall", &CpuHeavyCall { seed: 3, size: 64 }),
    ];
    let reasons = [
        RefusalReason::QueueFull { depth: 64 },
        RefusalReason::RateLimited {
            retry_after_ticks: 3,
        },
        RefusalReason::Backlogged { waiters: 9 },
        RefusalReason::UnknownIndex,
    ];
    probes.extend(reasons.iter().map(|r| probe("RefusalReason", r)));
    let kv = [
        KvCall::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        },
        KvCall::Get { key: b"k".to_vec() },
        KvCall::Delete { key: b"k".to_vec() },
    ];
    probes.extend(kv.iter().map(|c| probe("KvCall", c)));
    let io = [
        IoHeavyCall::WriteBatch { start: 1, count: 8 },
        IoHeavyCall::ReadBatch { start: 2, count: 4 },
    ];
    probes.extend(io.iter().map(|c| probe("IoHeavyCall", c)));
    let bank = [
        BankCall::TransactSavings {
            customer: 1,
            amount: 2,
        },
        BankCall::DepositChecking {
            customer: 1,
            amount: 2,
        },
        BankCall::SendPayment {
            from: 1,
            to: 2,
            amount: 3,
        },
        BankCall::WriteCheck {
            customer: 1,
            amount: 2,
        },
        BankCall::Amalgamate { from: 1, to: 2 },
        BankCall::GetBalance { customer: 1 },
    ];
    probes.extend(bank.iter().map(|c| probe("BankCall", c)));
    for error in refusals() {
        match &error {
            CertError::Chain(e) => probes.push(probe("ChainError", e)),
            CertError::Proof(e) => probes.push(probe("ProofError", e)),
            CertError::Attestation(e) => probes.push(probe("SgxError", e)),
            CertError::Codec(e) => probes.push(probe("CodecError", e)),
            _ => {}
        }
        probes.push(probe("CertError", &error));
    }
    probes
}

/// Every enum whose codec is a `wire!` table, with its type name and tags
/// (`AppendNode` is private to its crate; the append-proof probes carry
/// both its rows).
fn declared_enums() -> Vec<(&'static str, &'static [(u8, &'static str)])> {
    fn row<E: Tagged>() -> (&'static str, &'static [(u8, &'static str)]) {
        (std::any::type_name::<E>(), E::TAGS)
    }
    vec![
        row::<EcallRequest>(),
        row::<EcallResponse>(),
        row::<NetMessage>(),
        row::<CertError>(),
        row::<ChainError>(),
        row::<ProofError>(),
        row::<SgxError>(),
        row::<CodecError>(),
        row::<ConsensusProof>(),
        row::<ProofOp<Plain>>(),
        row::<ProofOp<Summed>>(),
        row::<QuerySpec>(),
        row::<RefusalReason>(),
        row::<ServeWire>(),
        row::<StreamId>(),
        row::<KvCall>(),
        row::<IoHeavyCall>(),
        row::<BankCall>(),
    ]
}

/// A variant added to a table without a probe here fails this test: every
/// row of every declared enum's `TAGS` leads some sample's bytes.
#[test]
fn every_declared_tag_has_a_probe() {
    let samples = sample_encodings();
    for (ty, tags) in declared_enums() {
        for (tag, variant) in tags {
            assert!(
                samples
                    .iter()
                    .any(|p| p.ty == ty && p.bytes.first() == Some(tag)),
                "{ty}::{variant} (tag {tag}) has no probe in sample_encodings"
            );
        }
    }
}

/// An unknown refusal tag, and the one tag every host-only error encodes as,
/// are typed codec errors: a host error never passes for an enclave refusal.
#[test]
fn unknown_and_host_only_refusal_tags_are_codec_errors() {
    let unknown = EcallResponse::decode_all(&[2, 0xfe]);
    assert_eq!(unknown, Err(CodecError::InvalidTag(0xfe)));
    let host_only = EcallResponse::Rejected(CertError::PipelineClosed).to_encoded_bytes();
    assert_eq!(host_only, [2, 0xff]);
    let refused = EcallResponse::decode_all(&host_only);
    assert!(
        matches!(refused, Err(CodecError::Invalid(_))),
        "{refused:?}"
    );
}

/// Every sample decodes, and its type's size accounting is exact whether
/// `encoded_len` is overridden or not — `ServiceProvider` observes a
/// served proof's size through it instead of serializing the proof twice.
#[test]
fn sample_encodings_round_trip() {
    for p in sample_encodings() {
        assert!(
            (p.decode_ok)(&p.bytes),
            "{}: canonical encoding must decode",
            p.name
        );
        assert_eq!(p.encoded_len, p.bytes.len(), "{}: encoded_len", p.name);
    }
}

#[test]
fn every_truncation_of_every_type_fails_cleanly() {
    for p in sample_encodings() {
        for cut in 0..p.bytes.len() {
            assert!(
                !(p.decode_ok)(&p.bytes[..cut]),
                "{}: truncation at {cut}/{} must fail",
                p.name,
                p.bytes.len()
            );
        }
    }
}

#[test]
fn every_decoder_survives_every_other_types_encoding() {
    // Cross-wiring: each type's valid bytes fed to all other decoders.
    for p in sample_encodings() {
        try_decode_everything(&p.bytes);
    }
}

#[test]
fn empty_input_is_rejected_by_every_decoder() {
    // Most types need at least one byte; none may panic on zero bytes.
    try_decode_everything(&[]);
}

#[test]
fn length_prefix_bombs_are_bounded() {
    // A 4 GB length prefix must be rejected before any allocation.
    let mut bytes = Vec::new();
    u32::MAX.encode(&mut bytes);
    bytes.extend_from_slice(&[0u8; 64]);
    assert!(Vec::<u8>::decode_all(&bytes).is_err());
    let _ = Block::decode_all(&bytes);
    let _ = SmtProof::decode_all(&bytes);
    // `Certify`'s link and index lists: a count prefix past what the
    // payload holds — by one item, or by four billion — is refused, not
    // trusted.
    let (request, [links_at, indexes_at]) = certify();
    let honest = request.to_encoded_bytes();
    for (at, held) in [(links_at, 1u32), (indexes_at, 2)] {
        assert_eq!(honest[at..at + 4], held.to_be_bytes());
        for count in [held + 1, u32::MAX] {
            let mut bytes = honest.clone();
            bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
            assert!(
                EcallRequest::decode_all(&bytes).is_err(),
                "count {count} at {at}"
            );
        }
    }
}

/// The store's frame readers size their one payload buffer from the
/// length prefix, so [`MAX_FRAME`] is all that stands between a corrupt
/// header on untrusted disk and an allocation of its choosing: one past
/// the cap is refused before any buffer, and the cap itself over a short
/// body is a torn tail.
#[test]
fn frame_length_bombs_stop_at_the_frame_cap() {
    let header = |len: u64| {
        let mut bytes = u32::try_from(len)
            .expect("a u32 length")
            .to_be_bytes()
            .to_vec();
        bytes.extend_from_slice(&[0; 4]); // crc
        bytes.extend_from_slice(&[0xAB; 64]); // a short body
        bytes
    };
    let oversize = header(MAX_FRAME + 1);
    let scan = scan_frames(oversize.as_slice()).expect("a slice reads");
    assert_eq!(scan.stop, Some(ScanStop::OversizeFrame));
    assert_eq!((scan.records.len(), scan.valid_len), (0, 0));
    assert_eq!(
        decode_framed(&oversize),
        Err(StoreError::HeadCorrupt {
            detail: "oversize frame"
        })
    );

    let at_cap = header(MAX_FRAME);
    let scan = scan_frames(at_cap.as_slice()).expect("a slice reads");
    assert_eq!(scan.stop, Some(ScanStop::ShortPayload));
    assert_eq!((scan.records.len(), scan.valid_len), (0, 0));
    assert_eq!(
        decode_framed(&at_cap),
        Err(StoreError::HeadCorrupt {
            detail: "frame length mismatch"
        })
    );
}

#[test]
fn hash_decode_requires_exactly_32_bytes() {
    assert!(Hash::decode_all(&[0u8; 31]).is_err());
    assert!(Hash::decode_all(&[0u8; 33]).is_err());
    assert!(Hash::decode_all(&[0u8; 32]).is_ok());
}

fn sample_head_state() -> HeadState {
    HeadState {
        seq: 7,
        durable_height: 4,
        segments: vec![SegmentMark {
            index: 1,
            durable_len: 512,
        }],
        entries: vec![("sp.cert.history".to_string(), vec![0xAB; 24])],
    }
}

/// The head-slot file decoder (magic + one CRC frame) must reject every
/// truncation and every single-byte corruption of a valid slot — a torn
/// or bit-rotted head write can never decode to a wrong watermark.
#[test]
fn head_slot_file_damage_fails_cleanly() {
    let slot = sample_head_state().encode_slot_file().expect("encodes");
    assert!(HeadState::decode_slot_file(HEAD_SLOT_A, &slot).is_ok());
    for cut in 0..slot.len() {
        assert!(
            HeadState::decode_slot_file(HEAD_SLOT_A, &slot[..cut]).is_err(),
            "truncation at {cut}/{} must fail",
            slot.len()
        );
    }
    for pos in 0..slot.len() {
        let mut bytes = slot.clone();
        bytes[pos] ^= 0x01;
        assert!(
            HeadState::decode_slot_file(HEAD_SLOT_A, &bytes).is_err(),
            "flipped byte {pos} must fail"
        );
    }
}

/// The segment frame scanner must yield exactly a *prefix* of the
/// original records for every truncation and single-byte corruption of a
/// valid frame stream — never a wrong record, never a panic.
#[test]
fn segment_frame_stream_damage_yields_record_prefix() {
    let originals: Vec<Record> = (1..=3u64)
        .map(|h| Record::new(h, StreamId::Cert, vec![h as u8; 48]))
        .collect();
    let mut stream = Vec::new();
    for record in &originals {
        append_frame(&record.to_encoded_bytes(), &mut stream).expect("frames");
    }
    let full = scan_frames(stream.as_slice()).expect("a slice reads");
    assert_eq!(full.records, originals);
    assert_eq!(full.valid_len, stream.len() as u64);
    assert_eq!(full.stop, None);

    let mut damaged: Vec<Vec<u8>> = (0..stream.len())
        .map(|cut| stream[..cut].to_vec())
        .collect();
    damaged.extend((0..stream.len()).map(|pos| {
        let mut bytes = stream.clone();
        bytes[pos] ^= 0x01;
        bytes
    }));
    for (case, bytes) in damaged.iter().enumerate() {
        let scan = scan_frames(bytes.as_slice()).expect("a slice reads");
        assert!(scan.valid_len as usize <= bytes.len(), "case {case}");
        assert_eq!(
            scan.records,
            originals[..scan.records.len()],
            "case {case}: surviving records must be a prefix"
        );
        assert_eq!(
            scan.stop.is_none(),
            scan.valid_len as usize == bytes.len(),
            "case {case}: a scan stops early iff bytes remain"
        );
    }
}

fn pruned<F: Flavor>(label: &[u8]) -> Shape<F> {
    let (hash, ann) = (hash_bytes(label), Annotation::EMPTY);
    Shape::Pruned(Summary { hash, ann })
}

/// Round-trips a hand-built op program through the wire codec, yielding a
/// proof exactly as a verifier would see it from an untrusted prover.
fn op_proof<F: Flavor>(program: &[ProofOp<F>]) -> OpProof<F> {
    let mut bytes = Vec::new();
    encode_seq(program, &mut bytes);
    OpProof::decode_all(&bytes).expect("syntactically valid op stream decodes")
}

/// A `Push` / `Parent` chain `levels` internal nodes deep above one leaf:
/// the tree deepens while the stack never grows past two entries.
fn parent_chain<F: Flavor>(levels: usize) -> Vec<ProofOp<F>> {
    let mut program = vec![ProofOp::Push(Shape::Leaf(Vec::new()))];
    for _ in 0..levels {
        program.push(ProofOp::Push(Shape::Internal(Vec::new())));
        program.push(ProofOp::Parent);
    }
    program
}

/// Adversarial stack programs — underflow, overflow, over-deep chains,
/// wrong arities, attaches to non-shells — in either flavor's nodes.
fn hostile_programs<F: Flavor>() -> Vec<Vec<ProofOp<F>>> {
    let leaf = || ProofOp::Push(Shape::Leaf(Vec::new()));
    vec![
        // Stack underflow in every shape.
        vec![ProofOp::Parent],
        vec![ProofOp::Child],
        vec![leaf(), ProofOp::Parent],
        // Attach to a non-shell node.
        vec![leaf(), leaf(), ProofOp::Child],
        // Trailing operands left on the stack.
        vec![leaf(), leaf()],
        // Arity mismatch: one separator demands two children, got none.
        vec![ProofOp::Push(Shape::Internal(vec![5]))],
        // A pruned root proves nothing.
        vec![ProofOp::Push(pruned(b"root"))],
        // Empty stream only proves the empty tree (`Hash::ZERO`).
        vec![],
        // Stack overflow: one more push than the executor's bound.
        (0..=MAX_OP_STACK).map(|_| leaf()).collect(),
        // Depth bomb: one level past the depth bound.
        parent_chain(MAX_PROOF_DEPTH + 1),
    ]
}

/// Hostile programs must be rejected by the bounded executor with typed
/// errors, never a panic and never an accepted verification against a
/// root they don't hash to. (A program with another family's nodes does
/// not get that far — it does not decode: `ops::tests::family_mix_rejected`.)
#[test]
fn hostile_op_programs_fail_verification_cleanly() {
    let root = hash_bytes(b"not the zero root");
    for (i, program) in hostile_programs::<Plain>().iter().enumerate() {
        let mb = op_proof(program);
        assert!(
            mb.verify(&root, 0, u64::MAX, &[]).is_err(),
            "program {i} must fail MB verification"
        );
    }
    for (i, program) in hostile_programs::<Summed>().iter().enumerate() {
        assert!(
            op_proof(program)
                .verify(&root, 0, u64::MAX, &Aggregate::EMPTY)
                .is_err(),
            "program {i} must fail aggregate verification"
        );
    }
    // A window has one program: no op reads tag 1 (only `Push`, 0, carries
    // a node), so re-tagging an honest push does not decode.
    let mut retagged = Vec::new();
    encode_seq(
        &[ProofOp::<Plain>::Push(Shape::Internal(vec![7]))],
        &mut retagged,
    );
    retagged[4] = 1;
    assert_eq!(
        MbOpProof::decode_all(&retagged),
        Err(CodecError::InvalidTag(1))
    );
}

/// Hostile depth is a typed refusal, not a stack overflow — checked on a
/// thread whose stack (256 KiB) a decoder recursing on untrusted bytes,
/// or an unbounded walk, exhausts long before 20 000 levels. Through each
/// windowed payload decoder and its verifier, behind an honest
/// upper-tree prefix so the verifier reaches the lower proof: (a) the
/// byte pattern that nested the retired per-path form 20 000 nodes deep,
/// (b) a 20 000-deep `parent_chain`, (c) 10^6 bare `Push`es. What was
/// decoded is a flat `Vec`, so dropping it does not recurse either.
#[test]
fn hostile_depth_is_refused_not_overflowed() {
    /// The lower-proof bytes of (a), (b) and (c), in `F`'s nodes.
    fn lowers<F: Flavor>() -> [Vec<u8>; 3] {
        let legacy = [vec![1], [1, 0, 0, 0, 0, 0, 0, 0, 1, 1].repeat(20_000)].concat();
        let wide = vec![ProofOp::<F>::Push(Shape::Leaf(Vec::new())); 1_000_000];
        let [deep, wide] = [parent_chain(20_000), wide].map(|program| {
            let mut bytes = Vec::new();
            encode_seq(&program, &mut bytes);
            bytes
        });
        [legacy, deep, wide]
    }
    fn run() {
        let key = StateKey::new("kvstore", b"balance");
        let lower_root = hash_bytes(b"lower root");
        let mut upper = SparseMerkleTree::new();
        upper.insert(*key.as_hash(), lower_root.as_bytes().to_vec());
        let digest = upper.root();
        let mut proof_prefix = upper.prove(&[*key.as_hash()]).to_encoded_bytes();
        Some(lower_root).encode(&mut proof_prefix);
        proof_prefix.push(1); // `lower: Some(..)`

        let refusal = |why: &'static str| Err(QueryError::Proof(ProofError::Malformed(why.into())));
        macro_rules! refused {
            ($decode:path, $verify:path, $answer:expr, $lowers:expr) => {{
                let client = |lower: &[u8]| -> Result<(), QueryError> {
                    let payload = [&$answer.to_encoded_bytes(), &proof_prefix[..], lower].concat();
                    let (answer, proof) = $decode(&payload)?;
                    $verify(&digest, &key, 0, u64::MAX, &answer, &proof)
                };
                let [legacy, deep, wide] = $lowers;
                assert!(matches!(client(legacy), Err(QueryError::Codec(_))));
                assert_eq!(client(deep), refusal("op-stream proof too deep"));
                assert_eq!(client(wide), refusal("op stack overflow"));
            }};
        }
        let (rows, plain) = (0u32, lowers::<Plain>());
        let (none, summed) = (Aggregate::EMPTY, lowers::<Summed>());
        refused!(decode_history_payload, verify_history, rows, &plain);
        refused!(decode_history_op_payload, verify_history_op, rows, &plain);
        refused!(decode_aggregate_payload, verify_aggregate, none, &summed);
        refused!(
            decode_aggregate_op_payload,
            verify_aggregate_op,
            none,
            &summed
        );
    }
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(run)
        .expect("thread spawns")
        .join()
        .expect("every hostile payload is refused, none overflows the stack");
}

/// Arbitrary op programs (syntactically valid, semantically hostile)
/// never panic either executor — they verify or fail typed.
#[test]
fn prop_random_op_programs_never_panic() {
    fn program<F: Flavor>(selectors: &[u8], digest: fn(u8) -> F::Digest) -> OpProof<F> {
        let op = |&b: &u8| match b % 6 {
            0 => ProofOp::Parent,
            1 => ProofOp::Child,
            2 => ProofOp::Push(Shape::Leaf(vec![(b as u64, digest(b))])),
            3 => ProofOp::Push(Shape::Internal(vec![b as u64])),
            4 => ProofOp::Push(Shape::Internal(vec![b as u64, b as u64 + 7])),
            _ => ProofOp::Push(pruned(&[b, 1])),
        };
        op_proof(&selectors.iter().map(op).collect::<Vec<_>>())
    }
    check("prop_random_op_programs_never_panic", 192, |g| {
        let selectors = g.vec(0..48, |g| g.any::<u8>());
        let root = hash_bytes(b"prop root");
        let mb = program::<Plain>(&selectors, |b| hash_bytes([b]));
        let _ = mb.verify(&root, 0, u64::MAX, &[]);
        let agg = program::<Summed>(&selectors, u64::from);
        let _ = agg.verify(&root, 0, 9, &Aggregate::EMPTY);
    });
}

/// Arbitrary junk never panics any decoder.
#[test]
fn prop_random_bytes_never_panic() {
    check("prop_random_bytes_never_panic", 192, |g| {
        try_decode_everything(&g.vec(0..1024, |g| g.any::<u8>()));
    });
}

/// One flipped byte in a valid encoding never panics any decoder —
/// including the type's own.
#[test]
fn prop_bitflipped_encodings_never_panic() {
    let samples = sample_encodings();
    check("prop_bitflipped_encodings_never_panic", 192, |g| {
        let (which, pos, flip) = (g.any::<usize>(), g.any::<usize>(), g.range(1u8..=255));
        let p = &samples[which % samples.len()];
        let mut bytes = p.bytes.clone();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        let _ = (p.decode_ok)(&bytes);
        try_decode_everything(&bytes);
    });
}

/// A truncated valid encoding with random junk appended never panics.
#[test]
fn prop_truncated_with_junk_tail_never_panics() {
    let samples = sample_encodings();
    check("prop_truncated_with_junk_tail_never_panics", 192, |g| {
        let (which, cut) = (g.any::<usize>(), g.any::<usize>());
        let p = &samples[which % samples.len()];
        let tail = g.vec(0..64, |g| g.any::<u8>());
        let mut bytes = p.bytes[..cut % bytes_len(&p.bytes)].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = (p.decode_ok)(&bytes);
        try_decode_everything(&bytes);
    });
}

/// Structured prefixes (valid-looking tags + lengths) never panic.
#[test]
fn prop_tagged_junk_never_panics() {
    check("prop_tagged_junk_never_panics", 256, |g| {
        let (tag, len) = (g.range(0u8..8), g.any::<u32>());
        let body = g.vec(0..128, |g| g.any::<u8>());
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.extend_from_slice(&body);
        try_decode_everything(&bytes);
    });
}

/// Mutating one byte of a *valid* encoding either still decodes (to a
/// different value the verifier will reject) or fails cleanly.
#[test]
fn prop_bitflipped_transactions_never_panic() {
    check("prop_bitflipped_transactions_never_panic", 256, |g| {
        let (pos, flip) = (g.range(0usize..160), g.range(1u8..=255));
        let tx = Transaction::sign(
            &Keypair::from_seed([9; 32]),
            7,
            "kvstore",
            b"payload".to_vec(),
        );
        let mut bytes = tx.to_encoded_bytes();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        if let Ok(decoded) = Transaction::decode_all(&bytes) {
            // A decodable mutation must fail signature verification or
            // decode to the identical transaction (flip in ignored
            // range is impossible: every byte is significant).
            if decoded != tx {
                assert!(decoded.verify().is_err() || decoded.id() != tx.id());
            }
        }
    });
}

/// Mutated SMT proofs never panic the verifier, and when a mutation
/// still verifies (e.g. a flipped bit turned an absent key into a
/// *different* absent key — a legitimately different proof), it must
/// not change any authenticated claim about the original keys.
#[test]
fn prop_bitflipped_smt_proofs_sound() {
    check("prop_bitflipped_smt_proofs_sound", 256, |g| {
        let (pos, flip) = (g.range(0usize..4096), g.range(1u8..=255));
        let mut tree = SparseMerkleTree::new();
        for i in 0..20u32 {
            tree.insert(hash_bytes(format!("k{i}")), vec![i as u8]);
        }
        let root = tree.root();
        let original_keys = [hash_bytes("k3"), hash_bytes("missing")];
        let proof = tree.prove(&original_keys);
        let mut bytes = proof.to_encoded_bytes();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        if let Ok(decoded) = SmtProof::decode_all(&bytes) {
            if let Ok(verified) = decoded.verify(&root) {
                // Soundness: every original key the mutated proof still
                // covers must carry the true pre-state value.
                for key in &original_keys {
                    if let Ok(claimed) = verified.pre_value_hash(key) {
                        let truth = tree.get(key).map(hash_bytes);
                        assert_eq!(claimed, truth);
                    }
                }
            }
        }
    });
}

/// The branch-header evidence item (tag 3) put where the honest prover
/// never puts it: in place of every item of a proof in turn, with its bit
/// inside, at the edge of and beyond the key space. Each frame decodes,
/// and the verifier refuses it — typed, no panic.
#[test]
fn smt_branch_headers_anywhere_are_refused_not_panicked() {
    let mut tree = SparseMerkleTree::new();
    for i in 0..20u32 {
        tree.insert(hash_bytes(format!("k{i}")), vec![i as u8]);
    }
    let covered = [hash_bytes("k3"), hash_bytes("k11"), hash_bytes("missing")];
    let frame = tree.prove(&covered).to_encoded_bytes();
    let chunks = smt_frames::chunks(&frame);
    assert!(chunks.len() > 8 && chunks.last().map(|chunk| chunk.end) == Some(frame.len()));
    let (_, honest) = header_proof();
    let honest = honest.to_encoded_bytes();
    let honest = &honest[honest.len() - 102..honest.len() - 3];
    assert_eq!(honest[..3], [3, 0, 4], "tag 3, parting at bit 4");
    for chunk in &chunks {
        for bit in [0u16, 4, 255, 256, u16::MAX] {
            let mut item = honest.to_vec();
            item[1..3].copy_from_slice(&bit.to_be_bytes());
            let mutant = [&frame[..chunk.start], &item, &frame[chunk.end..]].concat();
            let proof = SmtProof::decode_all(&mutant).expect("a header is a well-formed item");
            assert!(
                proof.verify(&tree.root()).is_err(),
                "bit {bit} at {chunk:?}"
            );
        }
    }
}

/// The disclosed-leaf evidence item (tag 1) put where the honest prover
/// never puts it: in place of every item of a proof in turn, as each leaf
/// of the tree with its true value hash and as a leaf the tree does not
/// hold. Each frame decodes, and the verifier refuses it — typed, no panic;
/// where a leaf stands in for its own hash beside a live side, with the
/// refusal that names that.
#[test]
fn smt_disclosed_leaves_anywhere_are_refused_not_panicked() {
    let leaf = |i: u32| (hash_bytes(format!("k{i}")), hash_bytes([i as u8]));
    let mut tree = SparseMerkleTree::new();
    for i in 0..20u32 {
        tree.insert(leaf(i).0, vec![i as u8]);
    }
    let covered = [hash_bytes("k3"), hash_bytes("k11"), hash_bytes("missing")];
    let frame = tree.prove(&covered).to_encoded_bytes();
    let chunks = smt_frames::chunks(&frame);
    assert!(chunks.len() > 8 && chunks.last().map(|chunk| chunk.end) == Some(frame.len()));
    let stranger = (hash_bytes("stranger"), hash_bytes(b"v"));
    let beside_live = Some(ProofError::Malformed(
        "disclosed leaf beside a live side".into(),
    ));
    let mut named = 0;
    for chunk in &chunks {
        for (key, value_hash) in (0..20).map(leaf).chain([stranger]) {
            let item = [&[1][..], key.as_bytes(), value_hash.as_bytes()].concat();
            if frame[chunk.clone()] == item[..] {
                continue; // the honest disclosure of a leaf beside an empty side
            }
            let mutant = [&frame[..chunk.start], &item, &frame[chunk.end..]].concat();
            let proof = SmtProof::decode_all(&mutant).expect("a leaf is a well-formed item");
            let refusal = proof.verify(&tree.root()).err();
            assert!(refusal.is_some(), "leaf {key} at {chunk:?}");
            named += usize::from(refusal == beside_live);
        }
    }
    assert!(named > 0, "no leaf stood in for its own hash");
}

/// Mutated certificates never panic and never validate.
#[test]
fn prop_bitflipped_certificates_safe() {
    check("prop_bitflipped_certificates_safe", 256, |g| {
        let (pos, flip) = (g.range(0usize..512), g.range(1u8..=255));
        let (cert, _) = certificate();
        let ias_key = AttestationService::with_seed([1; 32]).public_key();
        let measurement = hash_bytes(b"program");
        cert.verify(&ias_key, &measurement, &cert.digest).unwrap();

        let mut bytes = cert.to_encoded_bytes();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        if let Ok(decoded) = Certificate::decode_all(&bytes) {
            if decoded != cert {
                assert!(
                    decoded
                        .verify(&ias_key, &measurement, &cert.digest)
                        .is_err(),
                    "a mutated certificate must never verify"
                );
            }
        }
    });
}

fn bytes_len(bytes: &[u8]) -> usize {
    bytes.len().max(1)
}
