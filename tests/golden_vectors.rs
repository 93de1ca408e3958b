//! Byte-identity against the past: every constant below was produced by
//! the two hand-copied tree modules (`merkle::mbtree`, `merkle::aggmb`)
//! and the two hand-copied index modules (`query::history`,
//! `query::aggregate`) at commit 848016d, immediately before they were
//! collapsed into one generic core. Certificates already issued bind
//! these digests, so the unified code must reproduce each one exactly —
//! roots after every insert, and the SHA-256 of every encoded proof form.
//! (Twelve rows — `mb/*/range`, `agg/*/aggregate`, `{history,aggregate}/*/proof`
//! — left with the per-path window-proof format they pinned; the op rows,
//! captured beside them, pin the one form a window proof has; the three
//! `mb/*` non-membership rows left with that API. The eighteen
//! `{history,aggregate}/{3,4,16}/{aux,digest,op_proof}` rows were
//! re-captured at PR 21, the commit after 328719a: the upper level of the
//! two-level index became the sparse Merkle tree — one single-key proof a
//! query, one multiproof an update — so every digest, aux payload and proof
//! envelope moved, once. At the commit after b725985, the three
//! `history/{3,4,16}/op_proof` rows moved again, with the single-key upper
//! proof each carries: a lone leaf beside a live side crosses as its hash.
//! No `aux`, `digest` or `aggregate/*` row moved. Every `mb/*` and `agg/*`
//! row is byte-identical to 848016d: the B+-tree and its window proof were
//! not touched.)
//!
//! `CERT_GOLDEN` does the same for certification: it was captured at
//! commit ea994e5, while `CertificateIssuer`, `CertPipeline` and
//! `ShardedCertEngine` were still three separate prepare → marshal →
//! ECall → sign programs, and pins — per engine and per scheme — the
//! SHA-256 of the encoded certificate stream over one fixed chain plus
//! the boundary work behind it (ECalls, bytes in and out, marshalling
//! bytes served from the reused buffer). Now that the three engines are
//! drivers of one core these constants, with `bench::naive` (an
//! independent second certification program), are the reference. All 28
//! rows were re-captured at PR 21, the commit after 328719a, with the three
//! engines still byte-identical to each other: `CODE_IDENTITY` went to `v2`
//! (the measurement is in every attestation report), every state root
//! follows the position-binding branch rule, and the index digests follow
//! the upper level. Inside the `work` rows `certs=`, `ecalls=` and
//! `response_bytes=` did not move; `request_bytes` / `marshal_reuse_bytes`
//! follow the proof bytes (+66 a disclosed header on the state proof,
//! about −1.4 KB a block on the history index's aux). The three
//! `cert/*/hierarchical/work` rows — counts of boundary work, not
//! certificate bytes — were re-captured at PR 22, the commit after 7c4f0e1:
//! Algorithm 5 crosses once a block (one fused request) instead of once for the
//! block and once per index, so over 6 blocks × 2 indexes `ecalls=` went
//! 18 → 6, `request_bytes=` 34913 → 15577 (the block is marshalled once, the
//! write set and its second proof not at all) and `response_bytes=`
//! 1170 → 1182 (6 signature lists with a count prefix instead of 18 bare
//! signatures). Their `…/stream` rows, and the other 25 rows, did not move.
//! After 998a08d the restored shard enclave reports its ECalls too, so only
//! `cert/fleet{1,2}/work` moved: `ecalls=` 4 → 7 / 7 → 9, `request_bytes=`
//! 3184 → 9039 / 7708 → 9463, `response_bytes=` 520 → 683 / 683 → 781.
//! At PR 51, the commit after 7424420, the plain, batched and hierarchical
//! requests became one `Certify { prev_header, prev_cert, links, indexes }`
//! and every signing request is answered by a signature list, so every
//! `…/work` row moved by framing alone, and no `…/stream` row moved:
//! `request_bytes=` +8 per block request (two count prefixes), +4 per batch
//! and per hierarchical request (one), −1 per `AugSigGen` (it no longer
//! carries the absent block `prev_cert`); `response_bytes=` +4 per answer
//! that was a lone signature (block, batch, `AugSigGen`, `RangeSigGen`).
//! Over 6 blocks, 3 batches, 12 augmented crossings and 6 hierarchical
//! ones: block 9571 → 9619 / 390 → 414, batch 8383 → 8395 / 195 → 207,
//! augmented 22564 → 22552 / 780 → 828, hierarchical 15577 → 15601 / 1182,
//! fleet1 / fleet2 response 683 → 695 / 781 → 797 (3 / 4 range answers);
//! `marshal_reuse_bytes=` follows the request lengths.
//! At the commit after b725985, a lone leaf beside a live side
//! crosses in an SMT proof as its 32-byte hash instead of its key and value
//! hash (`smt.rs`, "Proof layout"), so every `…/work` row's `request_bytes=`
//! and `marshal_reuse_bytes=` moved with the state proofs and the index
//! updates' aux, and nothing else did: `request_bytes=` block 9619 → 9267,
//! batch 8395 → 8043, augmented 22552 → 21688, hierarchical 15601 → 15089
//! (the same on `pipeline1`), fleet1 9039 → 8687, fleet2 9463 → 9111. No
//! `…/stream` row moved.
//!
//! To re-capture (only ever legitimate at a commit that intends to break
//! the wire format): empty the table, run the test, paste the table it
//! prints.

mod common;

use std::borrow::Cow;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

use dcert::baselines::{lineage::LineageIndex, skiplist::AuthSkipList};
use dcert::chain::consensus::ConsensusProof;
use dcert::chain::{Block, BlockHeader, ChainError, Transaction};
use dcert::core::{
    BatchLink, CertBreakdown, CertError, CertJob, CertPipeline, Certificate, EcallRequest,
    EcallResponse, Gossip, IndexInput, NetMessage, PipelineConfig, RangeCert, ShardFailurePlan,
    ShardFleetConfig, SharedStore,
};
use dcert::merkle::btree::{Plain, Shape, Summary, Summed};
use dcert::merkle::{mht, AggMbTree, MbTree, ProofError, ProofOp, SmtProof, SparseMerkleTree};
use dcert::obs::Registry;
use dcert::primitives::codec::{Decode, Encode, Tagged};
use dcert::primitives::error::CodecError;
use dcert::primitives::hash::{hash_bytes, Address, Hash, Hasher};
use dcert::primitives::keys::{Keypair, SecretBytes};
use dcert::query::aggregate::AggregateIndex;
use dcert::query::history::HistoryIndex;
use dcert::query::sp::IndexKind;
use dcert::query::{CertifiedEntry, InvertedIndex};
use dcert::serve::{
    encode_history_payload, FoldState, ProofCache, QuerySpec, RefusalReason, ServeRefusal,
    ServeRequest, ServeResponse, ServeWire,
};
use dcert::sgx::{sealing, AttestationService, Quote, SgxError};
use dcert::store::{HeadState, MemStore, Record, SegmentMark, SegmentStore, StoreConfig, StreamId};
use dcert::vm::StateKey;
use dcert::workloads::cpuheavy::CpuHeavyCall;
use dcert::workloads::ioheavy::IoHeavyCall;
use dcert::workloads::kvstore::KvCall;
use dcert::workloads::smallbank::BankCall;
use dcert::workloads::Workload;
use dcert::world::{World, MEMO_INDEXES};

/// Fixed insert sequence: seventeen rightmost appends (enough to split an
/// order-16 leaf), two out-of-order inserts, one replacement.
const INSERTS: [u64; 20] = [
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4, 100, 13,
];
const ORDERS: [usize; 3] = [3, 4, 16];
const WINDOW: (u64, u64) = (5, 144);

fn digest_of(value: &impl Encode) -> String {
    hash_bytes(value.to_encoded_bytes()).to_string()
}

fn computed() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let (lo, hi) = WINDOW;
    for order in ORDERS {
        let mut mb = MbTree::new(order);
        let mut agg = AggMbTree::new(order);
        for (i, ts) in INSERTS.iter().enumerate() {
            mb.insert(*ts, format!("v{ts}-{i}").into_bytes());
            agg.insert(*ts, ts * 7 + i as u64);
            out.push((format!("mb/{order}/root/{i}"), mb.root().to_string()));
            out.push((format!("agg/{order}/root/{i}"), agg.root().to_string()));
        }
        out.push((format!("mb/{order}/append"), digest_of(&mb.prove_append())));
        out.push((format!("mb/{order}/ops"), digest_of(&mb.window(lo, hi).1)));
        out.push((
            format!("agg/{order}/append"),
            digest_of(&agg.prove_append()),
        ));
        out.push((format!("agg/{order}/ops"), digest_of(&agg.window(lo, hi).1)));

        // The two-level indexes: twelve blocks over two keys (one written
        // every block, one every third), then the last block's `aux`, the
        // digest it leads to, and both query-proof envelopes.
        let alice = StateKey::new("smallbank", b"alice");
        let bob = StateKey::new("smallbank", b"bob");
        let mut history = HistoryIndex::with_order(order);
        let mut aggregate = AggregateIndex::with_order(order);
        let mut last = None;
        for height in 1..=12u64 {
            let mut writes = vec![(alice, Some((100 + height).to_be_bytes().to_vec()))];
            if height % 3 == 0 {
                writes.push((bob, (height % 2 == 0).then(|| b"memo".to_vec())));
            }
            writes.sort_by_key(|(k, _)| *k.as_hash());
            last = Some((
                history.apply_block(height, &writes),
                aggregate.apply_block(height, &writes),
            ));
        }
        let ((h_aux, h_digest), (a_aux, a_digest)) = last.expect("twelve blocks applied");
        out.push((
            format!("history/{order}/aux"),
            hash_bytes(&h_aux).to_string(),
        ));
        out.push((format!("history/{order}/digest"), h_digest.to_string()));
        out.push((
            format!("aggregate/{order}/aux"),
            hash_bytes(&a_aux).to_string(),
        ));
        out.push((format!("aggregate/{order}/digest"), a_digest.to_string()));
        out.push((
            format!("history/{order}/op_proof"),
            digest_of(&history.query(&alice, 3, 9).1),
        ));
        out.push((
            format!("aggregate/{order}/op_proof"),
            digest_of(&aggregate.query(&alice, 3, 9).1),
        ));
    }
    out
}

/// Fails with a paste-ready table unless `computed` equals `golden` row for
/// row.
fn assert_golden(computed: &[(String, String)], golden: &[(&str, &str)]) {
    let matches = computed.len() == golden.len()
        && computed
            .iter()
            .zip(golden)
            .all(|((label, hex), (want_label, want_hex))| label == want_label && hex == want_hex);
    if !matches {
        for ((label, hex), want) in computed
            .iter()
            .zip(golden.iter().map(Some).chain(std::iter::repeat(None)))
        {
            if !want.is_some_and(|(l, h)| l == label && h == hex) {
                eprintln!("MISMATCH {label}: computed {hex}, golden {want:?}");
            }
        }
        eprintln!("--- computed table ---");
        for (label, hex) in computed {
            eprintln!("    (\"{label}\", \"{hex}\"),");
        }
        panic!("golden vectors diverged (see stderr)");
    }
}

#[test]
fn unified_core_reproduces_pre_refactor_bytes() {
    assert_golden(&computed(), GOLDEN);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("mb/3/root/0", "f25b2d62a80ba5a055bbc81d8967b7cf0bc8db9c2ed091edf97537e87bb5ee92"),
    ("agg/3/root/0", "604304e944019e1fd82e27c1b290a634f2f3415aa61aa1604e25d40dd17e311a"),
    ("mb/3/root/1", "e0bff3784d3adac94a0bc6e64b10ec5656dbbb8127cb649ee9e5b1d359c0ada5"),
    ("agg/3/root/1", "99f87c39395e8f1d327565911d42d588a858bb58b388586dc598de3cb0371173"),
    ("mb/3/root/2", "e0926b6f6aaf4da638abffc71125ad4b0f77a8d9f1251928970414f83abd09a3"),
    ("agg/3/root/2", "46fbeabb87b4dbaaf5356bc43b449fc75923c4391fd80f021a7dbec8a30325d6"),
    ("mb/3/root/3", "cc368d4a8f8c15dded1145afd76cf7db9a4d3e43c38fa844b3bb75751adc081b"),
    ("agg/3/root/3", "65cc806e1e072bc3597b57d38e18a027f2c808342afb074c892929686b062943"),
    ("mb/3/root/4", "56219670ba1cba1d7c28ec68a8767003c9cd256d04270e703b88f3a33c8afd64"),
    ("agg/3/root/4", "760f77edaa73371a98894bf68b652d183ca35b4f94a8dfbad0446ba35dc6d226"),
    ("mb/3/root/5", "f3057f79d183ec8d33c87b64c6aec9ca5898039a6e0e0b956c26c5da97ce97f1"),
    ("agg/3/root/5", "d560576661ef964227977c89b68362dec97891aec4d6d0001d2b5be65f79c0fb"),
    ("mb/3/root/6", "2c126bcf0fe0d9222a106685fdf03a2287b6dce3719a1e06afd4ca3208234b8c"),
    ("agg/3/root/6", "60be32ef31da48691fc90b9563ac8fc2ad79cd62de16ce7f5ad4b93e678f8b01"),
    ("mb/3/root/7", "9e9c41a6c6095488c0f0d286b79316cd0c8255ccdc3729a4726368485e8a8b7d"),
    ("agg/3/root/7", "0f30c46d283a0c2a86e547dfc8626a4d48a41a01eac10137257a30f73e54240c"),
    ("mb/3/root/8", "a09c582880b21ac8da9f57a1db5919d0f04ece0f05033c95a308fea0f933d4da"),
    ("agg/3/root/8", "5761b6cf44e969bea553c391bf7e6ad29676ba94eda5eee50ea2faf7ce6237b5"),
    ("mb/3/root/9", "b200d883e2995626848ddfb7f9eb96c310c35cdf14a58d7d7e21b4f2434c6c03"),
    ("agg/3/root/9", "c980edc09e8bb8dc46a966f8a50f0d037db2f22a79b91ea88eb5dfa1fe7c5e0d"),
    ("mb/3/root/10", "8299e93f809e0ae12550052a6f3610f91f14404c4ca2f8b0011e92764c221906"),
    ("agg/3/root/10", "7ec8876877dd7539ecfc1b7412dcd3b1361b96e97c8bc44f713a8312c43a47d9"),
    ("mb/3/root/11", "3f25b67016e905f62c7af0c4a62d3a857581cb5f3ec8da342de2bd6f6fdde899"),
    ("agg/3/root/11", "f1fdd495ac7786985ce144c193b56d6ce26642e01ad1abc93787f6e0e928c892"),
    ("mb/3/root/12", "d309a610b8b5042d9ee3319df60d1a9cc23ed413676734e59f610c0861372cd2"),
    ("agg/3/root/12", "9bfda60bb9c42928eb398efea144ddaa473ef909c5c37a92bd75ed5fca4be296"),
    ("mb/3/root/13", "999cba8f1552f58dcd17c4ddaaf42474958cebbb75292f7b982e40e7683c0050"),
    ("agg/3/root/13", "d852e12e47b31a8274361ecb218da524741351ca595d1e072a1e04ce9532f737"),
    ("mb/3/root/14", "12d190daac3f4ab4a0e061c84547c1dfc65cb4e9021f7923a9175006ab8f68bb"),
    ("agg/3/root/14", "91fd063e03492cf64d1615a8b20333b2c1d600f50d1af0001b743a2fcbb90c0b"),
    ("mb/3/root/15", "7e1645a9b5e03e187bbe506c506bed237aaa865ec6a113c51b53996f0b11b9c1"),
    ("agg/3/root/15", "32f6f9cebbc9ff37c7b55b7012d99435868700e23033dc1c92fed5a33f90b1de"),
    ("mb/3/root/16", "a3bb73cb6a896c4ccf92cf20ca44844b80f642d3a60e1e874da09b577d06cb1d"),
    ("agg/3/root/16", "cf15f08334f4f420cc94d4d2a25fa4871c8d5f6ba519e68947fe0262a978cb48"),
    ("mb/3/root/17", "2433d8994b974deb4afcb9421468517ef40f7708fa9c4716a95cd7d2fda04e75"),
    ("agg/3/root/17", "7f6911e98f8cdd17b292d814cf51f8877342fc646e8c2f6bf00ea26715690bac"),
    ("mb/3/root/18", "3dc3653c70ec01f2aa71939bc3c4ad9292c6c2417438844f91b2103351583b5e"),
    ("agg/3/root/18", "1d3bd4fda5121dde8cfa17840d8d66126955771534d12857883befd946959b97"),
    ("mb/3/root/19", "3130e0971e9299505ffb2e8a84ff6f389b5d1b41aab6f1153c2ec0abc4fd1aec"),
    ("agg/3/root/19", "f954bd78e53f65d42a4b65789237e40d70024297cb91699a4f56b42f7660ff86"),
    ("mb/3/append", "d563fbb03ce441eb7e26dd002cfd79a582e715586c97cf5fcdc951e4204d66a9"),
    ("mb/3/ops", "ac0e446c58a3cc6476adca9eda854b19150c059d0e2b165c226947cbd15778aa"),
    ("agg/3/append", "553e570c7268983c895a5496e0b368faabcf4012f6655b8f4179b70fcc078b63"),
    ("agg/3/ops", "9ca6ab2902649e8380f164c5a0a6fd0c51a1d8588b2fa8cd3bf1a2ada3810d43"),
    ("history/3/aux", "d4508cb88a7244335a635ef9b2a8f3806fcd9988b7f66314850fbb0275123ccd"),
    ("history/3/digest", "55d85e08301106c0d61a6cf47b183845c01a78a5996e39cc1b6ea944a99b9965"),
    ("aggregate/3/aux", "24fb8650fc83bad810c2c8bcc1ae74834f43195d4289e42d3f90ba06405362d0"),
    ("aggregate/3/digest", "718d05b06740541ec28f75dae5e57931552af1af734756e8ae11fda6f54042ca"),
    ("history/3/op_proof", "b584216a7b84ebc5d302b8f07039a160ef4143b12fe76acdc13bbaf91db7cbb3"),
    ("aggregate/3/op_proof", "27109a1724237f8cf60cde82d65e97809fc6bc5e2eac07fa207c2b6c9183b3ad"),
    ("mb/4/root/0", "f25b2d62a80ba5a055bbc81d8967b7cf0bc8db9c2ed091edf97537e87bb5ee92"),
    ("agg/4/root/0", "604304e944019e1fd82e27c1b290a634f2f3415aa61aa1604e25d40dd17e311a"),
    ("mb/4/root/1", "e0bff3784d3adac94a0bc6e64b10ec5656dbbb8127cb649ee9e5b1d359c0ada5"),
    ("agg/4/root/1", "99f87c39395e8f1d327565911d42d588a858bb58b388586dc598de3cb0371173"),
    ("mb/4/root/2", "e0926b6f6aaf4da638abffc71125ad4b0f77a8d9f1251928970414f83abd09a3"),
    ("agg/4/root/2", "46fbeabb87b4dbaaf5356bc43b449fc75923c4391fd80f021a7dbec8a30325d6"),
    ("mb/4/root/3", "ad0c3084827652dce7614d97b7fcb3b2f20f7148e8886a26e033a9fb081b0e46"),
    ("agg/4/root/3", "cb84e1fa3cb12d5d87d33cfaf914a4b062c9691cc759d4d2ed8ec9cb662dd46e"),
    ("mb/4/root/4", "56219670ba1cba1d7c28ec68a8767003c9cd256d04270e703b88f3a33c8afd64"),
    ("agg/4/root/4", "760f77edaa73371a98894bf68b652d183ca35b4f94a8dfbad0446ba35dc6d226"),
    ("mb/4/root/5", "7af2f117ddcaf6c666b158a2f6860b0cfb17039ea5fb46800df9789958a03a71"),
    ("agg/4/root/5", "84a3bd50dd7ee0d130a7f34bdb1c6d7deedf052974c4c2caa22d232110b78a22"),
    ("mb/4/root/6", "2c126bcf0fe0d9222a106685fdf03a2287b6dce3719a1e06afd4ca3208234b8c"),
    ("agg/4/root/6", "60be32ef31da48691fc90b9563ac8fc2ad79cd62de16ce7f5ad4b93e678f8b01"),
    ("mb/4/root/7", "e600e1e7b0f103172dc0d6cbb849eb4858c7800668b62bd8fa3aa0f4f148159d"),
    ("agg/4/root/7", "c1334dbf7a3093de3cac84b9c5fe4f8bf7b96dbe946b4e2a41354fc158e6d589"),
    ("mb/4/root/8", "4f53e8d79b86eebb9ec14a37eaadbabedbe762d90f95cbc3ae3295089d3c9f38"),
    ("agg/4/root/8", "ee5c2781a40d4c7ad46c285d6aba2158881fd58a0718b6ca5db05b8782005066"),
    ("mb/4/root/9", "2e054fd118390a15492703cc6da579faf93b9d75ad6f9aae13b3506d889327c8"),
    ("agg/4/root/9", "3a105f9a895dff591557911b0998f7fe6566777fe9a81d1457f0f535d6c74aad"),
    ("mb/4/root/10", "8299e93f809e0ae12550052a6f3610f91f14404c4ca2f8b0011e92764c221906"),
    ("agg/4/root/10", "7ec8876877dd7539ecfc1b7412dcd3b1361b96e97c8bc44f713a8312c43a47d9"),
    ("mb/4/root/11", "db38ab617a85053e4c6a12830e3ee8c3bbd50651dde3e7cd02ba8df583acb43b"),
    ("agg/4/root/11", "0240560fee1d60b7978016d12f834a8ee6dcb9a0996db1b83eb30720b4c33274"),
    ("mb/4/root/12", "4cc4e693f7e52082be26a17e4ba487ea6bdcd1b92e79018982f9b8bd427c9b7e"),
    ("agg/4/root/12", "0544d448c3bf02849c77c50497e4c210dac55dde8dc4f0e6ff67dfd39a1943c9"),
    ("mb/4/root/13", "37a74e2ecc4a726550ed7503930a0f5cf2d51566fc78eb0b089b9727e32cbb5f"),
    ("agg/4/root/13", "e81936d93731fc3753dcc0b20ad46673c3191c8784fd265c6f3114ba7b2c8bf9"),
    ("mb/4/root/14", "12d190daac3f4ab4a0e061c84547c1dfc65cb4e9021f7923a9175006ab8f68bb"),
    ("agg/4/root/14", "91fd063e03492cf64d1615a8b20333b2c1d600f50d1af0001b743a2fcbb90c0b"),
    ("mb/4/root/15", "025f39a84ec84315d71e953afc3f027a5e3751d5ee19bd03c3678e02864f7a1e"),
    ("agg/4/root/15", "39870773742e9adb7b537be07dde097d7ffda1d1dd36baf75de76544bf56aa56"),
    ("mb/4/root/16", "4623635105658471fc8c2daa23b6547addf88803fd0c7b7343d40e6ac4d7e210"),
    ("agg/4/root/16", "3ced2d71ceaef9103693f198b698576f4ce6bee53d389c5f034d8c896398f997"),
    ("mb/4/root/17", "b742b9ab1a8e1240a2bae5b1b74e0d56a60969065162864ffb3d86137693d83e"),
    ("agg/4/root/17", "e04b909d3f9a32bbc541859ce033b21e62608218721809cc9d4e59ce661685fc"),
    ("mb/4/root/18", "361775afc68bc877495c76b4417577fba46e4b14825c2d57e3c8047e2ca5f0f2"),
    ("agg/4/root/18", "97bf0325bf2e2b011e8b25e6eb14569af99ddf5757b84a89ecf412e4040ed717"),
    ("mb/4/root/19", "243eef349a3500bc2a0d5f597fb7bdc281837365b52f6b55e654aa5b5aeee85f"),
    ("agg/4/root/19", "6ad74c523e8ccdb0e694ca2498fc31a560342f55e5a2074ff5b70861aaa47348"),
    ("mb/4/append", "715086f82980e1c812ca62e45c5cfc425f82631e02bfaf6908692580aeafa83c"),
    ("mb/4/ops", "54975c24c52458403c8c9a3406659b4e5d8206ee05d5bd3bbd7cb2582648a57f"),
    ("agg/4/append", "d34bcc24c900a33c8304956ca29fe9a3f805169a7ae89cf80b93d4179db66617"),
    ("agg/4/ops", "6e45f456916e7c28994c664d099d5948e3e7e204d32b52b5983809a71cc485a9"),
    ("history/4/aux", "d4508cb88a7244335a635ef9b2a8f3806fcd9988b7f66314850fbb0275123ccd"),
    ("history/4/digest", "892ff04dc92da5dd70b083dad39bc77bdebe74240647d6b52bf57fd97ca29c90"),
    ("aggregate/4/aux", "24fb8650fc83bad810c2c8bcc1ae74834f43195d4289e42d3f90ba06405362d0"),
    ("aggregate/4/digest", "7be15f634963ead2f9bb3a406c0af9c6f1cea6d590a90f9521f318fd064f6094"),
    ("history/4/op_proof", "45d779a3b56c264ae5b0bccd2cb742ab2a3d340b7dca69d4250a3c2defbe9d39"),
    ("aggregate/4/op_proof", "81c7f670985c8119f6c917e6f8d7449ca12121ace43567c999ca2a6fb62047a6"),
    ("mb/16/root/0", "f25b2d62a80ba5a055bbc81d8967b7cf0bc8db9c2ed091edf97537e87bb5ee92"),
    ("agg/16/root/0", "604304e944019e1fd82e27c1b290a634f2f3415aa61aa1604e25d40dd17e311a"),
    ("mb/16/root/1", "e0bff3784d3adac94a0bc6e64b10ec5656dbbb8127cb649ee9e5b1d359c0ada5"),
    ("agg/16/root/1", "99f87c39395e8f1d327565911d42d588a858bb58b388586dc598de3cb0371173"),
    ("mb/16/root/2", "e0926b6f6aaf4da638abffc71125ad4b0f77a8d9f1251928970414f83abd09a3"),
    ("agg/16/root/2", "46fbeabb87b4dbaaf5356bc43b449fc75923c4391fd80f021a7dbec8a30325d6"),
    ("mb/16/root/3", "ad0c3084827652dce7614d97b7fcb3b2f20f7148e8886a26e033a9fb081b0e46"),
    ("agg/16/root/3", "cb84e1fa3cb12d5d87d33cfaf914a4b062c9691cc759d4d2ed8ec9cb662dd46e"),
    ("mb/16/root/4", "8a484a031c9413c136e3f12aa6a39cc034f31e9365b95a1a2af281201ba6feda"),
    ("agg/16/root/4", "8050ab81c57be8fe72cf542d6b65d4c9ad3fc15cf65af571d4e0790e99630727"),
    ("mb/16/root/5", "90b4dfa00a0bd7f9e06be71d53d2e60956ea7b56da51c47e938e6b727a7d2881"),
    ("agg/16/root/5", "17144782d606aeab61bcad3a2d827016d267701abcde584dba7ce95cb3b848ce"),
    ("mb/16/root/6", "4e8569b7990b42faff4317bbf32eb9033f35cc5b1cc481bfde902a5c9963ed14"),
    ("agg/16/root/6", "0d24facfa48ac42d846e3cc705aebe1bf2653df0376816c45a46b16f9aec6be1"),
    ("mb/16/root/7", "37ef151c80ab62b65a44b3bf214e13e63854661ad454c6428955b0f4c46cd52a"),
    ("agg/16/root/7", "a635d7f6d0bd944d5f7a267734eb348fb5e9ad74c3cfbbe614d57df0abc23900"),
    ("mb/16/root/8", "3cc9842997a4ca003178de58cac2ed963d1870771941556ce335439531453359"),
    ("agg/16/root/8", "8ea473af28a0234faf7fc9cb38392a66e5cd702e33441983b43719593c8d9dc6"),
    ("mb/16/root/9", "ec7541b821e90423d82e90427d5382500bb7f42d0b828959687046647fffb0ba"),
    ("agg/16/root/9", "f84e6f566c2ef1dff64805d56cd6b7671eb76727cf4454b1eaabdc8c668896b8"),
    ("mb/16/root/10", "9ff116b9a88194e924d691353b8b66973d0cfe5309679cac5df1a4a5e96e6726"),
    ("agg/16/root/10", "f942c2deb72b3d6fbd556f1ccaae5fbd8d59712c14c232556a04507195d17b88"),
    ("mb/16/root/11", "4b2767cd7aa8dd7e6fc541ea667a4c0441f6b3a7947e3558940a8dea01f655c4"),
    ("agg/16/root/11", "4466b5e7b818ab2180a41ffc7594a6f2e8124d833bfbe016810bf2ebfda29056"),
    ("mb/16/root/12", "8aeb2ba33bd37a84b7ff2eafbdcd4b915a5ff6290bb515d533c8ef10d0148607"),
    ("agg/16/root/12", "484b2ed5fbbd97cd45c72734a920ce4f014149afb4bd5065ca4c7a7afee2b080"),
    ("mb/16/root/13", "8f3373ff8bae62835ad34f540d63b92852b5b1ac7165ee2a695e4142e9aa9af8"),
    ("agg/16/root/13", "01f3d1a79327cef65334576b0c34b7a8214ec328bbbed474e5ec798785116858"),
    ("mb/16/root/14", "59f5870f673fb6a638b5fc5ed288a669b22a8c9008a9b2f1e138b9419b1ebfa5"),
    ("agg/16/root/14", "1115fa0fe9ce6ff5ffcf106fd6ea30923762cae015e656063ea8b0ada7132866"),
    ("mb/16/root/15", "5c99a10cbbde40dcf1e9495fc5b682ff2fe10a71f93971ee35fa7487bb956687"),
    ("agg/16/root/15", "6b6877b4b0f364925bab21214e6f2f72a96b25f998b443493c1ce9ffc1d3e2e8"),
    ("mb/16/root/16", "4f5bd98959e5150f13466252137af85db03e7ad7fc8c4264985a6d52fcb89c74"),
    ("agg/16/root/16", "d8207fd9f256c78263266cd39a111ca9f8ed96752fcd35a3248a15ee576bea8d"),
    ("mb/16/root/17", "f74935b310bddae690c3e3309722cb0f071e718e44b72cb4c461769ab27fa333"),
    ("agg/16/root/17", "a857141bb3b23246994a5c3c3cabc34490f5afa99d7475ffb138c4c0bbf74bf4"),
    ("mb/16/root/18", "87e0df90224f0b2ec9accd4f5004569ad6320d05cd266ecfbe5c2589630cc1ca"),
    ("agg/16/root/18", "c8e409808cc179d50feac565603aa70d888e302fd3e2f42b7b69ddd88c211b95"),
    ("mb/16/root/19", "a9d3b5c759d51bc02cc5a1ecb8baff55f2074c3f7ed19b3933704e2f8b7b50ee"),
    ("agg/16/root/19", "b8d99c874ed54d1d629ae12f8659c02d270d24eb0140efd5313c3f0b382a4cd2"),
    ("mb/16/append", "992e326a21723dbb6bb189dd5269675ed5313d386fcc46e3e17d62c6e4df2f90"),
    ("mb/16/ops", "559e1d2452093547204fbdc8c00f75464744bbe503d55fb49c3f4799a582d8ab"),
    ("agg/16/append", "eb37dcd1963308a361cfe62d0ba822319d2427192601cf1ed679656fe9bf3b12"),
    ("agg/16/ops", "fe81cf68a9dd2c8c0b33f3d896d24ffda97321233b83527001ca02fd526f07ac"),
    ("history/16/aux", "2cd9ead868e954c981ca4d35ebf709ff3c4c47bef21571c1336e206a4e3e7348"),
    ("history/16/digest", "313106055c64deccfc6f287f75f0948d9f0d0274f95672fc4102d467bd4c8498"),
    ("aggregate/16/aux", "6ab77bfe42b1a3a288c22ab5ab02081712a1f4248c4bc2bce6323cef5366558d"),
    ("aggregate/16/digest", "123cd88f66d2208250eca9ff5fa1a375263cf1715b4c8a2763eedf3aa6f24abb"),
    ("history/16/op_proof", "2be5466556b71dbdc5b0a391816c4cdbb034f141c1f6834fb0ef7731f73751f4"),
    ("aggregate/16/op_proof", "9cd03f940bb75ddf16b5c78945bca61f0f4e4e90cb30cb37cf64a51510636204"),
];

// --- certification streams ----------------------------------------------------

/// The four certification schemes, as both the sequential methods and the
/// pipeline's [`CertJob`]s spell them.
#[derive(Clone, Copy)]
enum Scheme {
    Block,
    /// Batches of 3, 1 and 2 blocks.
    Batch,
    Augmented,
    Hierarchical,
}

const SCHEMES: [(&str, Scheme); 4] = [
    ("block", Scheme::Block),
    ("batch", Scheme::Batch),
    ("augmented", Scheme::Augmented),
    ("hierarchical", Scheme::Hierarchical),
];
const BATCH_SHAPE: [usize; 3] = [3, 1, 2];

fn cert_indexes() -> Vec<(IndexKind, &'static str)> {
    vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "keywords"),
    ]
}

/// The one fixed chain every stream certifies: six SmallBank blocks.
fn cert_chain() -> Vec<Block> {
    let mut world = World::pow(&cert_indexes());
    world.mine_blocks(Workload::SmallBank { customers: 16 }, 6, 3, 0x000D_CE47)
}

/// One golden row pair: the stream digest and the boundary work behind it.
fn stream_rows(
    label: &str,
    certs: &[Certificate],
    (ecalls, request_bytes, response_bytes): (u64, u64, u64),
    marshal_reuse_bytes: u64,
    out: &mut Vec<(String, String)>,
) {
    let mut stream = Vec::new();
    for cert in certs {
        cert.encode(&mut stream);
    }
    out.push((format!("{label}/stream"), hash_bytes(&stream).to_string()));
    out.push((
        format!("{label}/work"),
        format!(
            "certs={} ecalls={ecalls} request_bytes={request_bytes} \
             response_bytes={response_bytes} marshal_reuse_bytes={marshal_reuse_bytes}",
            certs.len()
        ),
    ));
}

fn boundary_sum<'a>(breakdowns: impl IntoIterator<Item = &'a CertBreakdown>) -> (u64, u64, u64) {
    breakdowns.into_iter().fold((0, 0, 0), |(e, i, o), b| {
        (e + b.ecalls, i + b.request_bytes, o + b.response_bytes)
    })
}

fn sequential_stream(
    scheme: Scheme,
    blocks: &[Block],
    label: &str,
    out: &mut Vec<(String, String)>,
) {
    let mut world = World::pow(&cert_indexes());
    let registry = Registry::new();
    world.ci.attach_obs(&registry);
    let mut certs = Vec::new();
    let mut breakdowns = Vec::new();
    match scheme {
        Scheme::Block => {
            for block in blocks {
                let (cert, breakdown) = world.ci.certify_block(block).expect("certifies");
                certs.push(cert);
                breakdowns.push(breakdown);
            }
        }
        Scheme::Batch => {
            let mut rest = blocks;
            for len in BATCH_SHAPE {
                let (batch, tail) = rest.split_at(len);
                let (cert, breakdown) = world.ci.certify_batch(batch).expect("certifies");
                certs.push(cert);
                breakdowns.push(breakdown);
                rest = tail;
            }
        }
        Scheme::Augmented => {
            for block in blocks {
                let inputs = world.sp.stage_block(block).expect("sp stages");
                let (index_certs, breakdown) = world
                    .ci
                    .certify_augmented(block, &inputs)
                    .expect("certifies");
                world.sp.advance(Some(&index_certs)).expect("sp advances");
                certs.extend(index_certs);
                breakdowns.push(breakdown);
            }
        }
        Scheme::Hierarchical => {
            for block in blocks {
                let inputs = world.sp.stage_block(block).expect("sp stages");
                let (block_cert, index_certs, breakdown) = world
                    .ci
                    .certify_hierarchical(block, &inputs)
                    .expect("certifies");
                world.sp.advance(Some(&index_certs)).expect("sp advances");
                certs.push(block_cert);
                certs.extend(index_certs);
                breakdowns.push(breakdown);
            }
        }
    }
    let reuse = registry.snapshot().counter("enclave.marshal_reuse_bytes");
    stream_rows(label, &certs, boundary_sum(&breakdowns), reuse, out);
}

fn pipelined_stream(
    scheme: Scheme,
    blocks: &[Block],
    label: &str,
    out: &mut Vec<(String, String)>,
) {
    let mut world = World::pow(&cert_indexes());
    let registry = Registry::new();
    world.ci.attach_obs(&registry);
    let mut stage = |block: &Block| -> Vec<IndexInput> {
        let inputs = world.sp.stage_block(block).expect("sp stages");
        world.sp.advance(None).expect("sp settles");
        inputs
    };
    let jobs: Vec<CertJob> = match scheme {
        Scheme::Block => blocks.iter().cloned().map(CertJob::Block).collect(),
        Scheme::Batch => {
            let mut rest = blocks;
            BATCH_SHAPE
                .iter()
                .map(|len| {
                    let (batch, tail) = rest.split_at(*len);
                    rest = tail;
                    CertJob::Batch(batch.to_vec())
                })
                .collect()
        }
        Scheme::Augmented => blocks
            .iter()
            .map(|block| CertJob::Augmented {
                block: block.clone(),
                indexes: stage(block),
            })
            .collect(),
        Scheme::Hierarchical => blocks
            .iter()
            .map(|block| CertJob::Hierarchical {
                block: block.clone(),
                indexes: stage(block),
            })
            .collect(),
    };
    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    for job in jobs {
        pipeline.submit(job).expect("pipeline accepts jobs");
    }
    let (_, report) = pipeline.shutdown();
    assert_eq!(report.errors, Vec::new(), "no job may fail");
    let mut certs = Vec::new();
    while let Ok(message) = feed.try_recv() {
        match message {
            NetMessage::BlockCert { cert, .. } | NetMessage::IndexCert { cert, .. } => {
                certs.push(cert)
            }
            _ => {}
        }
    }
    let reuse = registry.snapshot().counter("enclave.marshal_reuse_bytes");
    stream_rows(label, &certs, boundary_sum(&report.breakdowns), reuse, out);
}

/// The fleet exposes no breakdowns; its boundary work is read off the
/// `enclave.*` counters every shard and aggregator enclave reports into
/// (boot `Init` calls and the killed shard's restart included).
fn fleet_stream(
    shards: usize,
    kill: (usize, usize),
    blocks: &[Block],
    label: &str,
    out: &mut Vec<(String, String)>,
) {
    let mut world = World::pow(&[]);
    let registry = Registry::new();
    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let mut config = ShardFleetConfig::new(shards, 2);
    config.registry = registry.clone();
    config.store = Some(store);
    config.failures = ShardFailurePlan::none().kill(kill.0, kill.1);
    let mut fleet = world.fleet(config);
    let certs = fleet
        .certify_chain(blocks, &mut world.ias)
        .expect("fleet certifies through the kill");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("shard.kills"), 1, "the scheduled kill fired");
    let c = |name: &str| snap.counter(name);
    let boots = shards as u64 + c("shard.restarts") + c("shard.agg.fresh_boots");
    let closed = boots + c("shard.chunks") + c("shard.agg.folds");
    assert_eq!(c("enclave.ecalls"), closed, "every fleet ECall counted");
    stream_rows(
        label,
        &certs,
        (
            snap.counter("enclave.ecalls"),
            snap.counter("enclave.bytes_in"),
            snap.counter("enclave.bytes_out"),
        ),
        snap.counter("enclave.marshal_reuse_bytes"),
        out,
    );
}

#[test]
fn certification_engines_reproduce_parent_commit_streams() {
    let blocks = cert_chain();
    let mut out = Vec::new();
    for (name, scheme) in SCHEMES {
        sequential_stream(
            scheme,
            &blocks,
            &format!("cert/sequential/{name}"),
            &mut out,
        );
    }
    for (name, scheme) in SCHEMES {
        let label = format!("cert/pipeline1/{name}");
        pipelined_stream(scheme, &blocks, &label, &mut out);
    }
    fleet_stream(1, (0, 1), &blocks, "cert/fleet1", &mut out);
    fleet_stream(2, (1, 1), &blocks, "cert/fleet2", &mut out);
    assert_golden(&out, CERT_GOLDEN);
}

#[rustfmt::skip]
const CERT_GOLDEN: &[(&str, &str)] = &[
    ("cert/sequential/block/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/sequential/block/work", "certs=6 ecalls=6 request_bytes=9267 response_bytes=414 marshal_reuse_bytes=7380"),
    ("cert/sequential/batch/stream", "1ebb4a09d626bf697193bdde7965e1c14b549636539c7d147862acde272ba843"),
    ("cert/sequential/batch/work", "certs=3 ecalls=3 request_bytes=8043 response_bytes=207 marshal_reuse_bytes=4876"),
    ("cert/sequential/augmented/stream", "aa8595d15a547fc311ca23d28510aaf8456108fa89814932c30bf9023ecf6378"),
    ("cert/sequential/augmented/work", "certs=12 ecalls=12 request_bytes=21688 response_bytes=828 marshal_reuse_bytes=19234"),
    ("cert/sequential/hierarchical/stream", "a77317f1df6343584041bd3a96986a4af2a1a1b9a5872418a241a4755a568d1b"),
    ("cert/sequential/hierarchical/work", "certs=18 ecalls=6 request_bytes=15089 response_bytes=1182 marshal_reuse_bytes=12014"),
    ("cert/pipeline1/block/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/pipeline1/block/work", "certs=6 ecalls=6 request_bytes=9267 response_bytes=414 marshal_reuse_bytes=7380"),
    ("cert/pipeline1/batch/stream", "1ebb4a09d626bf697193bdde7965e1c14b549636539c7d147862acde272ba843"),
    ("cert/pipeline1/batch/work", "certs=3 ecalls=3 request_bytes=8043 response_bytes=207 marshal_reuse_bytes=4876"),
    ("cert/pipeline1/augmented/stream", "aa8595d15a547fc311ca23d28510aaf8456108fa89814932c30bf9023ecf6378"),
    ("cert/pipeline1/augmented/work", "certs=12 ecalls=12 request_bytes=21688 response_bytes=828 marshal_reuse_bytes=19234"),
    ("cert/pipeline1/hierarchical/stream", "a77317f1df6343584041bd3a96986a4af2a1a1b9a5872418a241a4755a568d1b"),
    ("cert/pipeline1/hierarchical/work", "certs=18 ecalls=6 request_bytes=15089 response_bytes=1182 marshal_reuse_bytes=12014"),
    ("cert/fleet1/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/fleet1/work", "certs=6 ecalls=7 request_bytes=8687 response_bytes=695 marshal_reuse_bytes=0"),
    ("cert/fleet2/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/fleet2/work", "certs=6 ecalls=9 request_bytes=9111 response_bytes=797 marshal_reuse_bytes=0"),
];

// --- sparse Merkle multiproofs --------------------------------------------------
//
// `SMT_GOLDEN` pins the keyed tree's multiproof: first captured at commit
// 2926b75, while every empty sibling was still one in-memory slot and
// every walk descended to depth 256 per key; all 36 rows re-captured at
// PR 21, the commit after 328719a, where a branch began to hash `bit ‖
// prefix` beside its sides and a subtree beside an empty side to come with
// its header (+66 bytes each: three on the `blocks_io` shape, none on the
// others, whose absent keys part from the tree beside a leaf). Rows without
// a branch — the empty tree, one leaf — kept their values.
// At the commit after b725985, a single-leaf subtree beside a live
// side (or as the whole tree of a proof of no key) became its 33-byte hash
// item instead of a 65-byte disclosed leaf: every `/proof` row and these
// `/bytes` rows moved — `blocks_io` 155059 → 123731, `deep_prefixes`
// 1034 → 842, `deep_absent_pair` 447 → 415, `no_keys/one_leaf` 77 → 45,
// `one_present` 345 → 281, `one_absent` 343 → 311 — and no root row and
// no updated-root row did: the hash rules are as they were.

/// Four rows per key set: the SHA-256 of the encoded `prove` output, its
/// byte length, the root it verifies against, and the root after a fixed
/// upsert / delete / absent-key-insert mix (checked against the real tree).
fn smt_rows(
    label: &str,
    tree: &SparseMerkleTree,
    touched: &[Hash],
    out: &mut Vec<(String, String)>,
) {
    let proof = tree.prove(touched);
    let root = tree.root();
    proof.verify(&root).expect("honest proof verifies");
    let bytes = proof.to_encoded_bytes();
    assert_eq!(proof.size_bytes(), bytes.len(), "{label}: size_bytes");
    let decoded = SmtProof::decode_all(&bytes).expect("honest proof decodes");
    assert_eq!(decoded, proof, "{label}: decode round trip");
    assert_eq!(decoded.to_encoded_bytes(), bytes, "{label}: re-encoding");
    // Every third covered key is upserted, every third deleted (an absent
    // key among them is an insert or a no-op), the rest are only read.
    let mut after = tree.clone();
    let mut writes = Vec::new();
    for (i, key) in proof.keys().iter().enumerate() {
        match i % 3 {
            0 => {
                let value = i.to_be_bytes().to_vec();
                writes.push((*key, Some(hash_bytes(&value))));
                after.insert(*key, value);
            }
            1 => {
                writes.push((*key, None));
                after.remove(key);
            }
            _ => {}
        }
    }
    let verified = decoded.verify(&root).expect("decoded proof verifies");
    let updated = verified.updated_root(&writes).expect("covered writes");
    assert_eq!(updated, after.root(), "{label}: stateless update");
    out.push((format!("smt/{label}/proof"), hash_bytes(&bytes).to_string()));
    out.push((format!("smt/{label}/bytes"), bytes.len().to_string()));
    out.push((format!("smt/{label}/root"), root.to_string()));
    out.push((format!("smt/{label}/updated"), updated.to_string()));
}

fn smt_key(label: &str, i: u64) -> Hash {
    hash_bytes(format!("{label}-{i}"))
}

fn smt_tree(label: &str, n: u64) -> SparseMerkleTree {
    let mut tree = SparseMerkleTree::new();
    for i in 0..n {
        tree.insert(smt_key(label, i), i.to_be_bytes().to_vec());
    }
    tree
}

fn smt_computed() -> Vec<(String, String)> {
    let mut out = Vec::new();

    // (a) The `blocks_io` shape: 4 128 records, 32 ranges of 32 adjacent
    // record numbers (overlapping, and two running past the last record).
    let records = smt_tree("rec", 4128);
    let mut touched = Vec::new();
    for range in 0..32u64 {
        let start = match range {
            30 => 4110,
            31 => 4127,
            _ => range * 2_654_435_761 % 4096,
        };
        touched.extend((start..start + 32).map(|i| smt_key("rec", i)));
    }
    smt_rows("blocks_io", &records, &touched, &mut out);

    // (b) 300 absent keys over an empty tree: one run of empties longer
    // than a `u16` chunk can hold.
    let absent: Vec<Hash> = (0..300).map(|i| smt_key("absent", i)).collect();
    smt_rows(
        "empty_tree_300",
        &SparseMerkleTree::new(),
        &absent,
        &mut out,
    );

    // (c) Keys sharing 248- and 255-bit prefixes, present and absent.
    let base = smt_key("deep", 0).to_array();
    let flip_last = |mask: u8| {
        let mut bytes = base;
        bytes[31] ^= mask;
        Hash::from_bytes(bytes)
    };
    let mut deep = smt_tree("deep-fill", 64);
    deep.insert(flip_last(0x00), b"base".to_vec());
    deep.insert(flip_last(0x80), b"cousin".to_vec());
    let touched = [
        flip_last(0x00),
        flip_last(0x01),
        flip_last(0x80),
        flip_last(0x81),
        smt_key("deep-fill", 7),
        smt_key("deep-miss", 7),
    ];
    smt_rows("deep_prefixes", &deep, &touched, &mut out);
    smt_rows(
        "deep_absent_pair",
        &deep,
        &[flip_last(0x01), flip_last(0x81)],
        &mut out,
    );

    // (d) The empty key set: the whole tree is one evidence item.
    let small = smt_tree("small", 64);
    smt_rows(
        "no_keys/empty_tree",
        &SparseMerkleTree::new(),
        &[],
        &mut out,
    );
    smt_rows("no_keys/one_leaf", &smt_tree("small", 1), &[], &mut out);
    smt_rows("no_keys/64_leaves", &small, &[], &mut out);

    // (e) A single present and a single absent key.
    smt_rows("one_present", &small, &[smt_key("small", 9)], &mut out);
    smt_rows("one_absent", &small, &[smt_key("nobody", 9)], &mut out);
    out
}

#[test]
fn smt_multiproofs_reproduce_parent_commit_bytes() {
    assert_golden(&smt_computed(), SMT_GOLDEN);
}

#[rustfmt::skip]
const SMT_GOLDEN: &[(&str, &str)] = &[
    ("smt/blocks_io/proof", "6ab31b3b847dbcbe4d4c9e96ec015c1133b6c38cce09bf6762647e71c29d3cf6"),
    ("smt/blocks_io/bytes", "123731"),
    ("smt/blocks_io/root", "372bb4cbfefed24229356a0862249c36797f1a3509f85d8271178603e4a31be2"),
    ("smt/blocks_io/updated", "8040fcbbab22ad7d93c83eb08fc419da9e1060c152544c031c2f1a5a415f33f5"),
    ("smt/empty_tree_300/proof", "02dab4463946006f95a2ce1caf3bead92b18c673bbb20b139afd35975f2386fb"),
    ("smt/empty_tree_300/bytes", "9918"),
    ("smt/empty_tree_300/root", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/empty_tree_300/updated", "8335286d7098ecf69220731f54017979511d924761c795a898c3699f066abb2e"),
    ("smt/deep_prefixes/proof", "4fdda8ed628d9cc4565d2be9b8ad490a3878117bcb31e0710ed224e56033fdef"),
    ("smt/deep_prefixes/bytes", "842"),
    ("smt/deep_prefixes/root", "8584c2b9262c81159f51c709ee795898af96079062560cd812faea3839f5d7d4"),
    ("smt/deep_prefixes/updated", "62af5b8d9897c5dd516b3daf6aa7a17a80a02539a3ba542d9272f0da2cdeb8c2"),
    ("smt/deep_absent_pair/proof", "41f7a2edd17fbd04b10d15b183385f61529f42e5d521712c9bc0f0ad6c00ec45"),
    ("smt/deep_absent_pair/bytes", "415"),
    ("smt/deep_absent_pair/root", "8584c2b9262c81159f51c709ee795898af96079062560cd812faea3839f5d7d4"),
    ("smt/deep_absent_pair/updated", "4c83bfef90201d660dda2af05f4dde15cdeadecef9cb2f8b4d467f3f06e47b8c"),
    ("smt/no_keys/empty_tree/proof", "e605996b7ab132f21c3c80bf8b74dc895e92146a404c58180cbb822c04212793"),
    ("smt/no_keys/empty_tree/bytes", "15"),
    ("smt/no_keys/empty_tree/root", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/no_keys/empty_tree/updated", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/no_keys/one_leaf/proof", "1dc6255e4ce103c7d2c9c84124115444f4d1ae544876f2ab66d5b882646b32ec"),
    ("smt/no_keys/one_leaf/bytes", "45"),
    ("smt/no_keys/one_leaf/root", "8c99dd5b1925a03e9ab8f7ae53f744a1fda696f53bcd1092a902298b53e19fab"),
    ("smt/no_keys/one_leaf/updated", "8c99dd5b1925a03e9ab8f7ae53f744a1fda696f53bcd1092a902298b53e19fab"),
    ("smt/no_keys/64_leaves/proof", "9cdecd372fa2eda373a381488ddc9888a5144735b7d471ddcb0bdca3a7c27fd4"),
    ("smt/no_keys/64_leaves/bytes", "45"),
    ("smt/no_keys/64_leaves/root", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/no_keys/64_leaves/updated", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/one_present/proof", "ca4bc48e9b0e29cf9faa6f03e53f9551207a956ef380929d7578abf1f11c0663"),
    ("smt/one_present/bytes", "281"),
    ("smt/one_present/root", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/one_present/updated", "b756d2f8084d86ddad1f78e7e41c3803781ec0490636e0df2b90a65005d70ba1"),
    ("smt/one_absent/proof", "1f68038594882dccf1462d64fb99b01fb854d15a47e588a6a3eb9c70655731b9"),
    ("smt/one_absent/bytes", "311"),
    ("smt/one_absent/root", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/one_absent/updated", "9f8bbbd3751b982d596c1e57508a9f8c9ae58e9a44fac90e141066b6dff4b5be"),
];

// --- the transaction root -------------------------------------------------------
//
// `MHT_GOLDEN` pins `H_tx`'s hash rule: captured at commit ea9d386 by running
// this test with the root of the stored-levels tree `mht` then was (whose
// only product use was that root) in place of `mht::root`.

#[test]
fn transaction_root_reproduces_parent_commit_roots() {
    let mut out = Vec::new();
    for n in [0usize, 1, 2, 3, 5, 8, 33, 128] {
        let items = (0..n).map(|i| format!("mht-golden/{n}/{i}"));
        out.push((format!("mht/items/{n}"), mht::root(items).to_string()));
    }
    // Every transaction of the golden world's chain, as `Block::tx_root`
    // feeds them: encoded, in order.
    let txs: Vec<Vec<u8>> = cert_chain()
        .iter()
        .flat_map(|block| block.txs.iter().map(Encode::to_encoded_bytes))
        .collect();
    let label = format!("mht/cert_chain_txs/{}", txs.len());
    out.push((label, mht::root(&txs).to_string()));
    assert_golden(&out, MHT_GOLDEN);
}

#[rustfmt::skip]
const MHT_GOLDEN: &[(&str, &str)] = &[
    ("mht/items/0", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("mht/items/1", "968aac7d197a6ce07572ab136b6f8f353749ad9473f3e45015ad4a06f0141f59"),
    ("mht/items/2", "29c674b938d12f2632abf3fec2adbeeb7cfd4a7460cdc3c17e9e9c1f5d85cf14"),
    ("mht/items/3", "c9073f6285c430545d92bd907b9351054e10c38a5ede04ff4a4101a6153b9863"),
    ("mht/items/5", "2ebb895d144c49443c283fd1726923f39084d7c6a8f1b410066aae74e67c521d"),
    ("mht/items/8", "7d472835913d35b2d23f72bd9df65e89f090ce55ddc0964677ea9be638ffeed1"),
    ("mht/items/33", "b281c80a29bf6a423a60b0476fa22c0095f1ec757a11601ef50e8ed3cdfd5f94"),
    ("mht/items/128", "a1798bc1d30ce2b72e1fbccde1f49e54ce2d724e832932311c2369d268a36e79"),
    ("mht/cert_chain_txs/18", "f8173c0b787e79a53d888e89d2d9260846fe5997a87401ccfaf119434d563cac"),
];

// --- the serve wire -------------------------------------------------------------
//
// `SERVE_GOLDEN` pins every `ServeWire` frame shape: a request per query
// kind, a response with an empty, a short and a real history payload, and a
// refusal per reason. Captured at commit 00af873, while a response payload
// was a `Vec<u8>` of its own per reply; the shared `Arc<[u8]>` payload must
// put the same bytes on the wire. Small frames are pinned whole, in hex; the
// frame carrying the history answer by its SHA-256 and length.

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn serve_frames() -> Vec<(&'static str, ServeWire)> {
    let (key, t1, t2) = (StateKey::new("kvstore", b"acct-1"), 3, 17);
    let request = |query| {
        ServeWire::Request(ServeRequest {
            client: 42,
            id: 7,
            query,
        })
    };
    let response = |payload: Vec<u8>| {
        ServeWire::Response(ServeResponse {
            id: 7,
            certified_height: 9,
            payload: payload.into(),
        })
    };
    let refusal = |reason| ServeWire::Refusal(ServeRefusal { id: 8, reason });
    let mut history = HistoryIndex::new();
    for height in 1..=5u64 {
        history.apply_block(height, &[(key, Some(height.to_be_bytes().to_vec()))]);
    }
    let (rows, proof) = history.query(&key, 2, 4);
    vec![
        (
            "request/history",
            request(QuerySpec::History {
                index: "history".into(),
                key,
                t1,
                t2,
            }),
        ),
        (
            "request/keywords",
            request(QuerySpec::Keywords {
                index: "inverted".into(),
                keywords: vec!["stock".into(), "bank".into()],
            }),
        ),
        (
            "request/aggregate",
            request(QuerySpec::Aggregate {
                index: "agg".into(),
                key,
                t1,
                t2,
            }),
        ),
        (
            "request/history_op",
            request(QuerySpec::HistoryOp {
                index: "history".into(),
                key,
                t1,
                t2,
            }),
        ),
        (
            "request/aggregate_op",
            request(QuerySpec::AggregateOp {
                index: "agg".into(),
                key,
                t1: 0,
                t2: u64::MAX,
            }),
        ),
        ("response/empty", response(Vec::new())),
        ("response/short", response(vec![1, 2, 3])),
        (
            "response/history",
            response(encode_history_payload(&rows, &proof)),
        ),
        (
            "refusal/queue_full",
            refusal(RefusalReason::QueueFull { depth: 64 }),
        ),
        (
            "refusal/rate_limited",
            refusal(RefusalReason::RateLimited {
                retry_after_ticks: 3,
            }),
        ),
        (
            "refusal/backlogged",
            refusal(RefusalReason::Backlogged { waiters: 4096 }),
        ),
        (
            "refusal/unknown_index",
            refusal(RefusalReason::UnknownIndex),
        ),
    ]
}

#[test]
fn serve_wire_frames_reproduce_parent_commit_bytes() {
    let mut out = Vec::new();
    for (label, frame) in serve_frames() {
        let bytes = frame.to_encoded_bytes();
        assert_eq!(frame.encoded_len(), bytes.len(), "{label}: encoded_len");
        assert_eq!(
            ServeWire::decode_all(&bytes),
            Ok(frame),
            "{label}: round trip"
        );
        let pinned = if bytes.len() > 96 {
            format!("sha256={} len={}", hash_bytes(&bytes), bytes.len())
        } else {
            hex(&bytes)
        };
        out.push((format!("serve/{label}"), pinned));
    }
    assert_golden(&out, SERVE_GOLDEN);
}

/// The index name a spec carries, as the spec holds it.
fn index_name(spec: &QuerySpec) -> &Cow<'static, str> {
    match spec {
        QuerySpec::History { index, .. }
        | QuerySpec::Keywords { index, .. }
        | QuerySpec::Aggregate { index, .. }
        | QuerySpec::HistoryOp { index, .. }
        | QuerySpec::AggregateOp { index, .. } => index,
    }
}

/// Every request row of `SERVE_GOLDEN`, decoded from its pinned bytes,
/// owns its index name, and equals the statically named spec it was
/// captured from, hashes like it under one front's seeds and hits the
/// cache entry made for it.
#[test]
fn a_spec_decoded_from_the_wire_keys_the_cache_like_a_static_one() {
    let seeds = FoldState::new();
    let answer = ServeResponse {
        id: 1,
        certified_height: 2,
        payload: vec![3].into(),
    };
    let mut requests = 0;
    for (label, frame) in serve_frames() {
        let ServeWire::Request(built) = frame else {
            continue;
        };
        let row = format!("serve/{label}");
        let (_, pinned) = SERVE_GOLDEN
            .iter()
            .find(|(name, _)| *name == row)
            .expect("a pinned row");
        let bytes = dcert::primitives::hex::decode(pinned).expect("hex");
        let Ok(ServeWire::Request(decoded)) = ServeWire::decode_all(&bytes) else {
            panic!("{row}: does not decode to a request");
        };
        let (built, decoded) = (built.query, decoded.query);
        assert!(matches!(index_name(&built), Cow::Borrowed(_)), "{row}");
        assert!(matches!(index_name(&decoded), Cow::Owned(_)), "{row}");
        assert_eq!(decoded, built, "{row}");
        assert_eq!(seeds.hash_one(&decoded), seeds.hash_one(&built), "{row}");
        let mut cache = ProofCache::new(1, seeds);
        cache.insert(built, answer.clone());
        assert_eq!(cache.get(&decoded), Some(&answer), "{row}");
        requests += 1;
    }
    assert_eq!(requests, 5, "one request row per query kind");
}

#[rustfmt::skip]
const SERVE_GOLDEN: &[(&str, &str)] = &[
    ("serve/request/history", "00000000000000002a00000000000000070000000007686973746f72796a86c63091a37a5c4c7fd9107a582576eb43b5837860e32a8c04fc23028a827c00000000000000030000000000000011"),
    ("serve/request/keywords", "00000000000000002a00000000000000070100000008696e766572746564000000020000000573746f636b0000000462616e6b"),
    ("serve/request/aggregate", "00000000000000002a000000000000000702000000036167676a86c63091a37a5c4c7fd9107a582576eb43b5837860e32a8c04fc23028a827c00000000000000030000000000000011"),
    ("serve/request/history_op", "00000000000000002a00000000000000070300000007686973746f72796a86c63091a37a5c4c7fd9107a582576eb43b5837860e32a8c04fc23028a827c00000000000000030000000000000011"),
    ("serve/request/aggregate_op", "00000000000000002a000000000000000704000000036167676a86c63091a37a5c4c7fd9107a582576eb43b5837860e32a8c04fc23028a827c0000000000000000ffffffffffffffff"),
    ("serve/response/empty", "010000000000000007000000000000000900000000"),
    ("serve/response/short", "010000000000000007000000000000000900000003010203"),
    ("serve/response/history", "sha256=56d7586c4aad0292bf5b2a71244c09997346c84aa969dd7f9070c00be3b44b55 len=412"),
    ("serve/refusal/queue_full", "020000000000000008000000000000000040"),
    ("serve/refusal/rate_limited", "020000000000000008010000000000000003"),
    ("serve/refusal/backlogged", "020000000000000008020000000000001000"),
    ("serve/refusal/unknown_index", "02000000000000000803"),
];

// --- the SP's store ------------------------------------------------------------
//
// `SP_STORE_GOLDEN` pins what a store-backed SP writes: its segment file
// (one block page per height) and both head slots (every index's committed
// digest and anchor, the height, the commit sequence) after four memo
// blocks, certified hierarchically or settled without certificates. Captured at commit 4994be4, where an SP had
// a second way into persistence and two bookkeeping paths that each
// committed the store; one `advance` per block must write the same bytes.
// Re-captured at the commit after 18d052a, where the segment holds one
// page per block, the block itself, in place of a writes page and a
// keyword page (1 393 → 1 401 bytes); the head slots keep their lengths
// and move only with the segment mark they carry.

/// Drives four memo blocks through a store-backed SP — `certified` hands it
/// each block's index certificates, otherwise it settles each without — and
/// pins every file of the store by its SHA-256 and length.
fn sp_store_rows(certified: bool, out: &mut Vec<(String, String)>) {
    let run = if certified {
        "certified"
    } else {
        "uncertified"
    };
    let dir = common::temp_dir(run);
    let mut world = World::pow(&MEMO_INDEXES);
    let store = SegmentStore::open(StoreConfig::new(&dir)).expect("store opens");
    world.sp = world.recover_sp(Box::new(store)).expect("empty store");
    for block in world.mine_memos(4) {
        let inputs = world.sp.stage_block(&block).expect("sp stages");
        let certs = certified.then(|| {
            let issued = world.ci.certify_hierarchical(&block, &inputs);
            issued.expect("certifies").1
        });
        world.sp.advance(certs.as_deref()).expect("sp advances");
    }
    assert!(world.sp.store_error().is_none());
    drop(world.sp.take_store());
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir readable")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    files.sort();
    for path in files {
        let bytes = std::fs::read(&path).expect("file readable");
        let name = path.file_name().expect("a file").to_string_lossy();
        out.push((
            format!("sp_store/{run}/{name}"),
            format!("sha256={} len={}", hash_bytes(&bytes), bytes.len()),
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sp_store_reproduces_parent_commit_bytes() {
    let mut out = Vec::new();
    sp_store_rows(true, &mut out);
    sp_store_rows(false, &mut out);
    assert_golden(&out, SP_STORE_GOLDEN);
}

#[rustfmt::skip]
const SP_STORE_GOLDEN: &[(&str, &str)] = &[
    ("sp_store/certified/head-a.dch", "sha256=321f190b394cd4a3f97a9eb0deb2ffd7006a714f01167a87851eed5f8e180903 len=830"),
    ("sp_store/certified/head-b.dch", "sha256=1bd061989f24a5bbaaf8f48029998946583e0327b40927c01a1b64b9f3ceedf3 len=830"),
    ("sp_store/certified/seg-00000000.dcs", "sha256=de47bfc65bfadd82fb9454a8e8cef9e5fc3cc59c9353128aed7012c442ac460d len=1401"),
    ("sp_store/uncertified/head-a.dch", "sha256=f8945bdd6f216129d431d0b847bf106676e677598e28224f0d92730ef25a38f8 len=190"),
    ("sp_store/uncertified/head-b.dch", "sha256=71383eaab8d9815f8a3ae8dfbbd52fb58d29de5387e6add9b8bc57fc956fc73f len=190"),
    ("sp_store/uncertified/seg-00000000.dcs", "sha256=de47bfc65bfadd82fb9454a8e8cef9e5fc3cc59c9353128aed7012c442ac460d len=1401"),
];

// `ECALL_REFUSAL_GOLDEN` pins how the trusted program's refusal crosses the
// ECall: one row per `CertError` variant `CertProgram` can return, and one
// per leaf variant nested under `Chain`, `Proof`, `Attestation` and `Codec`,
// each the SHA-256 of the encoded `EcallResponse::Rejected`. Captured when
// the refusal stopped crossing as a rendered string; every row must also
// decode back to the `==` error, reason text included.

/// Every refusal the trusted program can send, with its fields filled in.
fn enclave_refusals() -> Vec<CertError> {
    let (a, b) = (Hash::from_bytes([0xA1; 32]), Hash::from_bytes([0xB2; 32]));
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
        ChainError::BadConsensus("wrong difficulty".into()),
        ChainError::TxRootMismatch,
        ChainError::StateRootMismatch,
        ChainError::UnknownParent(a),
        ChainError::Duplicate(b),
        ChainError::BadGenesis("non-zero height".into()),
    ];
    let proof = [
        ProofError::RootMismatch,
        ProofError::Malformed("missing evidence".into()),
        ProofError::MissingKey,
        ProofError::Incomplete("pruned subtree overlaps query window".into()),
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
        CodecError::Invalid("non-hex character".into()),
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
        CertError::UnknownIndexType("not-registered".to_owned()),
        CertError::BadIndexUpdate("aux decode".into()),
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

/// `Chain(BrokenLink { .. })` is labelled `Chain/BrokenLink`, `EmptyRange`
/// `EmptyRange`.
fn refusal_label(error: &CertError) -> String {
    let debug = format!("{error:?}");
    let mut names = debug.split(|c: char| !c.is_ascii_alphanumeric());
    let outer = names.next().unwrap_or_default();
    match (outer, names.next()) {
        ("Chain" | "Proof" | "Attestation" | "Codec", Some(leaf)) => format!("{outer}/{leaf}"),
        _ => outer.to_owned(),
    }
}

/// `enclave_refusals` names every row of `CertError`'s table (the host-only
/// clause is not a row) and of each leaf table under it: a variant added to
/// a table without a row here fails.
#[test]
fn enclave_refusals_cover_every_table_row() {
    let mut seen = std::collections::BTreeSet::new();
    for error in enclave_refusals() {
        let bytes = error.to_encoded_bytes();
        let outer = ("CertError", bytes[0]);
        let leaf = match error {
            CertError::Chain(_) => Some("ChainError"),
            CertError::Proof(_) => Some("ProofError"),
            CertError::Attestation(_) => Some("SgxError"),
            CertError::Codec(_) => Some("CodecError"),
            _ => None,
        };
        seen.insert(outer);
        seen.extend(leaf.map(|leaf| (leaf, bytes[1])));
    }
    let tables = [
        ("CertError", CertError::TAGS),
        ("ChainError", ChainError::TAGS),
        ("ProofError", ProofError::TAGS),
        ("SgxError", SgxError::TAGS),
        ("CodecError", CodecError::TAGS),
    ];
    for (table, tags) in tables {
        for (tag, variant) in tags {
            assert!(
                seen.contains(&(table, *tag)),
                "{table}::{variant} (tag {tag}) is missing from enclave_refusals"
            );
        }
    }
}

#[test]
fn ecall_refusals_cross_as_themselves() {
    let mut out = Vec::new();
    for error in enclave_refusals() {
        let label = refusal_label(&error);
        let response = EcallResponse::Rejected(error.clone());
        let bytes = response.to_encoded_bytes();
        assert_eq!(EcallResponse::decode_all(&bytes), Ok(response), "{label}");
        out.push((format!("refusal/{label}"), hash_bytes(&bytes).to_string()));
    }
    assert_golden(&out, ECALL_REFUSAL_GOLDEN);
}

#[rustfmt::skip]
const ECALL_REFUSAL_GOLDEN: &[(&str, &str)] = &[
    ("refusal/Chain/BadTxSignature", "0acb65e26262ecc9a6465d37c5b2a20f8ef0766914ae26aae3d30d353aaf5d90"),
    ("refusal/Chain/SenderMismatch", "080c8d0c2b2bf365ed9c1d2a65d84179cb75a51cf00c4f642f6297a162a8fa67"),
    ("refusal/Chain/BrokenLink", "c693445141f766ec8048bfbac8cbe92ef4a07e65addfb691f8201438a334a369"),
    ("refusal/Chain/BadHeight", "b373377d4fd80164bbbfa91c75a4f76c04a6ecfe2f3e82833ea8e7b8a74c9d02"),
    ("refusal/Chain/BadConsensus", "90d89c087c68ae36f85a896a67f527a8399d6934c363be368d0f5ac7aae63448"),
    ("refusal/Chain/TxRootMismatch", "2a324e963c92e7a6088483f3528e172119c30d4e1faa24b9581c2ae5230939bc"),
    ("refusal/Chain/StateRootMismatch", "3ee87d323ac50b667ba20f6c6630e8f45c0edc0f2ec5858e657cb577c16b00ca"),
    ("refusal/Chain/UnknownParent", "72bd7527677446d9c192a785465fa0803876a099b4814e6fda87cf8c5fa8fff2"),
    ("refusal/Chain/Duplicate", "fa65f9b907096ab7b0fda92403659d8ffa4698f864a18ebeecc9e9c771ae975e"),
    ("refusal/Chain/BadGenesis", "31d4596dfa28f41fea8d55c390b695e5c5867afdc5df8fc7f7ac2beebde6213e"),
    ("refusal/Proof/RootMismatch", "f2b8574c4989eaced6178dd1889d91ac7f759f921c48705b55cd7696d5d1e9cf"),
    ("refusal/Proof/Malformed", "5a08f161e477c5899c3dae9e1ffe393693f80f5675287a9ada488afd0fe423f1"),
    ("refusal/Proof/MissingKey", "ea0b77a5f08d9b135c9d1bd5f4608de834ee17c8a4b99a0015d2ea9696f86c7d"),
    ("refusal/Proof/Incomplete", "180387ec126bc69815d6b247edbc27e0141a569dbfdcf0bf6d902fb57e8064e9"),
    ("refusal/Attestation/UntrustedPlatform", "070b13c004e9475fa155cd84d90de9f87db1b7dea6707329638a6ce66043d246"),
    ("refusal/Attestation/BadQuote", "9463926d4640a53a0cf1ac00657361f5a6d64fbc554df30721cdacf503aebc2b"),
    ("refusal/Attestation/BadReport", "68c2451fd16e5968ad3198fb9e688b958d70416a59cefe58ad5149d3faecd750"),
    ("refusal/Attestation/BadSeal", "1d9b023eb0fffb1b54329ef89e0fd31348d5cd1c79ed747468f433f206c40e49"),
    ("refusal/Codec/UnexpectedEof", "8f66dc8453ceb10eed93366b73e6455a573492437cbc1f736b6de694a88e0ce0"),
    ("refusal/Codec/LengthOverflow", "4aad343c8e5122a9d8def61f3b964f3fb6c908d46ad34042dc7b2a93c85851f4"),
    ("refusal/Codec/InvalidTag", "2d66987281014a29f56881f237597c05cd86d22a15323ddae8a4c5680a1a27f2"),
    ("refusal/Codec/InvalidBool", "7fe3cbdb5e69f66c5c6298a8d4a17d15d76a204b7c965ab9105f402016e264e2"),
    ("refusal/Codec/InvalidUtf8", "4a50709cbb88e77c57933a7f06049f592cd5380c2cba82e19fc17f9cef02a83d"),
    ("refusal/Codec/TrailingBytes", "74962c37d24d297df59cc141581baf16ba5765e9abe2ed0119f41bbbf9e15aa6"),
    ("refusal/Codec/Invalid", "6fcfce4fa7cde36491b29dd3b064050f8a2ab94e09ce97a782fe52678b6075d8"),
    ("refusal/WrongMeasurement", "25dfd29c09617dcc9852281c030e5b3037a338a4712a42a21c907f259c6412a0"),
    ("refusal/KeyBindingMismatch", "50cff72c8e550546d661ec235431888fb2f9f7bada40c17020d47f6ccc117aae"),
    ("refusal/BadSignature", "ee9040f65c341855e070ff438eb0ea9d5b831b2a2c270fb7ef592d750408e3b3"),
    ("refusal/DigestMismatch", "421dd6c30feb9149b349ae67525aae7556eb6c552e0b363edd78f8a8d8646ab8"),
    ("refusal/MissingPrevCert", "167fa3bd837a7c1db48f1fdd3c79304e9967cc7a3a2cd432d5e4de86386a959a"),
    ("refusal/GenesisMismatch", "e4c4dc8820db4972223043f69514cd223b23ace6817c14a6dfc6118dd7c15d75"),
    ("refusal/ReadSetMismatch", "4b2871da34670fde248604e0f18fd3e4f7e1e6dfddb85875ce4813a6612953bb"),
    ("refusal/StateRootMismatch", "3583fc672f8bba139cdb6f8aed13487e9d32c7952de6fb6e79d97429bcb7f062"),
    ("refusal/IndexDigestMismatch", "d8f7d74ec3a8f99d48818dd82401c9aa3d981c1c5010742dd01518bcb255457c"),
    ("refusal/UnknownIndexType", "c1b4b655e2d69bc9a5a7382e4552f088a4659a7b4e1b472b96d2aa159383785e"),
    ("refusal/BadIndexUpdate", "9ac1726a3472d94a56bee3bca84bd1bb42ea2fb67d37c5c63fe79b881c4af21f"),
    ("refusal/NotInitialized", "b59853b60c2016ea3ce197b2371184aecfd8f204a7da58ef15396046a36e57e2"),
    ("refusal/HeightRegression", "ff7297d46c821d0dead248e29861fb1339e0c7f057a35aa61f530afe9cf89d74"),
    ("refusal/EmptyRange", "79cf34b187cf095e3735e2f878b34306d5bf4d591126961ae3895d71a530c318"),
    ("refusal/HeightOverflow", "bdf729dca2be07ed495103b6787646bfc92a6567fa399add9b32f5f44fb5b06d"),
    ("refusal/RangeLengthMismatch", "37421fb83261f3ac6e20752a7b170a3a29ee76a7cb4d1eb6f996891431fc59c0"),
    ("refusal/RangeAnchorMismatch", "879f954eda8169ee1e3e25f03abec2a22f8541cad39a35b30468f3968caa1649"),
    ("refusal/RangeDiscontinuity", "81e42fc9c8ebafa703329e157f0e649974057c7be2cf2a6344a0033d21d4f0be"),
];

// --- every wire type ------------------------------------------------------------
//
// `WIRE_GOLDEN` pins one honest sample per (type, tag) of every wire type
// whose codec is declared in a `primitives::codec` table: the SHA-256 and
// length of its encoding, and a SHA-256 over the `{:?}` of `T::decode_all` on
// every truncation of those bytes and on every byte XOR 0x01, 0x80 and 0xff.
// So it pins the bytes and the exact verdict on each malformed input.
// Captured at commit 8452ed4, where every one of these codecs was still
// written out by hand. The inverted index's aux payload has a crate-private
// type, so its row pins the bytes alone. Every row also checks that its
// type's `encoded_len` is exactly its encoding's length.
//
// At PR 51, the commit after 7424420, `Certify` replaced three request
// kinds and `Signatures` the lone-signature answer. Request and response
// rows are labelled by tag. Gone with their kinds: the row of the deleted
// one-block input struct, `wire/EcallRequest/3` and `/4` (the hierarchical
// and batch requests) and `wire/EcallResponse/1` (a lone signature). `wire/EcallRequest/1` is
// `Certify` of one link and two indexes, a new row. `wire/EcallRequest/2`
// (`AugSigGen`) is re-captured: it no longer carries the block `prev_cert`.
// Two rows keep their bytes and move only their verdicts, because a one-bit
// flip of their tag now lands on a retired tag: `wire/EcallRequest/5`
// (`RangeSigGen`, 5 → 4, once the batch request) and `wire/EcallResponse/0`
// (`Initialized`, 0 → 1, once the lone signature). Every other row is as it
// was.
//
// At the commit after b725985, the SMT proof in `BatchLink` carries
// its lone sibling leaf as a hash item (−32 bytes), so `wire/BatchLink`
// (537 → 505) and the three requests that embed it, `wire/EcallRequest/1`
// (1124 → 1092), `/2` (1025 → 993) and `/5` (684 → 652), moved bytes and
// verdicts. Every truncation of that proof still fails to decode, and every
// byte XOR of it that decodes still fails to verify against its root.
//
// At the commit after 18d052a, a Service Provider's store holds the blocks it
// followed, one page per height, where it held a writes page and a keyword
// page: `StreamId` keeps tag 2 as `Blocks` and leaves 3 and 4 unassigned.
// Gone: the rows of the two deleted SP page types (writes and keyword
// appends), `wire/StreamId/2` and `/3` (the keyword and checkpoint
// streams). `wire/StreamId/1` and `wire/Record` (a tag-2 record) keep their
// bytes and move only their verdicts: a one-bit flip of tag 2 lands on tag
// 3, which no longer decodes, and the decoded variant prints as `Blocks`.
// Every other row is as it was.

/// One row: the sample's bytes, then its decoder's verdict on every damaged
/// copy of them.
fn wire_row<T: Encode + Decode + std::fmt::Debug>(
    label: &str,
    value: &T,
    out: &mut Vec<(String, String)>,
) {
    let bytes = value.to_encoded_bytes();
    assert_eq!(
        value.encoded_len(),
        bytes.len(),
        "wire/{label}: encoded_len"
    );
    let mut verdicts = Hasher::new();
    let mut verdict = |input: &[u8]| {
        verdicts.update(format!("{:?}\n", T::decode_all(input)));
    };
    for cut in 0..bytes.len() {
        verdict(&bytes[..cut]);
    }
    for pos in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= mask;
            verdict(&damaged);
        }
    }
    out.push((
        format!("wire/{label}"),
        format!(
            "sha256={} len={} verdicts={}",
            hash_bytes(&bytes),
            bytes.len(),
            verdicts.finalize()
        ),
    ));
}

fn wire_header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        prev_hash: hash_bytes(height.to_be_bytes()),
        state_root: hash_bytes(b"state"),
        tx_root: hash_bytes(b"txs"),
        timestamp: height,
        miner: Address::from_seed(7),
        consensus: ConsensusProof::Pow {
            difficulty_bits: 3,
            nonce: 11,
        },
    }
}

fn wire_certificate() -> Certificate {
    let mut ias = AttestationService::with_seed([1; 32]);
    let platform = Keypair::from_seed([2; 32]);
    ias.register_platform(platform.public());
    let enclave_key = Keypair::from_seed([3; 32]);
    let binding = Certificate::key_binding(&enclave_key.public());
    let quote = Quote::sign(&platform, hash_bytes(b"program"), binding);
    let digest = hash_bytes(b"hdr");
    Certificate {
        pk_enc: enclave_key.public(),
        report: ias.attest(&quote).expect("registered platform attests"),
        digest,
        signature: enclave_key.sign(digest.as_bytes()),
    }
}

fn wire_computed() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let (a, b) = (Hash::from_bytes([0xA1; 32]), Hash::from_bytes([0xB2; 32]));
    let kp = Keypair::from_seed([9; 32]);
    let key = StateKey::new("kvstore", b"balance");
    let cert = wire_certificate();

    // The leaf error enums and every enclave refusal; one host-only error.
    for error in enclave_refusals() {
        let label = refusal_label(&error);
        let leaf = label.rsplit('/').next().unwrap_or_default();
        match &error {
            CertError::Chain(e) => wire_row(&format!("ChainError/{leaf}"), e, &mut out),
            CertError::Proof(e) => wire_row(&format!("ProofError/{leaf}"), e, &mut out),
            CertError::Attestation(e) => wire_row(&format!("SgxError/{leaf}"), e, &mut out),
            CertError::Codec(e) => wire_row(&format!("CodecError/{leaf}"), e, &mut out),
            _ => {}
        }
        wire_row(&format!("CertError/{label}"), &error, &mut out);
    }
    wire_row("CertError/host_only", &CertError::PipelineClosed, &mut out);

    // Chain, VM and workload payloads.
    let kv = [
        KvCall::Put {
            key: b"stock".to_vec(),
            value: b"ten bank shares".to_vec(),
        },
        KvCall::Get {
            key: b"stock".to_vec(),
        },
        KvCall::Delete { key: b"k".to_vec() },
    ];
    for (i, call) in kv.iter().enumerate() {
        wire_row(&format!("KvCall/{i}"), call, &mut out);
    }
    let io = [
        IoHeavyCall::WriteBatch {
            start: 5,
            count: 64,
        },
        IoHeavyCall::ReadBatch { start: 9, count: 2 },
    ];
    for (i, call) in io.iter().enumerate() {
        wire_row(&format!("IoHeavyCall/{i}"), call, &mut out);
    }
    let cpu = CpuHeavyCall {
        seed: 77,
        size: 1024,
    };
    wire_row("CpuHeavyCall", &cpu, &mut out);
    let bank = [
        BankCall::TransactSavings {
            customer: 1,
            amount: 20,
        },
        BankCall::DepositChecking {
            customer: 2,
            amount: 30,
        },
        BankCall::SendPayment {
            from: 3,
            to: 4,
            amount: 50,
        },
        BankCall::WriteCheck {
            customer: 5,
            amount: 60,
        },
        BankCall::Amalgamate { from: 6, to: 7 },
        BankCall::GetBalance { customer: 8 },
    ];
    for (i, call) in bank.iter().enumerate() {
        wire_row(&format!("BankCall/{i}"), call, &mut out);
    }
    let tx = Transaction::sign(&kp, 7, "kvstore", kv[0].to_encoded_bytes());
    wire_row("Call", &tx.call, &mut out);
    wire_row("StateKey", &key, &mut out);
    wire_row("Transaction", &tx, &mut out);
    let consensus = [
        wire_header(3).consensus,
        ConsensusProof::Authority {
            signer: kp.public(),
            signature: kp.sign(b"seal"),
        },
    ];
    for (i, proof) in consensus.iter().enumerate() {
        wire_row(&format!("ConsensusProof/{i}"), proof, &mut out);
    }
    let block = Block {
        header: wire_header(3),
        txs: vec![tx],
    };
    wire_row("Block", &block, &mut out);

    // Enclave artifacts.
    wire_row("AttestationReport", &cert.report, &mut out);
    wire_row("Certificate", &cert, &mut out);
    let sealed = sealing::seal(
        &SecretBytes::from([7; 32]),
        &hash_bytes(b"program"),
        &SecretBytes::new(b"enclave state"),
    );
    wire_row("SealedBlob", &sealed, &mut out);
    let range = RangeCert {
        pk_range: kp.public(),
        report: cert.report.clone(),
        anchor_digest: a,
        first: 4,
        last: 5,
        header_digests: vec![a, b],
        signature: kp.sign(b"range"),
    };
    wire_row("RangeCert", &range, &mut out);

    // Merkle proofs and their parts.
    let mut smt = SparseMerkleTree::new();
    smt.insert(a, b"a".to_vec());
    smt.insert(b, b"b".to_vec());
    let state_proof = smt.prove(&[a]);
    let mut mb = MbTree::new(3);
    let mut agg = AggMbTree::new(3);
    for t in 0..7u64 {
        mb.insert(t, vec![t as u8]);
        agg.insert(t, t * 3);
    }
    let (aggregate, agg_ops) = agg.window(2, 4);
    let (_, mb_ops) = mb.window(2, 4);
    wire_row("Aggregate", &aggregate, &mut out);
    let summary = Summary {
        hash: a,
        ann: aggregate,
    };
    wire_row("Summary", &summary, &mut out);
    wire_row("MbAppendProof", &mb.prove_append(), &mut out);
    wire_row("AggAppendProof", &agg.prove_append(), &mut out);
    let plain_ops = [
        ProofOp::<Plain>::Push(Shape::Leaf(vec![(4, a)])),
        ProofOp::Parent,
        ProofOp::Child,
    ];
    for (i, op) in plain_ops.iter().enumerate() {
        wire_row(&format!("ProofOp/plain/{i}"), op, &mut out);
    }
    let summed = ProofOp::<Summed>::Push(Shape::Pruned(summary));
    wire_row("ProofOp/summed/0", &summed, &mut out);
    wire_row("MbOpProof", &mb_ops, &mut out);
    wire_row("AggOpProof", &agg_ops, &mut out);

    // ECall requests and responses, network envelopes.
    let link = BatchLink {
        block: block.clone(),
        reads: vec![(key, Some(vec![1])), (StateKey::new("kvstore", b"x"), None)],
        state_proof,
    };
    wire_row("BatchLink", &link, &mut out);
    let index = |name: &str, prev_cert| IndexInput {
        index_type: name.to_owned(),
        prev_digest: a,
        prev_cert,
        new_digest: b,
        aux: vec![7; 9],
    };
    wire_row("IndexInput", &index("history", None), &mut out);
    // A request or response row is labelled by its tag, so a row keeps its
    // label when a kind beside it retires.
    let requests = [
        EcallRequest::Init,
        EcallRequest::Certify {
            prev_header: wire_header(2),
            prev_cert: Some(cert.clone()),
            links: vec![link.clone()],
            indexes: vec![index("history", None), index("inverted", None)],
        },
        EcallRequest::AugSigGen {
            prev_header: wire_header(2),
            link: link.clone(),
            index: index("history", Some(cert.clone())),
        },
        EcallRequest::RangeSigGen {
            anchor: wire_header(2),
            links: vec![link],
        },
        EcallRequest::FoldRanges {
            anchor: wire_header(3),
            anchor_cert: Some(cert.clone()),
            ranges: vec![range],
        },
    ];
    for request in &requests {
        let tag = request.to_encoded_bytes()[0];
        wire_row(&format!("EcallRequest/{tag}"), request, &mut out);
    }
    let responses = [
        EcallResponse::Initialized(kp.public()),
        EcallResponse::Rejected(CertError::Proof(ProofError::Malformed("x".into()))),
        EcallResponse::Signatures(vec![kp.sign(b"one"), kp.sign(b"two")]),
    ];
    for response in &responses {
        let tag = response.to_encoded_bytes()[0];
        wire_row(&format!("EcallResponse/{tag}"), response, &mut out);
    }
    let messages = [
        NetMessage::Block(block),
        NetMessage::BlockCert {
            header: wire_header(3),
            cert: cert.clone(),
        },
        NetMessage::IndexCert {
            header: wire_header(3),
            index: "history".into(),
            digest: a,
            cert: cert.clone(),
        },
        NetMessage::CertRequest { from: 3, to: 9 },
        NetMessage::Shutdown,
        NetMessage::Serve {
            payload: vec![1, 2, 3],
        },
    ];
    for (i, message) in messages.iter().enumerate() {
        wire_row(&format!("NetMessage/{i}"), message, &mut out);
    }

    // Index proofs, the inverted aux, SP pages.
    let keyword_block = Block {
        header: wire_header(1),
        txs: vec![Transaction::sign(&kp, 1, "memo", b"stock bank".to_vec())],
    };
    let mut inverted = InvertedIndex::new();
    let (aux, _) = inverted.apply_block(&keyword_block);
    out.push((
        "wire/InvertedUpdate/aux".to_owned(),
        format!("sha256={} len={}", hash_bytes(&aux), aux.len()),
    ));
    let (_, keyword_proof) = inverted.query(&["stock", "bank"]);
    wire_row("KeywordProof", &keyword_proof, &mut out);
    let mut history = HistoryIndex::new();
    let mut aggregate_index = AggregateIndex::new();
    for height in 1..=4u64 {
        let writes = vec![(key, Some(height.to_be_bytes().to_vec()))];
        history.apply_block(height, &writes);
        aggregate_index.apply_block(height, &writes);
    }
    wire_row("HistoryProof", &history.query(&key, 2, 3).1, &mut out);
    wire_row(
        "AggQueryProof",
        &aggregate_index.query(&key, 2, 3).1,
        &mut out,
    );
    let entry = CertifiedEntry {
        digest: a,
        anchor: Some((b, a, cert)),
    };
    wire_row("CertifiedEntry", &entry, &mut out);

    // The serving front.
    let (t1, t2) = (2, 5);
    let specs = [
        QuerySpec::History {
            index: "history".into(),
            key,
            t1,
            t2,
        },
        QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: vec!["stock".into(), "bank".into()],
        },
        QuerySpec::Aggregate {
            index: "agg".into(),
            key,
            t1,
            t2,
        },
        QuerySpec::HistoryOp {
            index: "history".into(),
            key,
            t1,
            t2,
        },
        QuerySpec::AggregateOp {
            index: "agg".into(),
            key,
            t1,
            t2,
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        wire_row(&format!("QuerySpec/{i}"), spec, &mut out);
    }
    let request = ServeRequest {
        client: 41,
        id: 7,
        query: specs[1].clone(),
    };
    wire_row("ServeRequest", &request, &mut out);
    let response = ServeResponse {
        id: 7,
        certified_height: 9,
        payload: vec![4, 5, 6].into(),
    };
    wire_row("ServeResponse", &response, &mut out);
    let reasons = [
        RefusalReason::QueueFull { depth: 64 },
        RefusalReason::RateLimited {
            retry_after_ticks: 3,
        },
        RefusalReason::Backlogged { waiters: 9 },
        RefusalReason::UnknownIndex,
    ];
    for (i, reason) in reasons.iter().enumerate() {
        wire_row(&format!("RefusalReason/{i}"), reason, &mut out);
    }
    let refusal = ServeRefusal {
        id: 8,
        reason: reasons[1],
    };
    wire_row("ServeRefusal", &refusal, &mut out);
    let frames = [
        ServeWire::Request(request),
        ServeWire::Response(response),
        ServeWire::Refusal(refusal),
    ];
    for (i, frame) in frames.iter().enumerate() {
        wire_row(&format!("ServeWire/{i}"), frame, &mut out);
    }

    // The store.
    let streams = [StreamId::Cert, StreamId::Blocks];
    for (i, stream) in streams.iter().enumerate() {
        wire_row(&format!("StreamId/{i}"), stream, &mut out);
    }
    wire_row(
        "Record",
        &Record::new(5, StreamId::Blocks, b"page".to_vec()),
        &mut out,
    );
    let mark = SegmentMark {
        index: 2,
        durable_len: 4096,
    };
    wire_row("SegmentMark", &mark, &mut out);
    let head = HeadState {
        seq: 3,
        durable_height: 2,
        segments: vec![mark],
        entries: vec![("sp.height".to_owned(), vec![0, 2])],
    };
    wire_row("HeadState", &head, &mut out);

    // The baselines.
    let mut skiplist = AuthSkipList::new();
    for t in 0..5u64 {
        skiplist.append(t, vec![t as u8]);
    }
    wire_row("SkipRangeProof", &skiplist.range(1, 3).1, &mut out);
    let mut lineage = LineageIndex::new();
    lineage.apply_block(1, &[(key, Some(b"v".to_vec()))]);
    lineage.apply_block(2, &[(key, Some(b"w".to_vec()))]);
    wire_row("LineageProof", &lineage.query(&key, 0, 9).1, &mut out);
    out
}

#[test]
fn every_wire_type_reproduces_parent_commit_bytes_and_verdicts() {
    assert_golden(&wire_computed(), WIRE_GOLDEN);
}

#[rustfmt::skip]
const WIRE_GOLDEN: &[(&str, &str)] = &[
    ("wire/ChainError/BadTxSignature", "sha256=6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d len=1 verdicts=422b0b5af8b421c2d34822ce5c8b165c57a9bb69aad41ccf26dfd0399f185e6d"),
    ("wire/CertError/Chain/BadTxSignature", "sha256=0a6361b3a802f55cd5ae06101c88a1e216320fe11cc0cfe1d791eed08a1200fd len=2 verdicts=4070681eaeb7dccb6ecab994021b14f3dd886332782908e54962f4c86a2775ba"),
    ("wire/ChainError/SenderMismatch", "sha256=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a len=1 verdicts=7d92fd9074a938c51a84c912ac55e02e419bcf6f239bef0eb4da0e981dbd00c8"),
    ("wire/CertError/Chain/SenderMismatch", "sha256=ff86c77e8ead00caf9bc3d3d424d759b34b27c685c3b94002cece6edfe763c41 len=2 verdicts=1ea5f28464bc47c044436f903e490c5f35cc471c5193a83bbeb9592cbba858a3"),
    ("wire/ChainError/BrokenLink", "sha256=35a316c7a72066c92edeeec7846b7e706f7bad40dc6bb05837bffe4a4dac379d len=65 verdicts=059a7f719c1fa6cf5466da49d15e2e0d936856037a4efd0dd7ca8f19b8e4baac"),
    ("wire/CertError/Chain/BrokenLink", "sha256=36a13fd96788e59b95f4b3cec870c1fceed00e8642326e23a7007f908100b5aa len=66 verdicts=c05625b7e8c9114e1ba080e6b80442b53bfe5b27da6f2c876881a178a4a6d8fd"),
    ("wire/ChainError/BadHeight", "sha256=0e157694d950309622100aa59210cc08ee9cd886914c31228ec995cecb79ff42 len=17 verdicts=de575d1d07d826b0ba6da6067edfc18b062d37857266dfbb5851089927bea080"),
    ("wire/CertError/Chain/BadHeight", "sha256=bf24399f08422824ec79ade94e6ade0f47c4b20849f6e99a28bf8326d625a55a len=18 verdicts=d874c5a1a10615027ad82a14bd7fa0c40c5219db61aaea58a721f9f58740f727"),
    ("wire/ChainError/BadConsensus", "sha256=369a853818c8ab0b305607815a9c83916550b82ceba4c1c8746f577f98b667b1 len=21 verdicts=80edcfde5b4e9a60363d9d0776d89ec9f495a7bb03256a1df00897575572468c"),
    ("wire/CertError/Chain/BadConsensus", "sha256=c64f77bbed3d97bae38cd84e432fa0b4dac6e7e53d9a4d9e71394bc380a26f89 len=22 verdicts=29379a195100f3960feda85594ac206dda32f51b0e77d2ca652b6e325a2f4f37"),
    ("wire/ChainError/TxRootMismatch", "sha256=e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db len=1 verdicts=ccb82ec4ffb58303839ccad5e99dc04cd752e7abb806ddb5bceccc18697123a1"),
    ("wire/CertError/Chain/TxRootMismatch", "sha256=fbc5bc32805d29f815000497820b8f5c613daf296efa2e00faa8d9e37109c655 len=2 verdicts=41a1396469a075c5cf0e4f7fc4f77211b3bbec630e547b571e11afffcd1fc80d"),
    ("wire/ChainError/StateRootMismatch", "sha256=67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6 len=1 verdicts=c8dd4080d18a4b12fc36fe071739ad7e5539399a20671c074a33ea26b6264668"),
    ("wire/CertError/Chain/StateRootMismatch", "sha256=0b2971bb3cda0c3dbef0deb1544bc95683ad281a8ff9448b75e75867fed1004c len=2 verdicts=b352081ac9cabd96e80369db661c7e4575cf32c7b6c1ddad7095b9999c221198"),
    ("wire/ChainError/UnknownParent", "sha256=4aab93bf4f99475b1d54bcd06f82ba471f4a915350553e83b54589695b9e7b54 len=33 verdicts=85680365192ba3c3bd46872b7cfdef9d462d91ce499a6c558e48a15fe779b45c"),
    ("wire/CertError/Chain/UnknownParent", "sha256=d461e807114dd6031bc251151b369aae342b28e76dfb59a17719acf7a5b160b5 len=34 verdicts=2ccf8e000fbe975127f6287aee24d51a14607c775a531e0ee3fe79b8f122cc19"),
    ("wire/ChainError/Duplicate", "sha256=bcc72ec9a2daf6e6cca9af15090f1b351b8fa9b7825a386d865bbb230c2a32cb len=33 verdicts=c5c4bb82da401dd816fd0d447f527914b0c73803bdb2c888023819f276f71466"),
    ("wire/CertError/Chain/Duplicate", "sha256=8aa7a47f71d425a4d604eb680e1d03e5df2d46e6aebd1b82050536bf97b5c7aa len=34 verdicts=68d9f0cb91b2e342080a1f1d634d4e83d307e20bde346d92c6e0c710ec889250"),
    ("wire/ChainError/BadGenesis", "sha256=329e2fc2f881fd7279e8abc586c4f65d0f70d43b9167c47d1287e3dc93f88be1 len=20 verdicts=47734200c5e89d79c1dbd4c5faa7fd05b1915399590ccc4b05c8f338c2a3481b"),
    ("wire/CertError/Chain/BadGenesis", "sha256=3452d89d74a662d34c67b47e13cedb575e6a71565d9dcf83d99d071e33364a14 len=21 verdicts=f334f0e3a90733ad8a2299191cf36bd6eb579bc9bb4b05e552d885373f4ab202"),
    ("wire/ProofError/RootMismatch", "sha256=6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d len=1 verdicts=2da13877005e3db9b2092de43d86dcd81af90d2590f5d7baa0d07c129e83c82a"),
    ("wire/CertError/Proof/RootMismatch", "sha256=e545d395bb3fd971f91bf9a2b6722831df704efae6c1aa9da0989ed0970b77bb len=2 verdicts=ce6b36c9cf4c75795339509b28963c40b3e49e08bd8993cd3c1e32c137ad3f5e"),
    ("wire/ProofError/Malformed", "sha256=c8557776c3451ddc9cd55c1af851470e488585976b1a3cc91497004fa1895094 len=21 verdicts=877d7fcfe701d0588207e3ba635acc773eb2f885c6b5d362594d38cba818226b"),
    ("wire/CertError/Proof/Malformed", "sha256=bb66ab6e5f0ab4ae57c217f3b75fae12b75b5ba29f452874c77b8318fce050fb len=22 verdicts=b67376ab2fb848b8166e6634098dd6e5216a7b3c4809f206895d56a41a695f64"),
    ("wire/ProofError/MissingKey", "sha256=dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986 len=1 verdicts=165b9e96bbbe181e26308e3bcb264bd0c9f15afbee2e768f729d606f64eb561a"),
    ("wire/CertError/Proof/MissingKey", "sha256=7a53cc5deb60512f3dacacc7695dd5072077c6f4984dbedbff76e27092393b1c len=2 verdicts=f7296eace4d2e9c571be5680cd9ac0d1baa14bdf80360d36a2a6711925ed66b8"),
    ("wire/ProofError/Incomplete", "sha256=07b2614290f7a5ac29f6967b29de97fe50ee892806b6232cde21b6b0f88ad7b1 len=41 verdicts=cad3000e7416161a7bca24bfb87191a89f90cff172c4d15d349d6c7581320a07"),
    ("wire/CertError/Proof/Incomplete", "sha256=02efda1c6d7725e25cc5a41e238957064cc9fb570e7c7a115f2f85be017d82b8 len=42 verdicts=e3adad61fc55aa2bd62160a7b532120fcc8bc2b67e833ea021953dca11f3f5da"),
    ("wire/SgxError/UntrustedPlatform", "sha256=6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d len=1 verdicts=9442ba51a1d2625b23e2de806be21717cd3c96504c6010a62f27ad2c6859cc31"),
    ("wire/CertError/Attestation/UntrustedPlatform", "sha256=96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7 len=2 verdicts=4040ca322c0c3fead8092a8da4b8ce47d4c92589412ebcb41d3c8ed1fd0fb93e"),
    ("wire/SgxError/BadQuote", "sha256=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a len=1 verdicts=8e06bcb2e344874c18fcea7b4f6ddfb46c2c9355023d822fdcf8c8f8e3c139c3"),
    ("wire/CertError/Attestation/BadQuote", "sha256=b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2 len=2 verdicts=d3e1dfb25f2394fc556574bf33babcb79d1135f78bd0c2c187fd19ff3aaeeca9"),
    ("wire/SgxError/BadReport", "sha256=dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986 len=1 verdicts=86cc546be7cf130fce3a1c871da72f54db8e5f92c22c1089012e48cc5cac01c4"),
    ("wire/CertError/Attestation/BadReport", "sha256=fcf0a6c700dd13e274b6fba8deea8dd9b26e4eedde3495717cac8408c9c5177f len=2 verdicts=252eb2758c4a45a70245c9a9bbd428586e0117eb008b86b850293586b3274863"),
    ("wire/SgxError/BadSeal", "sha256=084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5 len=1 verdicts=b8180a65d545811e68b30675c09f65d669d1a1193638e9498eed526c9faf617e"),
    ("wire/CertError/Attestation/BadSeal", "sha256=583c7dfb7b3055d99465544032a571e10a134b1b6f769422bbb71fd7fa167a5d len=2 verdicts=4a86cc6919477983eb119840c1fa02fb6b2d4b3191120ba15d5340946fac5f2d"),
    ("wire/CodecError/UnexpectedEof", "sha256=b0fbc2b38e7304f89f4aad7c635e98c1b7b7eced9e9cba5aed08e3965842f2be len=17 verdicts=8be8114e5745ecf1c9d73a467ff804e389e3064f50e2553e35d8d2e1e45081c8"),
    ("wire/CertError/Codec/UnexpectedEof", "sha256=037bbbaea3b64d59f2aa9d864b8ca0658a9b625b51d8a8555d44fe71a466bd9c len=18 verdicts=343e0490c3263a36881e0df5d99ba01165c3cce1777c4b5268883a6d5f55f038"),
    ("wire/CodecError/LengthOverflow", "sha256=1272f520cf7ca5cf117a0b5a3116518371bf20fb7fac043ac1be568b8c55b96c len=9 verdicts=c15f30e77b9ed2774b5eb79dea427c7bf520b806a39baeb731d176022c53bd07"),
    ("wire/CertError/Codec/LengthOverflow", "sha256=917bfb5c27079fa23ddfda76648ff6e556ecc265e160e798ba974f6404b30bd7 len=10 verdicts=bc4699acb7e15c3dd9188dbb62cab317c64f9f212375ad2e64b74b9422a08a99"),
    ("wire/CodecError/InvalidTag", "sha256=2434fdab84f43e54e4b865934d087d41b9b807519d2c3f311d71fe007360f8ae len=2 verdicts=2597eda27f3e03228326c81d1b742d3347349567349a7c091a2a9a3106bdb8aa"),
    ("wire/CertError/Codec/InvalidTag", "sha256=28bc507cf0f8559aac0bcf4be361ed5abf817ed9a2e8698ef6b21be652506836 len=3 verdicts=a65bcc6164363c53c093dd78c051cf6619e4dca66872107708af4f7f3be57897"),
    ("wire/CodecError/InvalidBool", "sha256=48986d85f8c0a0601ef7c44afc939dd0a8b0ed7bc309c7e373cb0fe94e30c7aa len=2 verdicts=8b009d1b073b8b09a8fa9f8f3eadfc6dfd0fe86206124eabe6504f71de72e9e2"),
    ("wire/CertError/Codec/InvalidBool", "sha256=3045a38c56e61e5dc2d0b270889e2a35d59eded25dcb43c5c125fe9211528557 len=3 verdicts=828183e70e6a4dc28f66dc9277a29c5d434827367c8ee5b2828393b4655c2ade"),
    ("wire/CodecError/InvalidUtf8", "sha256=e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71 len=1 verdicts=ea6562b8fb7ffdd17bbb6d161d674100973f88e076b74aefd2357053dba3144e"),
    ("wire/CertError/Codec/InvalidUtf8", "sha256=2aebe12132ddb192f4a5160f9d9e87ee72954b8b8c58740f45628b3e6fdbc7ac len=2 verdicts=139e219d918b04b02e294730bf640c93a3feab176df8ad1238ee91813eb0bacd"),
    ("wire/CodecError/TrailingBytes", "sha256=e802803d9121dedd544432108e985e1acb00722815513430e9134c80f7ad83e2 len=9 verdicts=f63787029027f7c05f3ace9c9a5afd874c55a2f8c9c132bf7690998562428304"),
    ("wire/CertError/Codec/TrailingBytes", "sha256=f1df493c61b3bf87dca73e18ba1574c330212a15575cce19a354ff1d457664fb len=10 verdicts=f7f9bbdf0d92e116e65a1b23b24886384fa797c3fb2d286ae3ae81229f738e85"),
    ("wire/CodecError/Invalid", "sha256=1af29ce2a956df4199450575c8910d6569db19c6d0da221e7cd5a5ba3702cc42 len=22 verdicts=e4576e4621faf056bdf1a29ec6c09dc3dc973e7907294e6896ac29a2f1e19c38"),
    ("wire/CertError/Codec/Invalid", "sha256=95b60ec68b209d12529c8b41c32074986343ea5b7749f36089994fb065734456 len=23 verdicts=c330e1ead921cf6d3de4982522381c5887c15fd430f2d6037d2a1c6c6ae1af1c"),
    ("wire/CertError/WrongMeasurement", "sha256=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a len=1 verdicts=a3f94c0b3b460341ca9143f125ef1d558304440efb458303ef8efc536b6952c3"),
    ("wire/CertError/KeyBindingMismatch", "sha256=dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986 len=1 verdicts=5d614b10c8cf70462fc9931557008c757024afdec2bbb6d00a9eefc9a5a7fb99"),
    ("wire/CertError/BadSignature", "sha256=084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5 len=1 verdicts=80f67b5cbe3e5e30f95578f55207712134d88a0c4161226296926357cb3ce4b9"),
    ("wire/CertError/DigestMismatch", "sha256=e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71 len=1 verdicts=37228f8fbd86510a76a7b1c0aaa7fe7ff2964b906251815081516101160aa6e9"),
    ("wire/CertError/MissingPrevCert", "sha256=e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db len=1 verdicts=012e3b7cca29b001d4391d24ca8101ae6d5176ead6edd8259e6a65921f314e91"),
    ("wire/CertError/GenesisMismatch", "sha256=67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6 len=1 verdicts=88a844e868e10bda27811c2aebf10c96275e7184cf00dbbde5e22066551c0a2b"),
    ("wire/CertError/ReadSetMismatch", "sha256=2b4c342f5433ebe591a1da77e013d1b72475562d48578dca8b84bac6651c3cb9 len=1 verdicts=754f198ca47e3964b536788b53eba08dc091c4c94ac21a23285f4c5abf4e80ab"),
    ("wire/CertError/StateRootMismatch", "sha256=01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b len=1 verdicts=275f52ebbea4220252e0e4f3926af101d3a7c78e3d2c897254762b1c5fcd00fa"),
    ("wire/CertError/IndexDigestMismatch", "sha256=e7cf46a078fed4fafd0b5e3aff144802b853f8ae459a4f0c14add3314b7cc3a6 len=1 verdicts=47cddba1f8f7a4ed769a16da36ecd2e9955539f69faab5a5fcf20895af547f45"),
    ("wire/CertError/UnknownIndexType", "sha256=6ed12b451ae8d196f0ae60d433918001e8315a21df49988e5170120c41a11501 len=19 verdicts=8338aeb7544de5dab1ddcaf8da10e551de1374f9dfca423ea0e2d1df2e572336"),
    ("wire/CertError/BadIndexUpdate", "sha256=2ed2a5360f5b6f4e42ee76dda5adcd5ff19d89e527063ca9cc20adf175fb8a85 len=15 verdicts=adca2047e0265c0ead079e83020e53f6baf7d84772123fb0a60d7c96bc351c09"),
    ("wire/CertError/NotInitialized", "sha256=4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47 len=1 verdicts=9fe1a76cf678a034f0e247ff5c774c3c38b3384e4977e3eb8b47044de591a566"),
    ("wire/CertError/HeightRegression", "sha256=24b3b343802df029e60a0ac5edad5411dd1e12303f31dd8f8eb78ba60d4cf3d5 len=17 verdicts=faa4367f58b410d48f5d8657e974f8c3a5f51c0d926d9dc45b79c83ba238dcf5"),
    ("wire/CertError/EmptyRange", "sha256=4a64a107f0cb32536e5bce6c98c393db21cca7f4ea187ba8c4dca8b51d4ea80a len=1 verdicts=3383cbd29a6d3a635c6a1ff4472287c1f8bf88c797e39afe054d79c00ea9f08c"),
    ("wire/CertError/HeightOverflow", "sha256=f299791cddd3d6664f6670842812ef6053eb6501bd6282a476bbbf3ee91e750c len=1 verdicts=b370bbc383f5a5e6fb62883aca052db24f9fd52f969f09a538f9ee47652d7ffe"),
    ("wire/CertError/RangeLengthMismatch", "sha256=ab897fbdedfa502b2d839b6a56100887dccdc507555c282e59589e06300a62e2 len=1 verdicts=10315229077c1763e54c81fb2cffd4a0f09cb5461245aa6181fb9eb118cb45b4"),
    ("wire/CertError/RangeAnchorMismatch", "sha256=83891d7fe85c33e52c8b4e5814c92fb6a3b9467299200538a6babaa8b452d879 len=1 verdicts=99db15c9d04fbaca3236a08fcbb56e1758ef2f65b64522eeb950eaa228ba8e26"),
    ("wire/CertError/RangeDiscontinuity", "sha256=8aa2f68f4377a7948643313a823a720f3693df300c68a80853fb08c5156c8b94 len=17 verdicts=ccdec267cc8e721ffdb0b6a2e96eb1cad68bff2cd50de1ba23c8beaede05e66f"),
    ("wire/CertError/host_only", "sha256=a8100ae6aa1940d0b663bb31cd466142ebbdbd5187131b92d93818987832eb89 len=1 verdicts=ccd4e5d8f05a981d811753e74e62074fb80a6d48a0c5571a655d8c2b1b8a2168"),
    ("wire/KvCall/0", "sha256=be903bea5a71c88f88277b758bdefb172ae76ac2c936f2a07a23cbb48ff326e5 len=29 verdicts=2f636f217e3202c68a15ca86eb7b4460340bd83aea2fd782ad41574887067070"),
    ("wire/KvCall/1", "sha256=691c428eb7ca9946429eb1adf3fbde599e81571addd8a686abbf415047ee80ab len=10 verdicts=c4050897dc02fc3f6d9eb37cd42cba8c2f5f0a76a872772abf2114c1d5e0cbbf"),
    ("wire/KvCall/2", "sha256=f2d5524a94a3af6c5ad099f7e7d57be7ab2899b35a0a7d85b583530621f87fec len=6 verdicts=0eb8ab6732324e01f95002a0450e59d380bfa26e6ea495b23e72da532bad9f94"),
    ("wire/IoHeavyCall/0", "sha256=96c57c7ba73099155c0f8d4ddabc706d0a2cd9c68c7161d3d31694069cbbb3d2 len=13 verdicts=3c025cf33fbe6f66503c993f49315a4027fdf01a9069cbefdeb240f2036f4255"),
    ("wire/IoHeavyCall/1", "sha256=9bb2ed10f2cd8efaa4e0c3d9577315ed6bc723cce638d965b4c3f015ce947de2 len=13 verdicts=55f4484dc3e731092892c48ee47f2f149028120b49ae8e800effc6154d99b87d"),
    ("wire/CpuHeavyCall", "sha256=869380108c8336005b0709fef3390a77f5a0190efa0a908ee98e3618ab8dfa03 len=12 verdicts=336031ddbb50de1de8d66f65bb566794f5d64f2c8575b4ce2c72be1a847486ec"),
    ("wire/BankCall/0", "sha256=e0d74ad27eab6daa8e948dc6db25ff74476dcde55790ec9ac57ad57c658f0f34 len=17 verdicts=8aea0c22807dc003acd65920cadca41dd6aa0a94c63889df35d4a171212b77f4"),
    ("wire/BankCall/1", "sha256=60d750ebe28786edd15962ed819c8257c5b6cddfabd187a1b107dc2e03a40a6f len=17 verdicts=a758e74f7d3263cc3697f80a89a3d9bbaa53eb8a4ebe4d04916b5c9c080d3b00"),
    ("wire/BankCall/2", "sha256=133fbfb379074235c6aa617b5b0c79b55f9c4868e699067dd9fefebc896ca3d6 len=25 verdicts=5a60c8db59d7508f7c3b5d532a0d0b49c7ee444cbb6614dd4ff232d8cbf7f41c"),
    ("wire/BankCall/3", "sha256=326d747683f1325b7c73f8148b71332ae77fc46b1dfeb5db3dd0c7726bdd273c len=17 verdicts=a07b15c28cf71ea1131a4cf2f3f18a06c1ef2670657b4d3a92469915fca17b45"),
    ("wire/BankCall/4", "sha256=797dd7dc3286f70caadd95a94aa19cd2683cdf5ce7b7c3a0fba2239a35da6c99 len=17 verdicts=9744d3a2f16f011a4ab17bc906a797f81e34de2d4f2d5337544309bf6b2da4e9"),
    ("wire/BankCall/5", "sha256=988bd388623eaf3ba6205d2a15b0961ee845af1b594e9d4020e93c8962298f22 len=9 verdicts=f7700b4663f477060e67cd586eb9dffc4ddbbfdc03bd4383c5017d97fb7e1595"),
    ("wire/Call", "sha256=adfc661ac6294216b70950ba66d728f64362b18bdd101b184cda30ba16d6f645 len=64 verdicts=4130f7cc960d63650cbc24da81f370d8dc6c2c8e3c0573ebad1d5303e47e1854"),
    ("wire/StateKey", "sha256=e0afdac60d8cabf2afa4718e4a20aed38a21fabb4d1fe3b1e951efe2c26327dd len=32 verdicts=8070ebe1f64860bd1cffed2412932a7afc7d9bf9846f0c8464b04c0718a5f3b2"),
    ("wire/Transaction", "sha256=cc2d2830fb994484c5ca82be47995fb0688449bbbfe0ce3c5da731075f7910e4 len=168 verdicts=a26dc1b800096a5567814d028086188ee18a3e28c76756c37316cd5e9fe940c7"),
    ("wire/ConsensusProof/0", "sha256=3a2ddb6c50205a6ed52b742525e94fc68feb9f1c3362fd709c29711725c389e3 len=10 verdicts=cec7d1702ead1c02969e07c687a322a53ff51c82b0ea5f0a1c9cfc23bff1beca"),
    ("wire/ConsensusProof/1", "sha256=beb326cc845c6da8cb816af61951c68e2a7ff600a9369ec022c7294caae3c519 len=97 verdicts=f0ba8f0c974cb3bb45fd69904803ee41a92c32fd6e5808434e23b5d65fd138d6"),
    ("wire/Block", "sha256=02d6c703d31a37843fde660c840a6cf5ecf81eb7ff17142a8f290e05aa5e0540 len=314 verdicts=edacd841c339aebf653b8f5f0ecc1e763ec5c563e09612087ee4af99f680be9e"),
    ("wire/AttestationReport", "sha256=377bfb2c34dba8fc2fa3d88851ab443870f340765f5ede1974c76f7d78e6d677 len=128 verdicts=9aafdda17ca425f6a32ea15556c17c6f7f3809a61ad3a7e51888f8dc38ddd9b6"),
    ("wire/Certificate", "sha256=e2c63a27c8f65ec637ae24a52280021c61da052273f07cc1b8280af574c11266 len=256 verdicts=7e504af270743faba976e85f595f85d5756c895106b27ed63a6048a7b08b0f82"),
    ("wire/SealedBlob", "sha256=c6775d90f3e118684e403b1c49ff192655283e44f75f249929c33534d9499c12 len=113 verdicts=460218eb2df17228233e31ae272c4f05fc9ead631129f16c145024cca264e022"),
    ("wire/RangeCert", "sha256=bdd8789d84e788d8f2fbd50a3ee8a4b27f012b330b71cf32f2f666aa59915428 len=340 verdicts=5a928ce7454effdc1d4d6296280a833c4a537dd2d07b8e641d54c067048f3501"),
    ("wire/Aggregate", "sha256=39b9168f34b9f57021a677bea00f963b37e371af6433ae2a5fc15c2c6951c1f2 len=40 verdicts=ab59b4ef026697756866b812a4ba48ca1deabbd273fefdf2c0970e438f463d6b"),
    ("wire/Summary", "sha256=fb7e6793ab1ea1710480595b45ef15f8ee3a7b8f26ee370ba7fec7081fc238ca len=72 verdicts=7e4e6f706f525b7c6536685949f3551a153f7f838cfa9a4ada58d508821e0196"),
    ("wire/MbAppendProof", "sha256=42275b4661f543f67a56f45553b5615bc680597dee38a6c18c2bdd65727261f3 len=218 verdicts=9f9feb3c149519ea20f1235d1b2eb02637cc002a89de6256c128b900743731d1"),
    ("wire/AggAppendProof", "sha256=780a2c32f11d03a583573f554bd045cb53a8a410a24efc936edab52ba1e88696 len=226 verdicts=bf652cd82cd7f2e5e0c12cd1caaf6362e2b3803eb76b44a4bcbdf1c9ebc723b5"),
    ("wire/ProofOp/plain/0", "sha256=95f62d89c99d43ac72fbe40e490c29d8f40e31c68f59f3a020e69540324d783b len=46 verdicts=2e4f935bac8c85f5e85eae33870f9aa4a9822fdeaf814df926f0ff3a742314ba"),
    ("wire/ProofOp/plain/1", "sha256=dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986 len=1 verdicts=51077af1cf430b64ba04c34047bb236ae67fb9322202c1754d4db8b9fca7ae2e"),
    ("wire/ProofOp/plain/2", "sha256=084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5 len=1 verdicts=129abf1af06f41506bcc8809db8bb8133159b3d5a04cb70baedfe27c2c8f8c12"),
    ("wire/ProofOp/summed/0", "sha256=346a8df01d051d953399d2ee7e32d2c1fc7155b141a7e025870e1376e8a378be len=74 verdicts=dd186d6673f3055a8d2c32fecadcd52720e2144d645947056287ee80860c2213"),
    ("wire/MbOpProof", "sha256=86bbb089e0d4eca7d0162a281399f1684fa9f07f987ad79d1b534a47ac023489 len=275 verdicts=35b5c8be9cb1bba160ecbc4faffd9a2d90bf917a160a0eee029e4ebd63aad8ff"),
    ("wire/AggOpProof", "sha256=a8207fee1f9243f2634cd906e2dbd7d9a9dfabd010573b102b8bc70eb11c608e len=231 verdicts=d49f2aca15ac1c3cc1dee308304b4f33d37a798a04c46492823d7cf242047bf1"),
    ("wire/BatchLink", "sha256=1149d4865e95bb78200ca46d6e6b25a04033c317aeda7e64688c0e904231c1a7 len=505 verdicts=7a45783d0c61caaf8e710409a65042588b29df0d18e1a7543f6bdbd61c141635"),
    ("wire/IndexInput", "sha256=d26f5c04ac4ec7c65a8e09d8fd04a907c79dc5fe4fb8112297b406d1c76886c5 len=89 verdicts=0bb9ee8686c9f723ba8b2756d62a2106be26ea91d47cd7baf022ad3dd786351a"),
    ("wire/EcallRequest/0", "sha256=6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d len=1 verdicts=8563ae66c2f0ad5478648ddcea273f89b09ddd4bcf37e591bea00dbea3770630"),
    ("wire/EcallRequest/1", "sha256=08d09e7db2b25c2ded161cac447a7aa26f62a577c9ee2f49c3aac6b2728f9b26 len=1092 verdicts=27d3806801b60b17fe066693fa62f498ab3d6a981e1f94708df4152f5466d721"),
    ("wire/EcallRequest/2", "sha256=46c11664de2988d9b9e31c81ccf9a7ac7f7f3a024ad75aea1aec12619d0882f1 len=993 verdicts=20a1c1273ea0f529fe9b5b6016545ba30399ec941603a82b5ba2c3edcf175c2f"),
    ("wire/EcallRequest/5", "sha256=ea720739d62d953ed2361f90f91244322fabec4bc0ffd09ea59cda4d6f2537f1 len=652 verdicts=c50c96ef95ce59d6e4dfa47fba8d59fae276c54b54bedff11f36165bfc1e7b67"),
    ("wire/EcallRequest/6", "sha256=7ee62411ce6fc4a0d16e5dc01ece149ecf32edc97ac7d09266afd7386925f9c1 len=744 verdicts=e57b76965fccc5485b31e59e6355eacf41b09df34b9af7ba881684270a648f34"),
    ("wire/EcallResponse/0", "sha256=99cf3e73b898706d983752db510a7b9fb2ee4456510e1f060eca3fff7d06069a len=33 verdicts=cbd8d88d03506a6e7432917b780954d43238d5662f9ed35b20816ba27ded2b08"),
    ("wire/EcallResponse/2", "sha256=81a86a5814902e664fa584443579879bc0fc92dec89e0c24be77e4ac579eb145 len=8 verdicts=212e4d6aa2578d5c64671069fe084d94f0de1803694451d087dfee0239c5796c"),
    ("wire/EcallResponse/3", "sha256=716c2c1ea282f93bbc00f9d4b8d096880ce1f4d7229c901e83ec10a4b15f668c len=133 verdicts=b4af87dec5d070d9bd9062d2fa911f301c0098d1e0663348f38a5bef66fe1dde"),
    ("wire/NetMessage/0", "sha256=ed5ce92bc76d6f1be7f82ed61cc70dc4c208ee777aaf7e2f49b3df524fe36f9c len=315 verdicts=5557e03169207eb65c80543f900ec73a31211417e16091da47b7ed263b10d301"),
    ("wire/NetMessage/1", "sha256=2d70a5e8e23de75dd17b9d96b10be2e40a79b0f845175e96b5805d74371d1ec7 len=399 verdicts=a4e533bf9758c2151ae8a2ad34db1f08bffd98fee39ca772d066b03c891ba573"),
    ("wire/NetMessage/2", "sha256=edddf88f60119435b47bfb15c6f30795f14cf08e96b15d74dbae4f766f41dbb1 len=442 verdicts=f05c1f36ce9b42e002048e8102410f1043a25086911f30985e5cb021fcbdce89"),
    ("wire/NetMessage/3", "sha256=5825fd8079c7bccd33febd4d60afadcf3b3fb19c30754a106728a06ed9fb8621 len=17 verdicts=0122a3d1311650585f3502592e8731beb309cdd11c93f5d1a59840f6fd3ed711"),
    ("wire/NetMessage/4", "sha256=e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71 len=1 verdicts=576aa4099541c37a120184cc655c594e53c276e81bb5cb8032050e76a68c6525"),
    ("wire/NetMessage/5", "sha256=ea781c4e50c9e097ba655876283d129ffc9273099fcb56625004f3be397e855d len=8 verdicts=249f30143d98116c4b95fe67d60c78f53028ae3b4bc782f070fabd0e6bff695d"),
    ("wire/InvertedUpdate/aux", "sha256=c2b443abf053d2f27d9f45f1b90295e4e9051f0bdf98480eca4a9e6f11f17a62 len=104"),
    ("wire/KeywordProof", "sha256=55c11addd30eb19a91f5eef29c46b62f4ec8a99e00f1af728a2db3484f55e6f1 len=238 verdicts=784c9a7ee75ce97cf0857273ce1a3fffe11b15e633ed2340f27c5e0920352682"),
    ("wire/HistoryProof", "sha256=6cfeb38d9c891b71dbd86b208d2e2ac1952afdc9ab434cab6a2862e2d73a7c2e len=284 verdicts=0f7273d92deb40f8af55d1ff0a1ab99a9c9be35d70400259e47d200fbe0d8d81"),
    ("wire/AggQueryProof", "sha256=584bf96fb8902bdad659f74c16f28498d747d8633ed8ecdcf9a2314c33b7f82f len=188 verdicts=564998613f5fdd169c40af31bd43d6f9bec0c467e162de980ac8b66c7edb1bae"),
    ("wire/CertifiedEntry", "sha256=a2377dd393d88053b80460f1747f36fec37ec39adbde0b5f4019a16d16671837 len=353 verdicts=b490def2f28f673eb10c8e62302c34f695418cb8bba51260870b62c5062b55de"),
    ("wire/QuerySpec/0", "sha256=f6ce27009b235b37bfbf015226869ea36bc911e47d9e9d332075301d44a44678 len=60 verdicts=78962525befd161d930acc56f62a35f9a8c671111b9027acc884db2acb56778e"),
    ("wire/QuerySpec/1", "sha256=8d2552e06fec4c875715d6c3570a5ed57117cf010f6055b7e75f122c614dec54 len=34 verdicts=0e820ac8e030a5456da96e4581795fe6d61f2d1f8064df81eb77550c0b45b6b6"),
    ("wire/QuerySpec/2", "sha256=62231c9b60f71f543a2bbd4f7cfc6cb596451bf5ec88305d4bf409113caa1c8e len=56 verdicts=ea95b6a1c87f7520438840eb18b21efb50c9c369a0df8f59f55eceaecf45231a"),
    ("wire/QuerySpec/3", "sha256=9b94a7bb03f80ab09ff80c6cbf8ff6d50401bc8337616d801879154ce35c95ae len=60 verdicts=a8f363c2764b8ef6cdfaedc087114a354d0bb4a14b351ee91ae985ecdcac9d81"),
    ("wire/QuerySpec/4", "sha256=0a5702e6616f2265b748181dcd576b7e652064bb7cda0f4c831c0a3fc4bd64ed len=56 verdicts=7803dce077e0b951d763dc8757a68df6963a968c8248673aa357bb75539f960d"),
    ("wire/ServeRequest", "sha256=90aac65f5b780dafa3c47d8431ff5109c45cc0467e585a03c50ba7b5637ff78e len=50 verdicts=a0b038eff6c13246b711b70e7e87e919425d560ac1fb2212086f1fb0c340a438"),
    ("wire/ServeResponse", "sha256=fba1e7fcca408d06d2cc4f38186e45103fd552c0ec576f3d0d6d8f465e29887b len=23 verdicts=f2a1d1efdf19206a8df243baa6e8705e8e36cfc0f68fbaa571ef0888b154e8a7"),
    ("wire/RefusalReason/0", "sha256=5edfe25b7b7ac7f16027787bc463050f33f1a84397a5ffbd1cbc8dd507cafdd6 len=9 verdicts=fb771723a4b86a043e46d3d2a08251b14d9aef3adff091e05500d6ec521ff81a"),
    ("wire/RefusalReason/1", "sha256=b4fd3368acff1684eb0d827d6717a342f730cd3692198f2a340401d376c32f65 len=9 verdicts=1f131e4f5b666cde66c803e9a9f12768fb47dbcd81c89b65d8ceb505627910c2"),
    ("wire/RefusalReason/2", "sha256=ce58b1ea7629930789be6d360c8d7ddc32bd84fc2165293f9788207b85481c47 len=9 verdicts=a7d881934cdcfcf97da77ab87ecedca43b30421a36d860ae2e3d695a9940f4ee"),
    ("wire/RefusalReason/3", "sha256=084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5 len=1 verdicts=83de34cb049683d8862ab9abf78e632aea1060d1f5a82f5be57a8cc103b22acd"),
    ("wire/ServeRefusal", "sha256=70ad9344d9afb645e58c7f8e35dce7751fcd9e88310e4e247fc25d34d1696818 len=17 verdicts=0606fa3a8bf33eda3498d3580f26b602aca76b1c23ca15507814e523a7fa8bdf"),
    ("wire/ServeWire/0", "sha256=335eb3b1c691116698e01e56cee61cdb9e273722e87f0ee1a08d1fea0b2fc8f7 len=51 verdicts=a0c3adb7a8c6b873326db4bf66f0d36df4355fc64994643a50cf2dd38d02f4aa"),
    ("wire/ServeWire/1", "sha256=4126bdb84b86d95e538f8139969d2f2fb647877d1f0d0421161d8e0c062e5539 len=24 verdicts=2b71dbb4e90aef2326b8c5840d433d6a3dac179f761dfd2489d384b6756f1557"),
    ("wire/ServeWire/2", "sha256=fd0dc14521c3d6a24b6b55e282a86331df06be3b9ddafe77f5b527ade63ac9b8 len=18 verdicts=a5c85386e987a0ae94ce4107687b0b5472578c1564bebc7fc49e18e6623f3494"),
    ("wire/StreamId/0", "sha256=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a len=1 verdicts=38f23cdac957199416dd59a22dc82e06c4f57a2fc5864e3bf5bb6e73db4fa9b3"),
    ("wire/StreamId/1", "sha256=dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986 len=1 verdicts=8ab1f3a3ac3058f183d3fb306770dfaf00a9d52b33fc3a50e17d53cf0598e0d5"),
    ("wire/Record", "sha256=81df23dae197ae051ba46858989581de15a949eb2e244081167b803f44798589 len=17 verdicts=60d50dfdd8e7bb14502544dd3452b78e2ff78e2a2e57f91605762605c2bc9397"),
    ("wire/SegmentMark", "sha256=045b289190b4521f034cc07a86bb1af1728ff5090b359b16c5b8459a4d991a22 len=12 verdicts=2d809916e9097f284021040bcddc32bd5340350f6542298586086bdae7ba75d1"),
    ("wire/HeadState", "sha256=5721b818b34450c9eb9b982c7edcf47c208bc21c6d2d12d328fd22d991d1a17a len=55 verdicts=2057ae5eea7191f87f2966aa12897891c4d3930ee63c573211c25a3d58616288"),
    ("wire/SkipRangeProof", "sha256=b5b1894fa886216fc32afc104ca0af91d985df2d33ebaec971246794d34481f7 len=485 verdicts=5a391a25eab07d6131b4daa239efbd7581de5ae9b700f2ba74165f2896b5d1d7"),
    ("wire/LineageProof", "sha256=2ca4047262fe791016921589d8a0294889078b050b3aaf8358975ccff4c7d667 len=304 verdicts=69c79c712a64fea3800e58405512943fbf5377c83eb30f93c3c267d065d66b6c"),
];
