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
//! envelope moved, once. Every `mb/*` and `agg/*` row is byte-identical to
//! 848016d: the B+-tree and its window proof were not touched.)
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
//! Algorithm 5 crosses once a block (`HierSigGen`) instead of once for the
//! block and once per index, so over 6 blocks × 2 indexes `ecalls=` went
//! 18 → 6, `request_bytes=` 34913 → 15577 (the block is marshalled once, the
//! write set and its second proof not at all) and `response_bytes=`
//! 1170 → 1182 (6 signature lists with a count prefix instead of 18 bare
//! signatures). Their `…/stream` rows, and the other 25 rows, did not move.
//! After 998a08d the restored shard enclave reports its ECalls too, so only
//! `cert/fleet{1,2}/work` moved: `ecalls=` 4 → 7 / 7 → 9, `request_bytes=`
//! 3184 → 9039 / 7708 → 9463, `response_bytes=` 520 → 683 / 683 → 781.
//!
//! To re-capture (only ever legitimate at a commit that intends to break
//! the wire format): empty the table, run the test, paste the table it
//! prints.

use std::sync::{Arc, Mutex};

use dcert::chain::Block;
use dcert::core::{
    CertBreakdown, CertJob, CertPipeline, Certificate, Gossip, IndexInput, NetMessage,
    PipelineConfig, ShardFailurePlan, ShardFleetConfig, SharedStore,
};
use dcert::merkle::{mht, AggMbTree, MbTree, SmtProof, SparseMerkleTree};
use dcert::obs::Registry;
use dcert::primitives::codec::{Decode, Encode};
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert::query::aggregate::AggregateIndex;
use dcert::query::history::HistoryIndex;
use dcert::query::sp::IndexKind;
use dcert::store::MemStore;
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::World;

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
        let mut history = HistoryIndex::with_order("history", order);
        let mut aggregate = AggregateIndex::with_order("aggregate", order);
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
    ("history/3/op_proof", "a05b56599a22166ca91b8dfaac9d21d2a2b698cf7b71b33aab47b22a63ee8e74"),
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
    ("history/4/op_proof", "6d239e94e1345d8821fe196ad932a94f9fc865687f7bb0544076792b2184fb55"),
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
    ("history/16/op_proof", "a4342316bd7c53ed7c7ba0a3e29e542142e22fa023bfd7a78560b2ee56c4c3e0"),
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
                world.sp.record_certs(&index_certs);
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
                world.sp.record_certs(&index_certs);
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
        world.sp.advance_staged();
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
    let pipeline = CertPipeline::spawn(
        world.ci,
        PipelineConfig {
            queue_depth: 2,
            ..PipelineConfig::default()
        },
        gossip,
    );
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
    ("cert/sequential/block/work", "certs=6 ecalls=6 request_bytes=9571 response_bytes=390 marshal_reuse_bytes=7564"),
    ("cert/sequential/batch/stream", "1ebb4a09d626bf697193bdde7965e1c14b549636539c7d147862acde272ba843"),
    ("cert/sequential/batch/work", "certs=3 ecalls=3 request_bytes=8383 response_bytes=195 marshal_reuse_bytes=5072"),
    ("cert/sequential/augmented/stream", "aa8595d15a547fc311ca23d28510aaf8456108fa89814932c30bf9023ecf6378"),
    ("cert/sequential/augmented/work", "certs=12 ecalls=12 request_bytes=22564 response_bytes=780 marshal_reuse_bytes=19981"),
    ("cert/sequential/hierarchical/stream", "a77317f1df6343584041bd3a96986a4af2a1a1b9a5872418a241a4755a568d1b"),
    ("cert/sequential/hierarchical/work", "certs=18 ecalls=6 request_bytes=15577 response_bytes=1182 marshal_reuse_bytes=12378"),
    ("cert/pipeline1/block/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/pipeline1/block/work", "certs=6 ecalls=6 request_bytes=9571 response_bytes=390 marshal_reuse_bytes=7564"),
    ("cert/pipeline1/batch/stream", "1ebb4a09d626bf697193bdde7965e1c14b549636539c7d147862acde272ba843"),
    ("cert/pipeline1/batch/work", "certs=3 ecalls=3 request_bytes=8383 response_bytes=195 marshal_reuse_bytes=5072"),
    ("cert/pipeline1/augmented/stream", "aa8595d15a547fc311ca23d28510aaf8456108fa89814932c30bf9023ecf6378"),
    ("cert/pipeline1/augmented/work", "certs=12 ecalls=12 request_bytes=22564 response_bytes=780 marshal_reuse_bytes=19981"),
    ("cert/pipeline1/hierarchical/stream", "a77317f1df6343584041bd3a96986a4af2a1a1b9a5872418a241a4755a568d1b"),
    ("cert/pipeline1/hierarchical/work", "certs=18 ecalls=6 request_bytes=15577 response_bytes=1182 marshal_reuse_bytes=12378"),
    ("cert/fleet1/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/fleet1/work", "certs=6 ecalls=7 request_bytes=9039 response_bytes=683 marshal_reuse_bytes=0"),
    ("cert/fleet2/stream", "756d9a5c3ee068b4da6fd4dd1c0e79d26a598efde7412901dbb8546fa9998538"),
    ("cert/fleet2/work", "certs=6 ecalls=9 request_bytes=9463 response_bytes=781 marshal_reuse_bytes=0"),
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
    ("smt/blocks_io/proof", "0480f3d93cceec32143a4cc05e7e39b288c840230c61b724c2ab881db621ccda"),
    ("smt/blocks_io/bytes", "155059"),
    ("smt/blocks_io/root", "372bb4cbfefed24229356a0862249c36797f1a3509f85d8271178603e4a31be2"),
    ("smt/blocks_io/updated", "8040fcbbab22ad7d93c83eb08fc419da9e1060c152544c031c2f1a5a415f33f5"),
    ("smt/empty_tree_300/proof", "02dab4463946006f95a2ce1caf3bead92b18c673bbb20b139afd35975f2386fb"),
    ("smt/empty_tree_300/bytes", "9918"),
    ("smt/empty_tree_300/root", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/empty_tree_300/updated", "8335286d7098ecf69220731f54017979511d924761c795a898c3699f066abb2e"),
    ("smt/deep_prefixes/proof", "087406e271d8e72a9809baa7c9d89c7344a2c81c31aa0de0f903f44583bed4c4"),
    ("smt/deep_prefixes/bytes", "1034"),
    ("smt/deep_prefixes/root", "8584c2b9262c81159f51c709ee795898af96079062560cd812faea3839f5d7d4"),
    ("smt/deep_prefixes/updated", "62af5b8d9897c5dd516b3daf6aa7a17a80a02539a3ba542d9272f0da2cdeb8c2"),
    ("smt/deep_absent_pair/proof", "60997555ce7c971a9b57fc36187c9a9df1ce5354f600b6d0600c06ae67dbb762"),
    ("smt/deep_absent_pair/bytes", "447"),
    ("smt/deep_absent_pair/root", "8584c2b9262c81159f51c709ee795898af96079062560cd812faea3839f5d7d4"),
    ("smt/deep_absent_pair/updated", "4c83bfef90201d660dda2af05f4dde15cdeadecef9cb2f8b4d467f3f06e47b8c"),
    ("smt/no_keys/empty_tree/proof", "e605996b7ab132f21c3c80bf8b74dc895e92146a404c58180cbb822c04212793"),
    ("smt/no_keys/empty_tree/bytes", "15"),
    ("smt/no_keys/empty_tree/root", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/no_keys/empty_tree/updated", "0000000000000000000000000000000000000000000000000000000000000000"),
    ("smt/no_keys/one_leaf/proof", "6ba2eaca303921db61c60ecbfe3787845c832cfbde72cd127ebc4a4ed5fb8e0e"),
    ("smt/no_keys/one_leaf/bytes", "77"),
    ("smt/no_keys/one_leaf/root", "8c99dd5b1925a03e9ab8f7ae53f744a1fda696f53bcd1092a902298b53e19fab"),
    ("smt/no_keys/one_leaf/updated", "8c99dd5b1925a03e9ab8f7ae53f744a1fda696f53bcd1092a902298b53e19fab"),
    ("smt/no_keys/64_leaves/proof", "9cdecd372fa2eda373a381488ddc9888a5144735b7d471ddcb0bdca3a7c27fd4"),
    ("smt/no_keys/64_leaves/bytes", "45"),
    ("smt/no_keys/64_leaves/root", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/no_keys/64_leaves/updated", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/one_present/proof", "ffcd32c571053456ae4b13f1f03f50129999f88965f04d125c6a60d657811054"),
    ("smt/one_present/bytes", "345"),
    ("smt/one_present/root", "2ba16aa37a1088a4465a9790244d35fb2afb9094bfe93a83a4c37cd1c6ffaf74"),
    ("smt/one_present/updated", "b756d2f8084d86ddad1f78e7e41c3803781ec0490636e0df2b90a65005d70ba1"),
    ("smt/one_absent/proof", "a9f960a46a586fd707359f28e628bbbcca31a741b4ed23cdc0cedaa8042af615"),
    ("smt/one_absent/bytes", "343"),
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
