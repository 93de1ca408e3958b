//! What the two read workloads share: a SmallBank chain with the three
//! authenticated indexes, hierarchically certified block by block, and
//! the client-side handling of a served answer (decode, verify against
//! the certified digest, compare with a direct answer, reject a
//! tampered one).

use std::collections::BTreeSet;

use dcert_chain::Transaction;
use dcert_core::{CertificateIssuer, NetMessage, SuperlightClient};
use dcert_obs::Registry;
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::PublicKey;
use dcert_query::aggregate::{verify_aggregate, verify_aggregate_op};
use dcert_query::history::{verify_history, verify_history_op};
use dcert_query::sp::IndexKind;
use dcert_query::{extract_keywords, verify_keywords, QueryError, ServiceProvider};
use dcert_serve::{
    decode_aggregate_op_payload, decode_aggregate_payload, decode_history_op_payload,
    decode_history_payload, decode_keyword_payload, encode_aggregate_op_payload,
    encode_aggregate_payload, encode_history_op_payload, encode_history_payload,
    encode_keyword_payload, QuerySpec, ServeFront,
};
use dcert_vm::StateKey;
use dcert_workloads::Workload;

use crate::error::{gate, BenchError};
use crate::trace::Tracer;
use crate::world::{self, Base, Miner};

pub const HISTORY: &str = "history";
pub const INVERTED: &str = "inverted";
pub const AGGREGATE: &str = "aggregate";
const INDEXES: [(IndexKind, &str); 3] = [
    (IndexKind::History, HISTORY),
    (IndexKind::Inverted, INVERTED),
    (IndexKind::Aggregate, AGGREGATE),
];

pub const WORKLOAD: Workload = Workload::SmallBank { customers: 64 };
pub const TXS_PER_BLOCK: usize = 8;

/// The five query classes, in the order their metrics are listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    History,
    HistoryOp,
    Aggregate,
    AggregateOp,
    Keywords,
}

pub const CLASSES: [Class; 5] = [
    Class::History,
    Class::HistoryOp,
    Class::Aggregate,
    Class::AggregateOp,
    Class::Keywords,
];

impl Class {
    pub fn of(spec: &QuerySpec) -> Class {
        match spec {
            QuerySpec::History { .. } => Class::History,
            QuerySpec::HistoryOp { .. } => Class::HistoryOp,
            QuerySpec::Aggregate { .. } => Class::Aggregate,
            QuerySpec::AggregateOp { .. } => Class::AggregateOp,
            QuerySpec::Keywords { .. } => Class::Keywords,
        }
    }

    /// Span names of the serve and verify steps, and the three metric
    /// names of the class.
    pub fn names(self) -> ClassNames {
        macro_rules! names {
            ($class:literal) => {
                ClassNames {
                    serve_span: concat!("query.", $class, ".serve"),
                    verify_span: concat!("query.", $class, ".verify"),
                    serve_us: concat!("query.", $class, ".serve_us"),
                    verify_us: concat!("query.", $class, ".verify_us"),
                    proof_bytes: concat!("query.", $class, ".proof_bytes"),
                }
            };
        }
        match self {
            Class::History => names!("history"),
            Class::HistoryOp => names!("history_op"),
            Class::Aggregate => names!("aggregate"),
            Class::AggregateOp => names!("aggregate_op"),
            Class::Keywords => names!("keywords"),
        }
    }
}

pub struct ClassNames {
    pub serve_span: &'static str,
    pub verify_span: &'static str,
    pub serve_us: &'static str,
    pub verify_us: &'static str,
    pub proof_bytes: &'static str,
}

/// A certified, indexed chain behind a service provider, with a
/// superlight client that holds its certified digests.
pub struct IndexedChain {
    pub base: Base,
    pub miner: Miner,
    pub sp: ServiceProvider,
    pub ci: CertificateIssuer,
    pub client: SuperlightClient,
    /// State keys the chain really wrote, sorted.
    pub keys: Vec<StateKey>,
    /// Keywords the chain's payloads really contain, sorted; SmallBank
    /// payloads are binary, so this is short or empty and keyword
    /// queries then mostly walk the non-membership path.
    pub keywords: Vec<String>,
    /// The tip's certificates, all a fresh client needs.
    pub tip: Vec<NetMessage>,
}

impl IndexedChain {
    pub fn ias_key(&self) -> PublicKey {
        self.base.ias_key()
    }
}

pub fn build(blocks: Vec<Vec<Transaction>>, obs: &Registry) -> Result<IndexedChain, BenchError> {
    let mut base = Base::new();
    let mut miner = base.miner();
    let mut sp = base.service_provider(&INDEXES, obs);
    let mut ci = base.issuer(sp.verifiers(), obs)?;
    let mut keys = BTreeSet::new();
    let mut keywords = BTreeSet::new();
    let mut tip = Vec::new();
    for txs in blocks {
        keys.extend(miner.node.execute(&txs).writes.keys().copied());
        for tx in &txs {
            keywords.extend(extract_keywords(&tx.call.payload));
        }
        tip = certify_next(&mut miner, &mut sp, &mut ci, txs)?;
    }
    let client = world::bootstrap(base.ias_key(), base.measurement, &tip)?;
    gate(!keys.is_empty(), || "the chain wrote no state".to_owned())?;
    Ok(IndexedChain {
        base,
        miner,
        sp,
        ci,
        client,
        keys: keys.into_iter().collect(),
        keywords: keywords.into_iter().collect(),
        tip,
    })
}

/// Mines one block and takes it through the SP and the issuer; returns
/// the certificates a CI would publish for it.
pub fn certify_next(
    miner: &mut Miner,
    sp: &mut ServiceProvider,
    ci: &mut CertificateIssuer,
    txs: Vec<Transaction>,
) -> Result<Vec<NetMessage>, BenchError> {
    let block = miner.mine(txs)?;
    let inputs = sp.stage_block(&block)?;
    let (block_cert, index_certs, _) = ci.certify_hierarchical(&block, &inputs)?;
    sp.record_certs(&index_certs);
    sp.advance_staged();
    Ok(world::cert_messages(
        &block,
        &block_cert,
        &inputs,
        &index_certs,
    ))
}

/// What the SP answers when asked directly — the reference every payload
/// served through the front must equal.
pub fn direct_answer(sp: &ServiceProvider, spec: &QuerySpec) -> Option<Vec<u8>> {
    match spec {
        QuerySpec::History { index, key, t1, t2 } => sp
            .serve_history(index, key, *t1, *t2)
            .map(|(rows, proof)| encode_history_payload(&rows, &proof)),
        QuerySpec::HistoryOp { index, key, t1, t2 } => sp
            .serve_history_ops(index, key, *t1, *t2)
            .map(|(rows, proof)| encode_history_op_payload(&rows, &proof)),
        QuerySpec::Aggregate { index, key, t1, t2 } => sp
            .serve_aggregate(index, key, *t1, *t2)
            .map(|(aggregate, proof)| encode_aggregate_payload(&aggregate, &proof)),
        QuerySpec::AggregateOp { index, key, t1, t2 } => sp
            .serve_aggregate_ops(index, key, *t1, *t2)
            .map(|(aggregate, proof)| encode_aggregate_op_payload(&aggregate, &proof)),
        QuerySpec::Keywords { index, keywords } => {
            let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
            sp.serve_keywords(index, &words)
                .map(|(ids, proof)| encode_keyword_payload(&ids, &proof))
        }
    }
}

/// Whether to check the answer as served or with its claimed result
/// altered (which every verifier must reject).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    AsServed,
    Tampered,
}

/// Why a client refused an answer.
#[derive(Debug)]
pub enum Refused {
    /// The client holds no certified digest for the queried index.
    NoDigest,
    /// The payload does not decode.
    Malformed(CodecError),
    /// Result and proof do not verify against the certified digest.
    Unproven(QueryError),
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refused::NoDigest => f.write_str("no certified digest for the index"),
            Refused::Malformed(e) => write!(f, "payload does not decode: {e}"),
            Refused::Unproven(e) => write!(f, "proof does not verify: {e}"),
        }
    }
}

/// The client side of one answer: decode the payload, then verify result
/// and proof against the certified digest the client holds for the
/// index. `Err` carries the reason the answer was refused.
pub fn decode_and_verify(
    mut tracer: Option<&mut Tracer>,
    journey: u64,
    client: &SuperlightClient,
    spec: &QuerySpec,
    payload: &[u8],
    claim: Claim,
) -> Result<(), Refused> {
    let digest = client.index_digest(spec.index()).ok_or(Refused::NoDigest)?;
    let verify_span = Class::of(spec).names().verify_span;
    let tamper = claim == Claim::Tampered;
    match spec {
        QuerySpec::History { key, t1, t2, .. } => {
            let (mut rows, proof) = spanned(&mut tracer, "serve.wire.decode", journey, || {
                decode_history_payload(payload)
            })
            .map_err(Refused::Malformed)?;
            if tamper {
                tamper_rows(&mut rows, *t1);
            }
            spanned(&mut tracer, verify_span, journey, || {
                verify_history(&digest, key, *t1, *t2, &rows, &proof)
            })
            .map_err(Refused::Unproven)
        }
        QuerySpec::HistoryOp { key, t1, t2, .. } => {
            let (mut rows, proof) = spanned(&mut tracer, "serve.wire.decode", journey, || {
                decode_history_op_payload(payload)
            })
            .map_err(Refused::Malformed)?;
            if tamper {
                tamper_rows(&mut rows, *t1);
            }
            spanned(&mut tracer, verify_span, journey, || {
                verify_history_op(&digest, key, *t1, *t2, &rows, &proof)
            })
            .map_err(Refused::Unproven)
        }
        QuerySpec::Aggregate { key, t1, t2, .. } => {
            let (mut aggregate, proof) = spanned(&mut tracer, "serve.wire.decode", journey, || {
                decode_aggregate_payload(payload)
            })
            .map_err(Refused::Malformed)?;
            if tamper {
                aggregate.count += 1;
            }
            spanned(&mut tracer, verify_span, journey, || {
                verify_aggregate(&digest, key, *t1, *t2, &aggregate, &proof)
            })
            .map_err(Refused::Unproven)
        }
        QuerySpec::AggregateOp { key, t1, t2, .. } => {
            let (mut aggregate, proof) = spanned(&mut tracer, "serve.wire.decode", journey, || {
                decode_aggregate_op_payload(payload)
            })
            .map_err(Refused::Malformed)?;
            if tamper {
                aggregate.count += 1;
            }
            spanned(&mut tracer, verify_span, journey, || {
                verify_aggregate_op(&digest, key, *t1, *t2, &aggregate, &proof)
            })
            .map_err(Refused::Unproven)
        }
        QuerySpec::Keywords { keywords, .. } => {
            let (mut ids, proof) = spanned(&mut tracer, "serve.wire.decode", journey, || {
                decode_keyword_payload(payload)
            })
            .map_err(Refused::Malformed)?;
            if tamper {
                ids.push(Hash::ZERO);
            }
            let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
            spanned(&mut tracer, verify_span, journey, || {
                verify_keywords(&digest, &words, &ids, &proof)
            })
            .map_err(Refused::Unproven)
        }
    }
}

/// Records `f` as a span when a tracer is given, and just calls it
/// otherwise (the gates verify answers nobody is timing).
fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    journey: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.leaf(name, journey, f),
        None => f(),
    }
}

/// Drops the newest row, or invents one when there is none: either way
/// the claimed window content is no longer what the proof commits to.
fn tamper_rows(rows: &mut Vec<(u64, Option<Vec<u8>>)>, t1: u64) {
    if rows.pop().is_none() {
        rows.push((t1, Some(b"forged".to_vec())));
    }
}

/// One tampered answer per query class must be refused. Runs outside any
/// timed region, against the front's own SP.
pub fn tampered_answers_are_rejected(
    front: &ServeFront,
    client: &SuperlightClient,
    samples: &[QuerySpec],
) -> Result<(), BenchError> {
    for class in CLASSES {
        let spec = samples
            .iter()
            .find(|spec| Class::of(spec) == class)
            .ok_or_else(|| BenchError::Gate(format!("no {class:?} query to tamper with")))?;
        let payload = direct_answer(front.sp(), spec)
            .ok_or_else(|| BenchError::Gate(format!("SP has no index for {class:?}")))?;
        decode_and_verify(None, 0, client, spec, &payload, Claim::AsServed)
            .map_err(|e| BenchError::Gate(format!("honest {class:?} answer refused: {e}")))?;
        gate(
            decode_and_verify(None, 0, client, spec, &payload, Claim::Tampered).is_err(),
            || format!("tampered {class:?} answer was accepted"),
        )?;
    }
    Ok(())
}
