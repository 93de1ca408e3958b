//! Canonical wire types for the serving front-end.
//!
//! Clients talk to a [`ServeFront`](crate::ServeFront) with exactly three
//! message shapes: a [`ServeRequest`] naming a query, a [`ServeResponse`]
//! carrying the canonical `(results, proof)` bytes at a certified height,
//! or a [`ServeRefusal`] with a typed reason (sheds are never silent).
//! [`ServeWire`] is the envelope carried opaquely inside
//! `NetMessage::Serve` so the gossip fabric needs no knowledge of query
//! semantics.
//!
//! Everything here decodes attacker-supplied bytes, so it must refuse, not
//! panic: the crate root denies unwrap/expect/indexing/lossy casts, and
//! `tests/decode_no_panic.rs` sweeps every decoder.

use std::borrow::Cow;
use std::sync::Arc;

use dcert_merkle::Aggregate;
use dcert_primitives::codec::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_query::history::Version;
use dcert_query::{AggQueryProof, HistoryProof, KeywordProof};
use dcert_vm::StateKey;

/// One verifiable query, exactly as the `ServiceProvider` serve methods
/// take it. The spec itself is the coalescing and cache key: two requests
/// coalesce iff their specs are equal, which — the encoding being
/// canonical — is iff they encode to the same bytes.
///
/// Five kinds, three answers: [`QuerySpec::HistoryOp`] is answered with
/// [`QuerySpec::History`]'s payload and [`QuerySpec::AggregateOp`] with
/// [`QuerySpec::Aggregate`]'s, byte for byte. The `Op` kinds date from
/// when a window proof had a second wire form; their tags still decode —
/// and still key the cache apart — until `benchmark/driver` stops
/// sending them (ROADMAP item 4(c)).
///
/// An index name is a `Cow`: a spec built from a static name
/// (`"history".into()`) allocates nothing to build, clone or drop, and a
/// spec decoded from the wire owns its name and equals, hashes and keys
/// the cache like the static one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QuerySpec {
    /// Time-window history query against a named history index.
    History {
        /// Registered index name.
        index: Cow<'static, str>,
        /// Account/state key whose versions are requested.
        key: StateKey,
        /// Window start height (inclusive).
        t1: u64,
        /// Window end height (inclusive).
        t2: u64,
    },
    /// Conjunctive keyword query against a named inverted index.
    Keywords {
        /// Registered index name.
        index: Cow<'static, str>,
        /// Keywords, in the client's order (order is part of the proof's
        /// argument vector, so it is deliberately *not* canonicalized).
        keywords: Vec<String>,
    },
    /// Verifiable window aggregation against a named aggregate index.
    Aggregate {
        /// Registered index name.
        index: Cow<'static, str>,
        /// Account/state key whose window aggregate is requested.
        key: StateKey,
        /// Window start height (inclusive).
        t1: u64,
        /// Window end height (inclusive).
        t2: u64,
    },
    /// [`QuerySpec::History`] under its compatibility tag.
    HistoryOp {
        /// Registered index name.
        index: Cow<'static, str>,
        /// Account/state key whose versions are requested.
        key: StateKey,
        /// Window start height (inclusive).
        t1: u64,
        /// Window end height (inclusive).
        t2: u64,
    },
    /// [`QuerySpec::Aggregate`] under its compatibility tag.
    AggregateOp {
        /// Registered index name.
        index: Cow<'static, str>,
        /// Account/state key whose window aggregate is requested.
        key: StateKey,
        /// Window start height (inclusive).
        t1: u64,
        /// Window end height (inclusive).
        t2: u64,
    },
}

impl QuerySpec {
    /// The registered index name this spec targets.
    pub fn index(&self) -> &str {
        match self {
            QuerySpec::History { index, .. }
            | QuerySpec::Keywords { index, .. }
            | QuerySpec::Aggregate { index, .. }
            | QuerySpec::HistoryOp { index, .. }
            | QuerySpec::AggregateOp { index, .. } => index,
        }
    }
}

dcert_primitives::wire! {
    enum QuerySpec {
        0 => History { index, key, t1, t2 },
        1 => Keywords { index, keywords: seq },
        2 => Aggregate { index, key, t1, t2 },
        3 => HistoryOp { index, key, t1, t2 },
        4 => AggregateOp { index, key, t1, t2 },
    }
    struct ServeRequest { client, id, query }
    struct ServeResponse { id, certified_height, payload }
    enum RefusalReason {
        0 => QueueFull { depth },
        1 => RateLimited { retry_after_ticks },
        2 => Backlogged { waiters },
        3 => UnknownIndex,
    }
    struct ServeRefusal { id, reason }
    enum ServeWire {
        0 => Request(request),
        1 => Response(response),
        2 => Refusal(refusal),
    }
}

/// One client request: who is asking, their request id (for matching the
/// reply), and what they ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Client identity the admission layer rate-limits on.
    pub client: u64,
    /// Client-chosen request id, echoed verbatim in the reply.
    pub id: u64,
    /// The query itself.
    pub query: QuerySpec,
}

/// A successful reply: the canonical `(results, proof)` encoding served
/// at `certified_height`. The payload is byte-identical to what a direct
/// uncached `ServiceProvider::serve_*` call at the same height would
/// produce through the [`encode_history_payload`]-family helpers — the
/// equivalence suite pins this. The front writes it with the same
/// `put_*_payload` writers those helpers use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// The request id this answers.
    pub id: u64,
    /// The index height the answer (and its proofs) reflect.
    pub certified_height: u64,
    /// Canonical `(results, proof)` bytes; see the payload helpers. One
    /// buffer per backend answer: the cache entry, every coalesced waiter
    /// and every later hit share it. Encoded as a length-prefixed byte
    /// string, exactly like a `Vec<u8>`.
    pub payload: Arc<[u8]>,
}

/// Why a request was refused. Every shed path produces one of these —
/// the front-end never drops a request silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The pending-query queue is at capacity; retry after a drain. The
    /// request has spent its admission token: the rate limit is checked
    /// first ([`ServeFront::submit`](crate::ServeFront::submit)).
    QueueFull {
        /// Distinct queries pending when the request arrived.
        depth: u64,
    },
    /// The client exhausted its token bucket.
    RateLimited {
        /// Virtual ticks until the bucket refills by one token.
        retry_after_ticks: u64,
    },
    /// The total number of parked waiters is at capacity. The request has
    /// spent its admission token: the rate limit is checked first
    /// ([`ServeFront::submit`](crate::ServeFront::submit)).
    Backlogged {
        /// Waiters parked when the request arrived.
        waiters: u64,
    },
    /// No index is registered under the requested name.
    UnknownIndex,
}

impl std::fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefusalReason::QueueFull { depth } => {
                write!(f, "queue full ({depth} queries pending)")
            }
            RefusalReason::RateLimited { retry_after_ticks } => {
                write!(f, "rate limited (retry in {retry_after_ticks} ticks)")
            }
            RefusalReason::Backlogged { waiters } => {
                write!(f, "backlogged ({waiters} waiters parked)")
            }
            RefusalReason::UnknownIndex => write!(f, "unknown index"),
        }
    }
}

/// A typed refusal: the request id plus the reason it was shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRefusal {
    /// The request id this refuses.
    pub id: u64,
    /// Why.
    pub reason: RefusalReason,
}

impl std::fmt::Display for ServeRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request {} refused: {}", self.id, self.reason)
    }
}

impl std::error::Error for ServeRefusal {}

/// The envelope carried inside `NetMessage::Serve`: either direction of
/// the serve protocol in one decodable shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeWire {
    /// Client → front-end.
    Request(ServeRequest),
    /// Front-end → client: success.
    Response(ServeResponse),
    /// Front-end → client: typed shed.
    Refusal(ServeRefusal),
}

// ---------------------------------------------------------------------------
// Canonical payload encodings.
//
// The response payload is the `(results, proof)` pair exactly as the
// backend produced it, under the one canonical encoding both the serving
// path and the direct path share — byte equality of payloads is the
// equivalence suite's oracle.
// ---------------------------------------------------------------------------

/// A payload written by `put` into a `Vec` of exactly its `len` bytes.
fn encode_exact(len: usize, put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    put(&mut out);
    out
}

/// The inverse of the `put_*_payload` writers, refusing trailing bytes.
fn decode_payload<A, P: Decode>(
    take_answer: fn(&mut Reader<'_>) -> Result<A, CodecError>,
    bytes: &[u8],
) -> Result<(A, P), CodecError> {
    let mut r = Reader::new(bytes);
    let answer = take_answer(&mut r)?;
    let proof = P::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok((answer, proof))
}

/// Appends a history answer's canonical response payload to `out`:
/// `enc(results) ++ enc(proof)`. The one writer of this payload kind.
pub(crate) fn put_history_payload(
    results: &[(u64, Version)],
    proof: &HistoryProof,
    out: &mut Vec<u8>,
) {
    encode_seq(results, out);
    proof.encode(out);
}

/// Encodes a history answer as the canonical response payload.
pub fn encode_history_payload(results: &[(u64, Version)], proof: &HistoryProof) -> Vec<u8> {
    let len = seq_encoded_len(results) + proof.encoded_len();
    encode_exact(len, |out| put_history_payload(results, proof, out))
}

/// Decodes a history response payload.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed or trailing bytes.
pub fn decode_history_payload(
    bytes: &[u8],
) -> Result<(Vec<(u64, Version)>, HistoryProof), CodecError> {
    decode_payload(decode_seq, bytes)
}

/// Appends a keyword answer's canonical response payload to `out`:
/// `enc(results) ++ enc(proof)`. The one writer of this payload kind.
pub(crate) fn put_keyword_payload(results: &[Hash], proof: &KeywordProof, out: &mut Vec<u8>) {
    encode_seq(results, out);
    proof.encode(out);
}

/// Encodes a keyword answer as the canonical response payload.
pub fn encode_keyword_payload(results: &[Hash], proof: &KeywordProof) -> Vec<u8> {
    let len = seq_encoded_len(results) + proof.encoded_len();
    encode_exact(len, |out| put_keyword_payload(results, proof, out))
}

/// Decodes a keyword response payload.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed or trailing bytes.
pub fn decode_keyword_payload(bytes: &[u8]) -> Result<(Vec<Hash>, KeywordProof), CodecError> {
    decode_payload(decode_seq, bytes)
}

/// Appends an aggregate answer's canonical response payload to `out`:
/// `enc(aggregate) ++ enc(proof)`. The one writer of this payload kind.
pub(crate) fn put_aggregate_payload(
    aggregate: &Aggregate,
    proof: &AggQueryProof,
    out: &mut Vec<u8>,
) {
    aggregate.encode(out);
    proof.encode(out);
}

/// Encodes an aggregate answer as the canonical response payload.
pub fn encode_aggregate_payload(aggregate: &Aggregate, proof: &AggQueryProof) -> Vec<u8> {
    let len = aggregate.encoded_len() + proof.encoded_len();
    encode_exact(len, |out| put_aggregate_payload(aggregate, proof, out))
}

/// Decodes an aggregate response payload.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed or trailing bytes.
pub fn decode_aggregate_payload(bytes: &[u8]) -> Result<(Aggregate, AggQueryProof), CodecError> {
    decode_payload(Aggregate::decode, bytes)
}

/// Compatibility names `benchmark/driver` imports; they leave at ROADMAP
/// item 4(c).
pub use {
    decode_aggregate_payload as decode_aggregate_op_payload,
    decode_history_payload as decode_history_op_payload,
    encode_aggregate_payload as encode_aggregate_op_payload,
    encode_history_payload as encode_history_op_payload,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::History {
                index: "history".into(),
                key: StateKey::new("kvstore", b"acct-1"),
                t1: 3,
                t2: 17,
            },
            QuerySpec::Keywords {
                index: "inverted".into(),
                keywords: vec!["stock".into(), "bank".into()],
            },
            QuerySpec::Aggregate {
                index: "agg".into(),
                key: StateKey::new("kvstore", b"acct-2"),
                t1: 0,
                t2: u64::MAX,
            },
            QuerySpec::HistoryOp {
                index: "history".into(),
                key: StateKey::new("kvstore", b"acct-1"),
                t1: 3,
                t2: 17,
            },
            QuerySpec::AggregateOp {
                index: "agg".into(),
                key: StateKey::new("kvstore", b"acct-2"),
                t1: 0,
                t2: u64::MAX,
            },
        ]
    }

    #[test]
    fn wire_round_trips() {
        for (i, spec) in specs().into_iter().enumerate() {
            let request = ServeRequest {
                client: 42,
                id: i as u64,
                query: spec,
            };
            for wire in [
                ServeWire::Request(request.clone()),
                ServeWire::Response(ServeResponse {
                    id: request.id,
                    certified_height: 9,
                    payload: vec![1, 2, 3].into(),
                }),
                ServeWire::Refusal(ServeRefusal {
                    id: request.id,
                    reason: RefusalReason::QueueFull { depth: 8 },
                }),
            ] {
                let bytes = wire.to_encoded_bytes();
                assert_eq!(bytes.len(), wire.encoded_len());
                assert_eq!(ServeWire::decode_all(&bytes).unwrap(), wire);
            }
        }
    }

    #[test]
    fn refusal_reasons_round_trip() {
        for reason in [
            RefusalReason::QueueFull { depth: 3 },
            RefusalReason::RateLimited {
                retry_after_ticks: 7,
            },
            RefusalReason::Backlogged { waiters: 1000 },
            RefusalReason::UnknownIndex,
        ] {
            let bytes = reason.to_encoded_bytes();
            assert_eq!(bytes.len(), reason.encoded_len());
            assert_eq!(RefusalReason::decode_all(&bytes).unwrap(), reason);
        }
    }

    /// The five kinds over one `(index, key, t1, t2)` are five cache keys:
    /// the alias kinds answer with the same bytes but never share an entry.
    #[test]
    fn kinds_over_one_window_are_distinct_specs() {
        let (index, key, t1, t2) = (Cow::Borrowed("history"), StateKey::new("kv", b"k"), 3, 17);
        let kinds = [
            QuerySpec::History {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::Keywords {
                index: index.clone(),
                keywords: Vec::new(),
            },
            QuerySpec::Aggregate {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::HistoryOp {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::AggregateOp { index, key, t1, t2 },
        ];
        let distinct: std::collections::HashSet<&QuerySpec> = kinds.iter().collect();
        assert_eq!(distinct.len(), kinds.len());
    }

    /// Every payload pair round-trips, and every decoder refuses a
    /// trailing byte and a truncated payload — once per answer shape
    /// (result list, aggregate, id list).
    #[test]
    fn payloads_round_trip_and_refuse_trailing_bytes() {
        use dcert_query::{AggregateIndex, HistoryIndex, InvertedIndex};

        fn check<T: PartialEq + std::fmt::Debug>(
            bytes: Vec<u8>,
            decode: fn(&[u8]) -> Result<T, CodecError>,
            expected: T,
        ) {
            assert_eq!(bytes.capacity(), bytes.len(), "sized exactly");
            assert_eq!(decode(&bytes).as_ref(), Ok(&expected));
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert_eq!(decode(&trailing), Err(CodecError::TrailingBytes(1)));
            assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        }

        let key = StateKey::new("kvstore", b"acct-1");
        let mut history = HistoryIndex::new("history");
        let mut aggregate = AggregateIndex::new("agg");
        for height in 1..=5u64 {
            let writes = [(key, Some(height.to_be_bytes().to_vec()))];
            history.apply_block(height, &writes);
            aggregate.apply_block(height, &writes);
        }

        let (rows, proof) = history.query(&key, 2, 4);
        assert_eq!(rows.len(), 3);
        check(
            encode_history_payload(&rows, &proof),
            decode_history_payload,
            (rows, proof),
        );
        let (total, proof) = aggregate.query(&key, 2, 4);
        check(
            encode_aggregate_payload(&total, &proof),
            decode_aggregate_payload,
            (total, proof),
        );
        let (matches, proof) = InvertedIndex::new("inverted").query(&["stock"]);
        check(
            encode_keyword_payload(&matches, &proof),
            decode_keyword_payload,
            (matches, proof),
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(QuerySpec::decode_all(&[9]).is_err());
        assert!(ServeWire::decode_all(&[7]).is_err());
        assert!(RefusalReason::decode_all(&[200]).is_err());
    }
}
