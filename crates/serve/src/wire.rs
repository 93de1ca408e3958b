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
//! Everything here decodes attacker-supplied bytes, so this module is held
//! to `dcert-lint` R2 panic-freedom (no unwrap/expect/indexing/truncating
//! casts) and is swept by `tests/decode_no_panic.rs`.

use dcert_merkle::Aggregate;
use dcert_primitives::codec::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_query::history::Version;
use dcert_query::{AggQueryProof, HistoryProof, KeywordProof};
use dcert_vm::StateKey;

/// One verifiable query, exactly as the `ServiceProvider` serve methods
/// take it. The canonical encoding of a spec doubles as the coalescing
/// and cache key: two requests coalesce iff their specs encode to the
/// same bytes.
///
/// Five kinds, three answers: [`QuerySpec::HistoryOp`] is answered with
/// [`QuerySpec::History`]'s payload and [`QuerySpec::AggregateOp`] with
/// [`QuerySpec::Aggregate`]'s, byte for byte. The `Op` kinds date from
/// when a window proof had a second wire form; their tags still decode —
/// and still key the cache apart — until `benchmark/driver` stops
/// sending them (ROADMAP item 4(c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// Time-window history query against a named history index.
    History {
        /// Registered index name.
        index: String,
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
        index: String,
        /// Keywords, in the client's order (order is part of the proof's
        /// argument vector, so it is deliberately *not* canonicalized).
        keywords: Vec<String>,
    },
    /// Verifiable window aggregation against a named aggregate index.
    Aggregate {
        /// Registered index name.
        index: String,
        /// Account/state key whose window aggregate is requested.
        key: StateKey,
        /// Window start height (inclusive).
        t1: u64,
        /// Window end height (inclusive).
        t2: u64,
    },
    /// [`QuerySpec::History`] under its compatibility tag — the one kind
    /// the front-end may answer from a cached answer to a covering
    /// window.
    HistoryOp {
        /// Registered index name.
        index: String,
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
        index: String,
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

    /// The canonical spec key: the coalescing and cache-lookup identity.
    pub fn cache_key(&self) -> Vec<u8> {
        self.to_encoded_bytes()
    }
}

/// [`QuerySpec`] wire tags. The four windowed kinds share one field
/// layout: `index, key, t1, t2`.
const TAG_HISTORY: u8 = 0;
const TAG_KEYWORDS: u8 = 1;
const TAG_AGGREGATE: u8 = 2;
const TAG_HISTORY_OP: u8 = 3;
const TAG_AGGREGATE_OP: u8 = 4;

impl Encode for QuerySpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag = match self {
            QuerySpec::History { .. } => TAG_HISTORY,
            QuerySpec::Keywords { .. } => TAG_KEYWORDS,
            QuerySpec::Aggregate { .. } => TAG_AGGREGATE,
            QuerySpec::HistoryOp { .. } => TAG_HISTORY_OP,
            QuerySpec::AggregateOp { .. } => TAG_AGGREGATE_OP,
        };
        out.push(tag);
        match self {
            QuerySpec::History { index, key, t1, t2 }
            | QuerySpec::Aggregate { index, key, t1, t2 }
            | QuerySpec::HistoryOp { index, key, t1, t2 }
            | QuerySpec::AggregateOp { index, key, t1, t2 } => {
                index.encode(out);
                key.encode(out);
                t1.encode(out);
                t2.encode(out);
            }
            QuerySpec::Keywords { index, keywords } => {
                index.encode(out);
                encode_seq(keywords, out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            QuerySpec::History { index, key, t1, t2 }
            | QuerySpec::Aggregate { index, key, t1, t2 }
            | QuerySpec::HistoryOp { index, key, t1, t2 }
            | QuerySpec::AggregateOp { index, key, t1, t2 } => {
                index.encoded_len() + key.encoded_len() + t1.encoded_len() + t2.encoded_len()
            }
            QuerySpec::Keywords { index, keywords } => {
                index.encoded_len() + seq_encoded_len(keywords)
            }
        }
    }
}

impl Decode for QuerySpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.take_byte()?;
        if tag > TAG_AGGREGATE_OP {
            return Err(CodecError::InvalidTag(tag));
        }
        let index = String::decode(r)?;
        if tag == TAG_KEYWORDS {
            let keywords = decode_seq(r)?;
            return Ok(QuerySpec::Keywords { index, keywords });
        }
        let (key, t1, t2) = (StateKey::decode(r)?, u64::decode(r)?, u64::decode(r)?);
        Ok(match tag {
            TAG_HISTORY => QuerySpec::History { index, key, t1, t2 },
            TAG_AGGREGATE => QuerySpec::Aggregate { index, key, t1, t2 },
            TAG_HISTORY_OP => QuerySpec::HistoryOp { index, key, t1, t2 },
            _ => QuerySpec::AggregateOp { index, key, t1, t2 },
        })
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

impl Encode for ServeRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.id.encode(out);
        self.query.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.client.encoded_len() + self.id.encoded_len() + self.query.encoded_len()
    }
}

impl Decode for ServeRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ServeRequest {
            client: u64::decode(r)?,
            id: u64::decode(r)?,
            query: QuerySpec::decode(r)?,
        })
    }
}

/// A successful reply: the canonical `(results, proof)` encoding served
/// at `certified_height`. The payload is byte-identical to what a direct
/// uncached `ServiceProvider::serve_*` call at the same height would
/// produce through the [`encode_history_payload`]-family helpers — the
/// equivalence suite pins this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// The request id this answers.
    pub id: u64,
    /// The index height the answer (and its proofs) reflect.
    pub certified_height: u64,
    /// Canonical `(results, proof)` bytes; see the payload helpers.
    pub payload: Vec<u8>,
}

impl Encode for ServeResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.certified_height.encode(out);
        self.payload.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + self.certified_height.encoded_len() + self.payload.encoded_len()
    }
}

impl Decode for ServeResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ServeResponse {
            id: u64::decode(r)?,
            certified_height: u64::decode(r)?,
            payload: Vec::<u8>::decode(r)?,
        })
    }
}

/// Why a request was refused. Every shed path produces one of these —
/// the front-end never drops a request silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The pending-query queue is at capacity; retry after a drain.
    QueueFull {
        /// Distinct queries pending when the request arrived.
        depth: u64,
    },
    /// The client exhausted its token bucket.
    RateLimited {
        /// Virtual ticks until the bucket refills by one token.
        retry_after_ticks: u64,
    },
    /// The total number of parked waiters is at capacity.
    Backlogged {
        /// Waiters parked when the request arrived.
        waiters: u64,
    },
    /// No index is registered under the requested name.
    UnknownIndex,
}

impl Encode for RefusalReason {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, count) = match *self {
            RefusalReason::QueueFull { depth } => (0, Some(depth)),
            RefusalReason::RateLimited { retry_after_ticks } => (1, Some(retry_after_ticks)),
            RefusalReason::Backlogged { waiters } => (2, Some(waiters)),
            RefusalReason::UnknownIndex => (3, None),
        };
        out.push(tag);
        if let Some(count) = count {
            count.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            RefusalReason::UnknownIndex => 1,
            _ => 9,
        }
    }
}

impl Decode for RefusalReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => u64::decode(r).map(|depth| RefusalReason::QueueFull { depth }),
            1 => u64::decode(r)
                .map(|retry_after_ticks| RefusalReason::RateLimited { retry_after_ticks }),
            2 => u64::decode(r).map(|waiters| RefusalReason::Backlogged { waiters }),
            3 => Ok(RefusalReason::UnknownIndex),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
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

impl Encode for ServeRefusal {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.reason.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + self.reason.encoded_len()
    }
}

impl Decode for ServeRefusal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ServeRefusal {
            id: u64::decode(r)?,
            reason: RefusalReason::decode(r)?,
        })
    }
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

impl Encode for ServeWire {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeWire::Request(m) => {
                out.push(0);
                m.encode(out);
            }
            ServeWire::Response(m) => {
                out.push(1);
                m.encode(out);
            }
            ServeWire::Refusal(m) => {
                out.push(2);
                m.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ServeWire::Request(m) => m.encoded_len(),
            ServeWire::Response(m) => m.encoded_len(),
            ServeWire::Refusal(m) => m.encoded_len(),
        }
    }
}

impl Decode for ServeWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(ServeWire::Request(ServeRequest::decode(r)?)),
            1 => Ok(ServeWire::Response(ServeResponse::decode(r)?)),
            2 => Ok(ServeWire::Refusal(ServeRefusal::decode(r)?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical payload encodings.
//
// The response payload is the `(results, proof)` pair exactly as the
// backend produced it, under the one canonical encoding both the serving
// path and the direct path share — byte equality of payloads is the
// equivalence suite's oracle.
// ---------------------------------------------------------------------------

/// `enc(answer) ++ enc(proof)`: every payload is this, with the answer
/// written by `put_answer` — [`encode_seq`] for a result list,
/// [`Encode::encode`] for one aggregate.
fn encode_payload<A: ?Sized, P: Encode>(
    put_answer: fn(&A, &mut Vec<u8>),
    answer: &A,
    proof: &P,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_answer(answer, &mut out);
    proof.encode(&mut out);
    out
}

/// The inverse of [`encode_payload`], refusing trailing bytes.
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

/// Encodes a history answer as the canonical response payload.
pub fn encode_history_payload(results: &[(u64, Version)], proof: &HistoryProof) -> Vec<u8> {
    encode_payload(encode_seq, results, proof)
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

/// Encodes a keyword answer as the canonical response payload.
pub fn encode_keyword_payload(results: &[Hash], proof: &KeywordProof) -> Vec<u8> {
    encode_payload(encode_seq, results, proof)
}

/// Decodes a keyword response payload.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed or trailing bytes.
pub fn decode_keyword_payload(bytes: &[u8]) -> Result<(Vec<Hash>, KeywordProof), CodecError> {
    decode_payload(decode_seq, bytes)
}

/// Encodes an aggregate answer as the canonical response payload.
pub fn encode_aggregate_payload(aggregate: &Aggregate, proof: &AggQueryProof) -> Vec<u8> {
    encode_payload(Aggregate::encode, aggregate, proof)
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
                    payload: vec![1, 2, 3],
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

    #[test]
    fn cache_key_is_injective_across_kinds() {
        let keys: Vec<Vec<u8>> = specs().iter().map(QuerySpec::cache_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
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
