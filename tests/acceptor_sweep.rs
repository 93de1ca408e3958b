//! Every short history of the superlight client against a small spec.
//!
//! [`spec`] is a reference acceptor over *symbolic* letters, written from
//! Algorithm 3, the k-of-n rule and DESIGN.md §6's memo, k-of-n, chain
//! selection and gap rows; it names nothing of the client. [`Cast::new`]
//! builds each letter once as a real, really signed certificate. [`sweep`]
//! enumerates every sequence over them by increasing length (iterative
//! deepening, cloning the client at each prefix) at 1-of-1, 1-of-2 and
//! 2-of-2, and after every message compares the client's outcome, view,
//! resync request and memo with the spec's. The first mismatch panics with
//! its sequence, which is therefore a shortest counterexample.

use std::thread;

use dcert::chain::{BlockHeader, ConsensusProof};
use dcert::core::{CertError, Certificate, NetMessage, SuperlightClient, SyncOutcome, TrustDomain};
use dcert::primitives::hash::{hash_bytes, Address, Hash};
use dcert::primitives::keys::{Keypair, Signature};
use dcert::sgx::{AttestationService, Quote};

use spec::{Digest, Header, Idx, Letter, Outcome, Route, Signer, Spec};

mod spec {
    use dcert::core::CertError;
    use dcert::sgx::SgxError;

    /// A header: height 1, height 2, or a competing header at height 2.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Header {
        H1,
        H2,
        Fork2,
    }

    impl Header {
        pub fn height(self) -> u64 {
            1 + u64::from(self != Header::H1)
        }
    }

    /// The index digest certified at height 1 or at height 2.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Idx {
        D1,
        D2,
    }

    /// What a certificate signs: `H(hdr)` or `H(H(hdr) ‖ H_idx)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Digest {
        Block(Header),
        Index(Header, Idx),
    }

    impl Digest {
        /// The header signed, and the index digest with it.
        pub fn parts(self) -> (Header, Option<Idx>) {
            match self {
                Digest::Block(h) => (h, None),
                Digest::Index(h, i) => (h, Some(i)),
            }
        }
    }

    /// Who made a certificate: its ⟨rep, pk_enc⟩ and its signature.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Signer {
        /// Domain A's CI, A's second CI (another key), domain B's CI.
        A,
        A2,
        B,
        /// A's CI with one signature byte flipped.
        AFlipped,
        /// A's key under a report for another measurement.
        AOther,
    }

    impl Signer {
        /// The domain that honestly signed (its attestation and signature
        /// hold), and domain A's refusal of the certificate, digest aside.
        fn signed(self) -> (Option<usize>, Option<CertError>) {
            match self {
                Signer::A | Signer::A2 => (Some(0), None),
                Signer::B => (Some(1), Some(CertError::Attestation(SgxError::BadReport))),
                Signer::AFlipped => (None, Some(CertError::BadSignature)),
                Signer::AOther => (None, Some(CertError::WrongMeasurement)),
            }
        }
    }

    /// How a letter reaches the client: gossip, or the direct call its
    /// scheme names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Route {
        Gossip,
        ValidateIndex,
        ValidateChainWithIndex,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Outcome {
        Adopted,
        AdoptedIndex,
        Stale,
        Pending,
        Rejected(CertError),
    }

    /// One message; it carries the header (and index digest) it signs.
    pub struct Letter {
        pub name: &'static str,
        pub route: Route,
        pub signs: Digest,
        pub signer: Signer,
    }

    /// The reference acceptor: `threshold` of `domains`, one tracked index.
    #[derive(Debug, Clone, Default)]
    pub struct Spec {
        threshold: usize,
        pub view: Option<Header>,
        pub index: Option<Idx>,
        /// The highest height a gossiped certificate announced.
        seen: Option<u64>,
        /// One vote per digest short of the threshold and domain: the
        /// digest, its height, the domain and its first signer.
        votes: Vec<(Digest, u64, usize, Signer)>,
        /// Per domain, the signers whose attestation a committed offer checked.
        pub memo: Vec<Vec<Signer>>,
    }

    impl Spec {
        pub fn new(domains: usize, threshold: usize) -> Self {
            let memo = vec![Vec::new(); domains];
            Spec {
                threshold,
                memo,
                ..Spec::default()
            }
        }

        pub fn step(&mut self, l: &Letter) -> Outcome {
            let (header, idx) = l.signs.parts();
            let (height, view) = (header.height(), self.view.map(Header::height));
            let gossip = l.route == Route::Gossip;
            if gossip {
                self.seen = self.seen.max(Some(height));
            }
            // Gossip below the view is stale, and so is a block at it; an
            // index certificate at the view's height rides on the view.
            if gossip && (view > Some(height) || (idx.is_none() && view == Some(height))) {
                return Outcome::Stale;
            }
            let hierarchical = l.route == Route::ValidateIndex || (gossip && view == Some(height));
            let (expected, advances, adopted) = match (hierarchical, idx, self.view) {
                (true, Some(i), Some(v)) => (Digest::Index(v, i), false, Outcome::AdoptedIndex),
                (true, ..) => return Outcome::Rejected(CertError::NotInitialized),
                _ => (l.signs, true, Outcome::Adopted),
            };
            // Lines 3–7: the first domain that admits it, else A's refusal.
            let (signed_by, a_refuses) = l.signer.signed();
            let admits = |d: &usize| signed_by == Some(*d) && l.signs == expected;
            let Some(domain) = (0..self.memo.len()).find(admits) else {
                return Outcome::Rejected(a_refuses.unwrap_or(CertError::DigestMismatch));
            };
            // Line 8: chain selection, before the count.
            if let Some(current) = view.filter(|v| advances && height <= *v) {
                let offered = height;
                return Outcome::Rejected(CertError::ChainSelection { current, offered });
            }
            // k of n: distinct domains per digest; nothing commits below k.
            if !self.votes.iter().any(|v| v.0 == expected && v.2 == domain) {
                let at = if advances { height } else { view.unwrap_or(0) };
                self.votes.push((expected, at, domain, l.signer));
            }
            if self.votes.iter().filter(|v| v.0 == expected).count() < self.threshold {
                return Outcome::Pending;
            }
            // Commit: the memo, the view (dropping votes below it), the index.
            for &(_, _, d, signer) in self.votes.iter().filter(|v| v.0 == expected) {
                if !self.memo[d].contains(&signer) {
                    self.memo[d].push(signer);
                }
            }
            self.votes.retain(|v| v.0 != expected);
            if advances {
                self.view = Some(header);
                self.votes.retain(|v| v.1 >= height);
            }
            self.index = idx.or(self.index);
            adopted
        }

        /// The inclusive heights announced above the view.
        pub fn resync(&self) -> Option<(u64, u64)> {
            let have = self.view.map_or(0, Header::height);
            self.seen.filter(|s| *s > have).map(|s| (have + 1, s))
        }
    }
}

/// The one index name every index letter carries.
const INDEX: &str = "history";

fn header(h: Header) -> BlockHeader {
    BlockHeader {
        height: h.height(),
        prev_hash: hash_bytes([h as u8]),
        state_root: Hash::ZERO,
        tx_root: Hash::ZERO,
        timestamp: 0,
        miner: Address::default(),
        consensus: ConsensusProof::Pow {
            difficulty_bits: 0,
            nonce: 0,
        },
    }
}

fn idx_hash(i: Idx) -> Hash {
    hash_bytes([b'D', i as u8])
}

/// The two trust domains' attestation services, their one expected
/// measurement, and the alphabet.
struct Cast {
    ias: [AttestationService; 2],
    measurement: Hash,
    /// Each letter with the real message behind it.
    alphabet: Vec<(Letter, NetMessage)>,
}

impl Cast {
    /// Builds every letter once. Legend: `a`/`b` are A's and B's honest
    /// block certificates; `f2` A's for a competing header; `k2` from a
    /// second CI key under A; `x2` A's with a signature byte flipped; `m2`
    /// A's key under a report for another measurement; `g1` A's augmented
    /// index certificate at height 1, gossiped (`on_message` takes it as
    /// hierarchical once the view is at 1); `I2` A's hierarchical one at
    /// height 2 through `validate_index`, and `G1` `g1` through
    /// `validate_chain_with_index`.
    fn new() -> Self {
        use Digest::{Block, Index};
        use Header::{Fork2, H1, H2};
        use Route::{Gossip, ValidateChainWithIndex as Aug, ValidateIndex as Hier};
        let platform = Keypair::from_seed([0xC0; 32]);
        let ias = [0xA0, 0xB0].map(|seed| {
            let mut ias = AttestationService::with_seed([seed; 32]);
            ias.register_platform(platform.public());
            ias
        });
        let measurement = hash_bytes(b"acceptor-sweep program");
        let [key_a, key_a2, key_b] = [0xA1, 0xA2, 0xB1].map(|s| Keypair::from_seed([s; 32]));
        let rows = [
            ("a1", Gossip, Block(H1), Signer::A),
            ("a2", Gossip, Block(H2), Signer::A),
            ("b1", Gossip, Block(H1), Signer::B),
            ("b2", Gossip, Block(H2), Signer::B),
            ("f2", Gossip, Block(Fork2), Signer::A),
            ("k2", Gossip, Block(H2), Signer::A2),
            ("x2", Gossip, Block(H2), Signer::AFlipped),
            ("m2", Gossip, Block(H2), Signer::AOther),
            ("g1", Gossip, Index(H1, Idx::D1), Signer::A),
            ("I2", Hier, Index(H2, Idx::D2), Signer::A),
            ("G1", Aug, Index(H1, Idx::D1), Signer::A),
        ];
        let alphabet = rows.map(|(name, route, signs, signer)| {
            let (pair, domain, program) = match signer {
                Signer::A | Signer::AFlipped => (&key_a, 0, measurement),
                Signer::A2 => (&key_a2, 0, measurement),
                Signer::B => (&key_b, 1, measurement),
                Signer::AOther => (&key_a, 0, hash_bytes(b"another program")),
            };
            let (h, idx) = signs.parts();
            let (header, idx) = (header(h), idx.map(idx_hash));
            let digest = idx.map_or(header.hash(), |i| {
                Certificate::index_digest(&header.hash(), &i)
            });
            let mut signature = pair.sign(digest.as_bytes()).to_array();
            signature[0] ^= u8::from(signer == Signer::AFlipped);
            let binding = Certificate::key_binding(&pair.public());
            let quote = Quote::sign(&platform, program, binding);
            let cert = Certificate {
                pk_enc: pair.public(),
                report: ias[domain].attest(&quote).expect("registered platform"),
                digest,
                signature: Signature::from_bytes(signature),
            };
            let message = match idx {
                None => NetMessage::BlockCert { header, cert },
                Some(digest) => {
                    let index = INDEX.to_owned();
                    NetMessage::IndexCert {
                        header,
                        index,
                        digest,
                        cert,
                    }
                }
            };
            (
                Letter {
                    name,
                    route,
                    signs,
                    signer,
                },
                message,
            )
        });
        Cast {
            ias,
            measurement,
            alphabet: alphabet.into(),
        }
    }

    /// A fresh client at `threshold` of the first `domains` domains, and its
    /// spec: `SuperlightClient::new` for one domain, `with_domains` else.
    fn start(&self, domains: usize, threshold: usize) -> (SuperlightClient, Spec) {
        let [a, b] = self.ias.each_ref().map(|ias| ias.public_key());
        let client = match domains {
            1 => SuperlightClient::new(a, self.measurement),
            _ => {
                let both = [a, b].map(|key| TrustDomain::new(key, self.measurement));
                SuperlightClient::with_domains(both.into(), threshold).expect("k ≤ n")
            }
        };
        (client, Spec::new(domains, threshold))
    }
}

/// Everything compared after a message.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    height: Option<u64>,
    header: Option<Hash>,
    index: Option<Hash>,
    resync: Option<NetMessage>,
    memo: Vec<usize>,
}

fn deliver(client: &mut SuperlightClient, letter: &Letter, message: &NetMessage) -> Outcome {
    let result = match (letter.route, message) {
        (Route::Gossip, _) => {
            return match client.on_message(message) {
                SyncOutcome::Adopted => Outcome::Adopted,
                SyncOutcome::AdoptedIndex => Outcome::AdoptedIndex,
                SyncOutcome::Stale => Outcome::Stale,
                SyncOutcome::Pending => Outcome::Pending,
                SyncOutcome::Rejected(e) => Outcome::Rejected(e),
                SyncOutcome::Ignored => panic!("{} was ignored", letter.name),
            }
        }
        (Route::ValidateIndex, NetMessage::IndexCert { digest, cert, .. }) => client
            .validate_index(INDEX, *digest, cert)
            .map(|()| Outcome::AdoptedIndex),
        (_, NetMessage::IndexCert { digest, cert, .. }) => client
            .validate_chain_with_index(&header(letter.signs.parts().0), INDEX, *digest, cert)
            .map(|()| Outcome::Adopted),
        _ => panic!("{} is called directly but holds no index", letter.name),
    };
    match result {
        Ok(adopted) => adopted,
        Err(CertError::BelowThreshold { .. }) => Outcome::Pending,
        Err(e) => Outcome::Rejected(e),
    }
}

/// How many ⟨rep, pk_enc⟩ each domain remembers. The memo is a cache, so
/// no outcome shows it; this reads it from the client's `Debug` form, whose
/// first field, `domains`, lists them.
fn memo_sizes(client: &SuperlightClient) -> Vec<usize> {
    let debug = format!("{client:?}");
    let domains = debug.split(", threshold:").next().unwrap_or_default();
    let each = domains.split("TrustDomain {").skip(1);
    each.map(|d| d.matches("AttestationReport").count())
        .collect()
}

fn observe(client: &SuperlightClient, outcome: Outcome) -> Observed {
    Observed {
        outcome,
        height: client.height(),
        header: client.latest_header().map(BlockHeader::hash),
        index: client.index_digest(INDEX),
        resync: client.resync_request(),
        memo: memo_sizes(client),
    }
}

fn expect(spec: &Spec, outcome: Outcome) -> Observed {
    Observed {
        outcome,
        height: spec.view.map(Header::height),
        header: spec.view.map(|h| header(h).hash()),
        index: spec.index.map(idx_hash),
        resync: spec
            .resync()
            .map(|(from, to)| NetMessage::CertRequest { from, to }),
        memo: spec.memo.iter().map(Vec::len).collect(),
    }
}

/// Checks every sequence of length `1..=max_len` at 1-of-1, 1-of-2 and
/// 2-of-2, shortest first, one thread per configuration.
fn sweep(max_len: usize) {
    let cast = Cast::new();
    thread::scope(|scope| {
        for (domains, threshold) in [(1, 1), (2, 1), (2, 2)] {
            let cast = &cast;
            scope.spawn(move || {
                let (client, spec) = cast.start(domains, threshold);
                let config = format!("{threshold}-of-{domains}");
                for len in 1..=max_len {
                    walk(cast, &config, (&client, &spec), &mut Vec::new(), len);
                }
            });
        }
    });
}

/// Extends `path` by every letter, `left` more times, comparing after the
/// last one: the shorter prefixes passed at an earlier length.
fn walk(
    cast: &Cast,
    config: &str,
    (client, spec): (&SuperlightClient, &Spec),
    path: &mut Vec<&'static str>,
    left: usize,
) {
    for (letter, message) in &cast.alphabet {
        let (mut client, mut spec) = (client.clone(), spec.clone());
        let got = deliver(&mut client, letter, message);
        let want = spec.step(letter);
        path.push(letter.name);
        if left > 1 {
            walk(cast, config, (&client, &spec), path, left - 1);
        } else {
            let (got, want) = (observe(&client, got), expect(&spec, want));
            assert_eq!(got, want, "{config} after [{}]", path.join(" "));
        }
        path.pop();
    }
}

#[test]
fn every_history_to_length_four() {
    sweep(4);
}

#[test]
#[ignore = "minutes; CI runs it with --ignored"]
fn every_history_to_length_six() {
    sweep(6);
}
