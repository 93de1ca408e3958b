//! An in-process gossip network for the certification workflow.
//!
//! Fig. 2 of the paper describes the runtime loop: (1) the CI synchronizes
//! blocks, (2) certifies each with the enclave, (3) **broadcasts the
//! certificate to the blockchain network**, and (4) superlight clients
//! validate from the published certificates. This module provides the
//! broadcast fabric — a topic-less gossip bus over crossbeam channels —
//! so miners, CIs, SPs, and clients can run as real concurrent actors
//! (see the `live_network` example and the `network_workflow` integration
//! test).
//!
//! The bus makes no delivery-order promises beyond per-publisher FIFO,
//! mirroring gossip semantics; consumers handle reordering (the
//! superlight client's chain-selection rule already does).
//!
//! Every delivery fabric implements the [`Transport`] trait, so the
//! certification pipeline's publisher stage can run over the lossless
//! [`Gossip`] bus in production paths and over the fault-injecting
//! [`SimNet`](crate::netsim::SimNet) in chaos tests without code changes.
//! [`CertArchive`] wraps any transport with a retained certificate store
//! so a CI can answer [`NetMessage::CertRequest`] resyncs.

use std::collections::BTreeMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use dcert_chain::{Block, BlockHeader};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::PublicKey;
use dcert_store::{Record, Store, StoreError, StreamId};

use crate::cert::Certificate;
use crate::error::CertError;
use crate::persist::{RecoverError, ARCHIVE_PRUNED_KEY};

/// A message on the gossip network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// A freshly mined block (miner → everyone).
    Block(Block),
    /// A block certificate (CI → everyone); carries the header so
    /// superlight clients need nothing else.
    BlockCert {
        /// The certified header.
        header: BlockHeader,
        /// Its certificate.
        cert: Certificate,
    },
    /// An index certificate (CI → everyone).
    IndexCert {
        /// The certified header.
        header: BlockHeader,
        /// The registered index name.
        index: String,
        /// The certified index digest.
        digest: Hash,
        /// Its certificate.
        cert: Certificate,
    },
    /// A client that detected a certificate gap asks any CI (or archive)
    /// to republish the certificates for heights in `from..=to`.
    CertRequest {
        /// First missed height.
        from: u64,
        /// Last missed height (inclusive).
        to: u64,
    },
    /// Orderly shutdown marker (simulation control, not a protocol item).
    Shutdown,
    /// An opaque serving-protocol frame (client request, response, or
    /// typed refusal). The gossip fabric carries it without inspecting
    /// it; `dcert-serve::wire::ServeWire` owns the payload codec.
    Serve {
        /// Canonical `ServeWire` bytes.
        payload: Vec<u8>,
    },
}

impl NetMessage {
    /// The chain height this message is about, if any (certificates and
    /// blocks carry one; control messages do not).
    pub fn height(&self) -> Option<u64> {
        match self {
            NetMessage::Block(block) => Some(block.header.height),
            NetMessage::BlockCert { header, .. } | NetMessage::IndexCert { header, .. } => {
                Some(header.height)
            }
            NetMessage::CertRequest { .. } | NetMessage::Shutdown | NetMessage::Serve { .. } => {
                None
            }
        }
    }
}

/// A delivery fabric for [`NetMessage`]s: the seam between the
/// certification pipeline's publisher stage and whatever network carries
/// its certificates.
///
/// Implementations: [`Gossip`] (lossless, ordered, in-process) and
/// [`SimNet`](crate::netsim::SimNet) (seeded fault injection). The
/// delivery count returned by [`Transport::publish`] is the publisher's
/// ack signal — retry logic treats `0` (or fewer than its configured
/// minimum) as a failed broadcast.
pub trait Transport: Send + Sync {
    /// Joins the network, returning this node's inbound message stream.
    fn join(&self) -> Receiver<NetMessage>;

    /// Broadcasts a message; returns the number of subscribers it was
    /// delivered (or scheduled for delivery) to.
    fn publish(&self, message: NetMessage) -> usize;
}

/// A broadcast gossip bus: every published message reaches every
/// subscriber (including ones that joined later only for future messages).
#[derive(Default)]
pub struct Gossip {
    subscribers: Mutex<Vec<Sender<NetMessage>>>,
}

impl std::fmt::Debug for Gossip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gossip")
            .field("subscribers", &self.subscribers.lock().len())
            .finish()
    }
}

impl Gossip {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the network, returning this node's inbound message stream.
    pub fn join(&self) -> Receiver<NetMessage> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    /// Broadcasts a message to every current subscriber, pruning
    /// disconnected subscribers (dropped receivers) as it goes, and
    /// returns how many live subscribers received it — the ack signal
    /// publisher retry logic keys off.
    pub fn publish(&self, message: NetMessage) -> usize {
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| tx.send(message.clone()).is_ok());
        subs.len()
    }
}

impl Transport for Gossip {
    fn join(&self) -> Receiver<NetMessage> {
        Gossip::join(self)
    }

    fn publish(&self, message: NetMessage) -> usize {
        Gossip::publish(self, message)
    }
}

/// A retained certificate store wrapped around a [`Transport`].
///
/// The pipeline's publisher broadcasts through the archive, which records
/// every certificate by height before forwarding. A CI-side actor can then
/// answer [`NetMessage::CertRequest`]s by calling
/// [`CertArchive::republish`] — the resync path that lets clients recover
/// from dropped or partitioned deliveries instead of silently staying
/// behind.
pub struct CertArchive<T: Transport + ?Sized> {
    inner: std::sync::Arc<T>,
    /// Certificates by height, in publish order within a height (a
    /// hierarchical job publishes a block certificate then its index
    /// certificates for the same height).
    retained: Mutex<BTreeMap<u64, Vec<NetMessage>>>,
    /// Durable backend, when attached: every newly retained certificate
    /// is appended and synced before `publish` returns, so a restarted CI
    /// can keep answering resyncs for pre-crash history.
    store: Option<Mutex<Box<dyn Store>>>,
    /// First storage failure, if any. Publishing keeps forwarding on the
    /// live network after a disk fault, but the archive stops claiming
    /// durability — callers check [`CertArchive::store_error`].
    store_error: Mutex<Option<StoreError>>,
}

impl<T: Transport + ?Sized> std::fmt::Debug for CertArchive<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertArchive")
            .field("retained", &self.retained_len())
            .field("tip_height", &self.tip_height())
            .field("durable", &self.store.is_some())
            .field("store_error", &self.store_error.lock())
            .finish_non_exhaustive()
    }
}

impl<T: Transport + ?Sized> CertArchive<T> {
    /// Wraps `inner` with an in-memory retained store (no durability).
    pub fn new(inner: std::sync::Arc<T>) -> Self {
        CertArchive {
            inner,
            retained: Mutex::new(BTreeMap::new()),
            store: None,
            store_error: Mutex::new(None),
        }
    }

    /// Wraps `inner` with a durable retained store, recovering whatever
    /// certified history `store` already holds.
    ///
    /// Every intact recovered record is decoded and its certificate
    /// **re-verified** against the trust anchors (`ias_key`,
    /// `measurement`) before it is served to resync requests — a store
    /// whose surviving bytes fail verification is refused, never served.
    /// Records below a recovered prune watermark are dropped (they are
    /// redo leftovers from a crash mid-prune).
    ///
    /// # Errors
    ///
    /// [`RecoverError`] when a recovered record fails to decode or its
    /// certificate fails re-verification.
    pub fn with_store(
        inner: std::sync::Arc<T>,
        store: Box<dyn Store>,
        ias_key: &PublicKey,
        measurement: &Hash,
    ) -> Result<Self, RecoverError> {
        let mut retained: BTreeMap<u64, Vec<NetMessage>> = BTreeMap::new();
        let pruned_below = match store.head(ARCHIVE_PRUNED_KEY) {
            Some(bytes) => u64::decode_all(&bytes)?,
            None => 0,
        };
        for record in store.records() {
            if record.stream != StreamId::Cert || record.height < pruned_below {
                continue;
            }
            let message = NetMessage::decode_all(&record.body)?;
            match &message {
                NetMessage::BlockCert { header, cert } => {
                    cert.verify(ias_key, measurement, &header.hash())?;
                }
                NetMessage::IndexCert {
                    header,
                    digest,
                    cert,
                    ..
                } => {
                    let expected = Certificate::index_digest(&header.hash(), digest);
                    cert.verify(ias_key, measurement, &expected)?;
                }
                // Only certificate messages are ever persisted; anything
                // else in the cert stream is not certified history.
                _ => return Err(RecoverError::Cert(CertError::DigestMismatch)),
            }
            let entry = retained.entry(record.height).or_default();
            if !entry.contains(&message) {
                entry.push(message);
            }
        }
        Ok(CertArchive {
            inner,
            retained: Mutex::new(retained),
            store: Some(Mutex::new(store)),
            store_error: Mutex::new(None),
        })
    }

    /// The first storage failure observed by this archive, if any. `None`
    /// means every retained certificate is durable (or no store is
    /// attached).
    pub fn store_error(&self) -> Option<StoreError> {
        self.store_error.lock().clone()
    }

    /// The attached store's durable height (0 without a store).
    pub fn durable_height(&self) -> u64 {
        self.store
            .as_ref()
            .map_or(0, |store| store.lock().durable_height())
    }

    /// Detaches and returns the durable store (orderly shutdown: the
    /// caller can hand it to a successor archive via
    /// [`CertArchive::with_store`]).
    pub fn into_store(self) -> Option<Box<dyn Store>> {
        self.store.map(Mutex::into_inner)
    }

    /// Appends and syncs one newly retained certificate message; a
    /// failure poisons the archive's durability claim instead of
    /// panicking or blocking the live broadcast.
    fn persist(&self, height: u64, message: &NetMessage) {
        let Some(store) = &self.store else {
            return;
        };
        let mut guard = store.lock();
        let record = Record {
            height,
            stream: StreamId::Cert,
            body: message.to_encoded_bytes(),
        };
        let result = guard.append(&record).and_then(|()| guard.sync());
        if let Err(e) = result {
            let mut poison = self.store_error.lock();
            if poison.is_none() {
                *poison = Some(e);
            }
        }
    }

    /// The highest height with a retained certificate.
    pub fn tip_height(&self) -> Option<u64> {
        self.retained.lock().keys().next_back().copied()
    }

    /// Number of retained certificate messages.
    pub fn retained_len(&self) -> usize {
        self.retained.lock().values().map(Vec::len).sum()
    }

    /// The retained certificate messages for heights in `from..=to`, in
    /// height order.
    pub fn messages_in(&self, from: u64, to: u64) -> Vec<NetMessage> {
        self.retained
            .lock()
            .range(from..=to)
            .flat_map(|(_, msgs)| msgs.iter().cloned())
            .collect()
    }

    /// Re-broadcasts the retained certificates for `from..=to` through the
    /// underlying transport (the resync answer to a
    /// [`NetMessage::CertRequest`]). Returns the number of messages
    /// republished.
    pub fn republish(&self, from: u64, to: u64) -> usize {
        let messages = self.messages_in(from, to);
        let count = messages.len();
        for message in messages {
            self.inner.publish(message);
        }
        count
    }

    /// Drops retained certificates below `height` (bounded memory for
    /// long-running CIs; clients further behind than the retention
    /// horizon re-bootstrap from a checkpoint instead).
    ///
    /// With a store attached the watermark is recorded in the head region
    /// *before* segment files are unlinked, so a crash mid-prune recovers
    /// to either the pre-prune or post-prune archive — never a gap.
    pub fn prune_below(&self, height: u64) {
        let mut retained = self.retained.lock();
        *retained = retained.split_off(&height);
        drop(retained);
        if let Some(store) = &self.store {
            let mut guard = store.lock();
            // Sync the watermark before any segment is unlinked: losing
            // it (even on an orderly close — the backend only syncs a
            // prune that actually drops a segment) would resurrect
            // pruned certificates on the next recovery.
            let result = guard
                .put_head(ARCHIVE_PRUNED_KEY, height.to_encoded_bytes())
                .and_then(|()| guard.sync())
                .and_then(|()| guard.prune_below(height));
            if let Err(e) = result {
                let mut poison = self.store_error.lock();
                if poison.is_none() {
                    *poison = Some(e);
                }
            }
        }
    }
}

impl<T: Transport + ?Sized> Transport for CertArchive<T> {
    fn join(&self) -> Receiver<NetMessage> {
        self.inner.join()
    }

    fn publish(&self, message: NetMessage) -> usize {
        if let (Some(height), NetMessage::BlockCert { .. } | NetMessage::IndexCert { .. }) =
            (message.height(), &message)
        {
            let mut retained = self.retained.lock();
            let entry = retained.entry(height).or_default();
            // Retention is idempotent: the publisher's retry loop re-sends
            // the same message, which must not inflate the archive (or the
            // durable log).
            if !entry.contains(&message) {
                entry.push(message.clone());
                drop(retained);
                self.persist(height, &message);
            }
        }
        self.inner.publish(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_primitives::hash::Address;
    use std::sync::Arc;

    fn header(height: u64) -> BlockHeader {
        BlockHeader {
            height,
            prev_hash: Hash::ZERO,
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: height,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        }
    }

    #[test]
    fn every_subscriber_sees_every_message() {
        let bus = Gossip::new();
        let rx1 = bus.join();
        let rx2 = bus.join();
        bus.publish(NetMessage::Block(Block {
            header: header(1),
            txs: Vec::new(),
        }));
        bus.publish(NetMessage::Shutdown);
        for rx in [rx1, rx2] {
            assert!(matches!(rx.recv().unwrap(), NetMessage::Block(_)));
            assert!(matches!(rx.recv().unwrap(), NetMessage::Shutdown));
        }
    }

    #[test]
    fn late_joiners_get_only_future_messages() {
        let bus = Gossip::new();
        bus.publish(NetMessage::Shutdown); // no one listening
        let rx = bus.join();
        bus.publish(NetMessage::Block(Block {
            header: header(2),
            txs: Vec::new(),
        }));
        assert!(matches!(rx.recv().unwrap(), NetMessage::Block(b) if b.header.height == 2));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn dropped_subscribers_are_pruned_and_delivery_counted() {
        let bus = Gossip::new();
        let rx = bus.join();
        drop(rx);
        let _rx2 = bus.join();
        // The dead subscriber is pruned and does not count as a delivery,
        // on this publish or any later one.
        assert_eq!(bus.publish(NetMessage::Shutdown), 1);
        assert_eq!(bus.publish(NetMessage::Shutdown), 1);
    }

    #[test]
    fn publish_to_empty_bus_reports_zero_deliveries() {
        let bus = Gossip::new();
        assert_eq!(bus.publish(NetMessage::Shutdown), 0);
        let rx = bus.join();
        drop(rx);
        assert_eq!(bus.publish(NetMessage::Shutdown), 0);
    }

    #[test]
    fn per_publisher_order_is_fifo() {
        let bus = Gossip::new();
        let rx = bus.join();
        for height in 1..=10u64 {
            bus.publish(NetMessage::Block(Block {
                header: header(height),
                txs: Vec::new(),
            }));
        }
        for height in 1..=10u64 {
            match rx.recv().unwrap() {
                NetMessage::Block(b) => assert_eq!(b.header.height, height),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    fn dummy_cert(height: u64) -> Certificate {
        use dcert_primitives::keys::Keypair;
        let kp = Keypair::from_seed([height as u8; 32]);
        Certificate {
            pk_enc: kp.public(),
            report: dcert_sgx::AttestationReport {
                measurement: Hash::ZERO,
                report_data: Hash::ZERO,
                signature: kp.sign(b"r"),
            },
            digest: header(height).hash(),
            signature: kp.sign(b"x"),
        }
    }

    #[test]
    fn archive_retains_and_republishes_certificates() {
        let bus = Arc::new(Gossip::new());
        let archive = CertArchive::new(bus.clone());
        let rx = Transport::join(&archive);
        for height in 1..=5u64 {
            archive.publish(NetMessage::BlockCert {
                header: header(height),
                cert: dummy_cert(height),
            });
        }
        // Control messages are forwarded but not retained.
        archive.publish(NetMessage::Shutdown);
        assert_eq!(archive.retained_len(), 5);
        assert_eq!(archive.tip_height(), Some(5));
        for _ in 0..6 {
            rx.recv().unwrap();
        }
        // A resync re-serves exactly the requested range.
        assert_eq!(archive.republish(2, 4), 3);
        for height in 2..=4u64 {
            match rx.recv().unwrap() {
                NetMessage::BlockCert { header: h, .. } => assert_eq!(h.height, height),
                other => panic!("unexpected {other:?}"),
            }
        }
        archive.prune_below(4);
        assert_eq!(archive.messages_in(0, u64::MAX).len(), 2);
    }

    /// A miniature certificate authority issuing *verifiable* certs, for
    /// the recovery paths (which re-verify everything they replay).
    struct RealCa {
        ias: dcert_sgx::AttestationService,
        enclave_key: dcert_primitives::keys::Keypair,
        measurement: Hash,
    }

    impl RealCa {
        fn new() -> Self {
            use dcert_primitives::keys::Keypair;
            let mut ias = dcert_sgx::AttestationService::with_seed([1; 32]);
            let platform = Keypair::from_seed([2; 32]);
            ias.register_platform(platform.public());
            RealCa {
                ias,
                enclave_key: Keypair::from_seed([3; 32]),
                measurement: dcert_primitives::hash::hash_bytes(b"mini-program"),
            }
        }

        fn certify(&self, digest: Hash) -> Certificate {
            use dcert_primitives::keys::Keypair;
            let platform = Keypair::from_seed([2; 32]);
            let quote = dcert_sgx::Quote::sign(
                &platform,
                self.measurement,
                Certificate::key_binding(&self.enclave_key.public()),
            );
            Certificate {
                pk_enc: self.enclave_key.public(),
                report: self.ias.attest(&quote).unwrap(),
                digest,
                signature: self.enclave_key.sign(digest.as_bytes()),
            }
        }

        fn block_cert(&self, height: u64) -> NetMessage {
            let h = header(height);
            let cert = self.certify(h.hash());
            NetMessage::BlockCert { header: h, cert }
        }
    }

    #[test]
    fn archive_with_store_survives_handoff() {
        use dcert_store::MemStore;
        let ca = RealCa::new();
        let bus = Arc::new(Gossip::new());
        let archive = CertArchive::with_store(
            bus.clone(),
            Box::new(MemStore::new()),
            &ca.ias.public_key(),
            &ca.measurement,
        )
        .unwrap();
        for height in 1..=5u64 {
            archive.publish(ca.block_cert(height));
        }
        // Re-publishing (retry path) must not duplicate durable records.
        archive.publish(ca.block_cert(3));
        assert_eq!(archive.store_error(), None);
        assert_eq!(archive.durable_height(), 5);
        let expected = archive.messages_in(0, u64::MAX);

        let store = archive.into_store().unwrap();
        assert_eq!(store.records().len(), 5);
        let recovered =
            CertArchive::with_store(bus, store, &ca.ias.public_key(), &ca.measurement).unwrap();
        assert_eq!(recovered.messages_in(0, u64::MAX), expected);
        assert_eq!(recovered.tip_height(), Some(5));
    }

    #[test]
    fn archive_recovery_refuses_forged_records() {
        use dcert_primitives::codec::Encode;
        use dcert_store::{MemStore, Record, Store, StreamId};
        let ca = RealCa::new();
        let mut store = MemStore::new();
        let mut message = ca.block_cert(1);
        if let NetMessage::BlockCert { cert, .. } = &mut message {
            cert.signature = ca.certify(Hash::ZERO).signature;
        }
        store
            .append(&Record {
                height: 1,
                stream: StreamId::Cert,
                body: message.to_encoded_bytes(),
            })
            .unwrap();
        store.sync().unwrap();
        let bus = Arc::new(Gossip::new());
        let err =
            CertArchive::with_store(bus, Box::new(store), &ca.ias.public_key(), &ca.measurement)
                .unwrap_err();
        assert!(matches!(err, crate::persist::RecoverError::Cert(_)));
    }

    #[test]
    fn archive_recovery_refuses_undecodable_records() {
        use dcert_store::{MemStore, Record, Store, StreamId};
        let ca = RealCa::new();
        let mut store = MemStore::new();
        store
            .append(&Record {
                height: 1,
                stream: StreamId::Cert,
                body: vec![0xFF; 10],
            })
            .unwrap();
        store.sync().unwrap();
        let bus = Arc::new(Gossip::new());
        let err =
            CertArchive::with_store(bus, Box::new(store), &ca.ias.public_key(), &ca.measurement)
                .unwrap_err();
        assert!(matches!(err, crate::persist::RecoverError::Codec(_)));
    }

    #[test]
    fn archive_prune_watermark_filters_recovery() {
        use dcert_store::MemStore;
        let ca = RealCa::new();
        let bus = Arc::new(Gossip::new());
        let archive = CertArchive::with_store(
            bus.clone(),
            Box::new(MemStore::new()),
            &ca.ias.public_key(),
            &ca.measurement,
        )
        .unwrap();
        for height in 1..=5u64 {
            archive.publish(ca.block_cert(height));
        }
        archive.prune_below(4);
        assert_eq!(archive.store_error(), None);
        let store = archive.into_store().unwrap();
        let recovered =
            CertArchive::with_store(bus, store, &ca.ias.public_key(), &ca.measurement).unwrap();
        let heights: Vec<u64> = recovered
            .messages_in(0, u64::MAX)
            .iter()
            .filter_map(NetMessage::height)
            .collect();
        assert_eq!(heights, vec![4, 5]);
    }
}
