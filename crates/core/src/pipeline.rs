//! The pipelined certification engine.
//!
//! The paper's Fig. 2 runtime loop — sync → enclave-certify → broadcast —
//! is inherently staged, and only one stage actually needs the enclave.
//! [`CertPipeline`] exploits that: it is the *threaded* driver of the same
//! certification steps the sequential [`CertificateIssuer`] runs inline
//! (the crate's `engine` module), spread over three concurrent stages
//! connected by bounded crossbeam channels (bounded = backpressure; a slow
//! enclave throttles submission instead of buffering unboundedly):
//!
//! 1. **Sequencer** (one thread): owns the CI's chain view — its
//!    `FullNode`, moved onto the thread at spawn — and runs `engine::sequence`
//!    on it, exactly as the inline CI does: per block, check its linkage
//!    against the tip, execute its transactions *once* (`comp_data_set`),
//!    build its Merkle update proof against the state it executed on
//!    (`get_update_proof`), then `FullNode::advance`, which compares the
//!    post-state root. It keeps the job's undo until the issuer certifies
//!    it. This is the stage that fixes chain order — everything downstream
//!    receives jobs in it.
//! 2. **Issuer** (one thread): drains prepared requests, in arrival order,
//!    through the CI's own issuer, moved onto this thread for the
//!    pipeline's lifetime. ECalls stay serialized, exactly as a real
//!    single-enclave signer requires. The recursive `prev_cert` only
//!    exists once the previous certificate has been issued, so this stage
//!    sets it on the request and serialises it.
//! 3. **Publisher** (one thread): broadcasts each certificate once on the
//!    [`Transport`] (a [`Gossip`](crate::network::Gossip) bus, or a
//!    [`CertArchive`](crate::network::CertArchive) over a fault-injecting
//!    [`SimNet`](crate::netsim::SimNet)) in issuance order, records a
//!    broadcast that reached no subscriber as a [`DeadLetter`], and
//!    accumulates the [`PipelineReport`]. It never retries: a certificate
//!    lost in transit comes back by the client's resync from the archive,
//!    and since certificates are recursive a later one supersedes it.
//!
//! Compared to the per-block sequential methods, the steps and the chain
//! view are the same — block *i+1* is executed and proven while block *i*
//! is inside the enclave — and the certificates that come out are
//! **byte-identical** to sequential issuance —
//! `tests/pipeline_equivalence.rs` proves this property over arbitrary
//! mixed workloads, and `tests/golden_vectors.rs` pins both against the
//! bytes issued before the two shared any code.
//!
//! Shutdown is orderly: dropping the submission side (or the whole
//! pipeline) closes the channel cascade, every stage drains its in-flight
//! work, and [`CertPipeline::shutdown`] hands back the reassembled
//! [`CertificateIssuer`] — its view rewound (`engine::rewind`, newest job
//! first) to the last successfully certified block, its block- and
//! index-certificate chains intact, so sequential certification (or
//! another pipeline) continues where this one stopped.

// SP-side orchestration: thread spawns, channel sends, and lock acquisitions
// here operate on SP-owned state, never on attacker-supplied bytes. A poisoned
// lock or failed spawn is a deployment fault, not a protocol input.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};

use dcert_chain::{Block, FullNode};
use dcert_obs::{Buckets, Counter, Gauge, Histogram, Registry};
use dcert_sgx::cost::timed;
use dcert_sgx::Enclave;

use crate::ci::{CertBreakdown, CertificateIssuer};
use crate::engine::{rewind, sequence, Issuer, PreparedJob, Undo};
use crate::error::CertError;
use crate::messages::IndexInput;
use crate::network::{NetMessage, Transport};
use crate::program::CertProgram;

/// One unit of certification work, in submission order.
#[derive(Debug, Clone)]
pub enum CertJob {
    /// Algorithm 1: a plain block certificate.
    Block(Block),
    /// Algorithm 4: one augmented certificate per index (no standalone
    /// block certificate; `prev_block_cert` is left untouched, exactly as
    /// in the sequential scheme).
    Augmented {
        /// The block to certify.
        block: Block,
        /// Staged index updates. Each chains from the certificate the CI
        /// last issued for that index, else from its staged `prev_cert`.
        indexes: Vec<IndexInput>,
    },
    /// Algorithm 5: a block certificate plus one certificate per index,
    /// signed off one replay in one ECall.
    Hierarchical {
        /// The block to certify.
        block: Block,
        /// Staged index updates.
        indexes: Vec<IndexInput>,
    },
    /// Batch coalescing: consecutive blocks certified with **one** ECall,
    /// producing a single certificate for the last block
    /// (the [`CertificateIssuer::certify_batch`] amortization, preserved
    /// under the pipeline).
    Batch(Vec<Block>),
}

/// Tuning knobs for [`CertPipeline::spawn`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Read by nothing: the sequencer proves every job itself. Kept for
    /// `benchmark/driver`, which sets it; leaves at ROADMAP item 4(c).
    pub preparers: usize,
    /// Capacity of each inter-stage channel; bounds in-flight jobs and
    /// therefore memory (each in-flight job holds its proofs, and the
    /// sequencer its undo).
    pub queue_depth: usize,
    /// Read by nothing; see [`ParallelismConfig`].
    pub parallelism: ParallelismConfig,
    /// Metrics registry the stages record into (`pipeline.*`). Defaults
    /// to a disabled registry — recording is then a no-op and nothing is
    /// exported; `tests/pipeline_equivalence.rs` pins that instrumenting
    /// changes no certificate bytes either way.
    pub obs: Registry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            preparers: 4,
            queue_depth: 8,
            parallelism: ParallelismConfig::default(),
            obs: Registry::disabled(),
        }
    }
}

/// Compatibility spelling `benchmark/driver` names (with
/// `dcert_merkle::set_build_threads`); leaves at ROADMAP item 4(c). Inert:
/// the transaction root is one fold on the calling thread, and nothing
/// reads this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Ignored.
    pub merkle_threads: usize,
}

/// A certificate broadcast that reached no subscriber. Nothing is lost:
/// the archive the pipeline publishes through retains the certificate, and
/// a client that missed it recovers it by resync
/// ([`CertArchive::republish`](crate::network::CertArchive::republish)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadLetter {
    /// Sequence number of the job that produced the certificate.
    pub seq: u64,
    /// The certificate's chain height.
    pub height: u64,
}

/// What the pipeline did, returned by [`CertPipeline::shutdown`].
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Jobs processed (success or failure).
    pub jobs: u64,
    /// Block certificates broadcast.
    pub block_certs: u64,
    /// Index certificates broadcast.
    pub index_certs: u64,
    /// Per-job construction breakdowns, in chain order (successes only).
    pub breakdowns: Vec<CertBreakdown>,
    /// Failed jobs as `(sequence number, error)`, in chain order.
    pub errors: Vec<(u64, CertError)>,
    /// Broadcasts that reached no subscriber, one per certificate, in
    /// issuance order.
    pub dead_letters: Vec<DeadLetter>,
}

impl PipelineReport {
    /// Sum of all successful jobs' construction times.
    pub fn total_construction(&self) -> Duration {
        self.breakdowns.iter().map(CertBreakdown::total).sum()
    }
}

/// Metric handles for the pipeline cost center (`pipeline.*`), registered
/// once at [`CertPipeline::spawn`] and cloned into each stage thread.
/// Recording through them is lock-free; against a disabled registry it is
/// a no-op.
#[derive(Clone)]
struct PipelineObs {
    /// Per-stage wall-clock latency (suffix `_ns`: stripped from replay
    /// comparisons). `sequence_ns` is the sequencer's whole job;
    /// `prepare_ns` the proof generation within it.
    sequence_ns: Histogram,
    prepare_ns: Histogram,
    issue_ns: Histogram,
    publish_ns: Histogram,
    /// Blocks per sequenced job (1 except for `CertJob::Batch`).
    batch_blocks: Histogram,
    /// Peak occupancy of the submit queue (suffix `_depth`:
    /// scheduling-dependent, stripped from replay comparisons).
    submit_depth: Gauge,
    jobs: Counter,
    block_certs: Counter,
    index_certs: Counter,
    errors: Counter,
    dead_letters: Counter,
}

impl PipelineObs {
    fn register(registry: &Registry) -> Self {
        PipelineObs {
            sequence_ns: registry.timer("pipeline.stage.sequence_ns"),
            prepare_ns: registry.timer("pipeline.stage.prepare_ns"),
            issue_ns: registry.timer("pipeline.stage.issue_ns"),
            publish_ns: registry.timer("pipeline.stage.publish_ns"),
            batch_blocks: registry.histogram("pipeline.batch_blocks", Buckets::linear(1, 1, 16)),
            submit_depth: registry.gauge("pipeline.submit_depth"),
            jobs: registry.counter("pipeline.jobs"),
            block_certs: registry.counter("pipeline.block_certs"),
            index_certs: registry.counter("pipeline.index_certs"),
            errors: registry.counter("pipeline.errors"),
            dead_letters: registry.counter("pipeline.publish.dead_letters"),
        }
    }
}

/// The undo of each job the issuer had not certified when the sequencer
/// last looked, by sequence number, newest last.
type Pending = Vec<(u64, Undo)>;

/// Sequencer → issuer: one job, proven and ready to cross, or why it
/// failed, in chain order.
struct Prepared {
    seq: u64,
    job: Result<PreparedJob, CertError>,
    /// `rw_set_gen` and `proof_gen`; the issuer adds the enclave's share.
    breakdown: CertBreakdown,
}

/// Issuer → publisher: one job's outcome, in chain order.
struct JobOutcome {
    seq: u64,
    result: Result<(Vec<NetMessage>, CertBreakdown), CertError>,
}

/// The staged, concurrent certification engine. See the module docs for
/// the stage layout.
///
/// Jobs submitted through [`CertPipeline::submit`] are certified in
/// submission order; certificates appear on the gossip bus in the same
/// order. A failed job is reported in the [`PipelineReport`] and does not
/// advance the certificate chain (subsequent jobs that depended on it
/// fail too — the enclave is the authority).
pub struct CertPipeline {
    submit_tx: Option<Sender<CertJob>>,
    /// Hands back the CI's chain view and its pending undos.
    sequencer: Option<JoinHandle<(FullNode, Pending)>>,
    issuer: Option<JoinHandle<Issuer>>,
    publisher: Option<JoinHandle<PipelineReport>>,
    /// One past the last job certified: no job below it is ever undone.
    certified: Arc<AtomicU64>,
    /// Shared handle onto the enclave driving the issuer stage, so the
    /// host can seal its state while the pipeline runs (crash drills,
    /// periodic checkpointing).
    enclave: Arc<Enclave<CertProgram>>,
    /// Crash switch: when set, every stage abandons its in-flight work at
    /// the next loop iteration instead of draining.
    poison: Arc<AtomicBool>,
}

impl CertPipeline {
    /// Spawns the pipeline's stages around `ci`'s enclave and chain view,
    /// moving the view onto the sequencer thread and the issuer onto the
    /// issuer thread. Certificates are broadcast on `transport` as they are
    /// issued.
    pub fn spawn(
        ci: CertificateIssuer,
        config: PipelineConfig,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let CertificateIssuer { node, issuer } = ci;
        let poison = Arc::new(AtomicBool::new(false));
        let certified = Arc::new(AtomicU64::new(0));
        let obs = PipelineObs::register(&config.obs);

        let depth = config.queue_depth.max(1);
        let (submit_tx, submit_rx) = bounded::<CertJob>(depth);
        let (issue_tx, issue_rx) = bounded::<Prepared>(depth);
        let (publish_tx, publish_rx) = bounded::<JobOutcome>(depth);

        let seq_poison = poison.clone();
        let seq_obs = obs.clone();
        let done = certified.clone();
        let sequencer = thread::Builder::new()
            .name("dcert-sequencer".into())
            .spawn(move || sequencer_loop(submit_rx, issue_tx, node, done, seq_poison, seq_obs))
            .expect("spawn sequencer");

        let enclave = issuer.attested.enclave.clone();
        let issue_poison = poison.clone();
        let issue_obs = obs.clone();
        let done = certified.clone();
        let issuer = thread::Builder::new()
            .name("dcert-issuer".into())
            .spawn(move || issuer_loop(issue_rx, publish_tx, issuer, done, issue_poison, issue_obs))
            .expect("spawn issuer");

        let pub_poison = poison.clone();
        let publisher = thread::Builder::new()
            .name("dcert-publisher".into())
            .spawn(move || publisher_loop(publish_rx, transport, pub_poison, obs))
            .expect("spawn publisher");

        CertPipeline {
            submit_tx: Some(submit_tx),
            sequencer: Some(sequencer),
            issuer: Some(issuer),
            publisher: Some(publisher),
            certified,
            enclave,
            poison,
        }
    }

    /// Simulates a CI process crash: every stage abandons its in-flight
    /// work at the next iteration — queued jobs, prepared requests, and
    /// issued-but-unpublished certificates are lost, exactly as a real
    /// `kill -9` would lose them. Join the carcass with
    /// [`CertPipeline::shutdown`] (whose returned CI and report reflect
    /// only what survived) or just drop it.
    ///
    /// **Abort, not drain.** `kill` is the opposite of calling
    /// [`CertPipeline::shutdown`] directly: `shutdown` on a live pipeline
    /// *drains* — it closes the intake, lets every queued job flow through
    /// sequence → issue → publish, and returns only once the channels are
    /// empty — whereas `kill` *aborts*: stages check the poison flag
    /// between jobs and bail out with whatever is still in their channels
    /// unprocessed. Nothing in-enclave is rolled back (the signing
    /// watermark keeps any already-issued heights), so an aborted height
    /// may be signed-but-unpublished; recovery must resume from the last
    /// published certificate, never from the enclave watermark.
    ///
    /// Recovery is what `tests/crash_recovery.rs` drills: reboot from a
    /// sealed enclave key ([`CertPipeline::seal_enclave_key`]) plus the
    /// last *published* certificate via
    /// [`CertificateIssuer::resume_on_platform`].
    pub fn kill(&self) {
        self.poison.store(true, Ordering::SeqCst);
    }

    /// Seals the enclave's current state (signing key + monotonic height
    /// watermark) to its platform, while the pipeline runs. ECalls
    /// serialize inside the enclave, so the seal is a consistent point-in
    /// -time snapshot between signatures.
    pub fn seal_enclave_key(&self) -> dcert_sgx::SealedBlob {
        self.enclave.seal_state()
    }

    /// Submits a job for certification. Blocks when the pipeline is at
    /// capacity (`queue_depth`) — this is the backpressure that keeps a
    /// fast block producer from outrunning the enclave.
    ///
    /// # Errors
    ///
    /// [`CertError::PipelineClosed`] if the pipeline has stopped
    /// accepting work (a stage died).
    pub fn submit(&self, job: CertJob) -> Result<(), CertError> {
        let tx = self.submit_tx.as_ref().expect("pipeline already shut down");
        tx.send(job).map_err(|_| CertError::PipelineClosed)
    }

    /// Closes submission, drains every in-flight job through all stages,
    /// and returns the reassembled [`CertificateIssuer`] — positioned at
    /// the last successfully certified block — plus the run's report.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any stage thread (none are expected; a
    /// rejected block is an error, not a panic).
    pub fn shutdown(mut self) -> (CertificateIssuer, PipelineReport) {
        let (sequenced, issuer, pipeline_report) = self.drain(true);
        let issuer = issuer.expect("pipeline stages already joined");
        let (mut node, pending) = sequenced.expect("pipeline stages already joined");
        // Rewind, newest first, every job after the last certified one.
        let done = self.certified.load(Ordering::SeqCst);
        let uncertified = pending
            .into_iter()
            .rev()
            .take_while(|(seq, _)| *seq >= done);
        for (_, undo) in uncertified {
            rewind(&mut node, undo);
        }
        (CertificateIssuer { node, issuer }, pipeline_report)
    }

    /// Closes submission and joins every stage in cascade order.
    fn drain(
        &mut self,
        propagate: bool,
    ) -> (Option<(FullNode, Pending)>, Option<Issuer>, PipelineReport) {
        // Dropping the submission sender starts the cascade: sequencer
        // finishes → issuer queue closes → publisher queue closes.
        drop(self.submit_tx.take());
        let sequenced = self.sequencer.take().and_then(|h| join_stage(h, propagate));
        let issuer = self.issuer.take().and_then(|h| join_stage(h, propagate));
        let report = self.publisher.take().and_then(|h| join_stage(h, propagate));
        (sequenced, issuer, report.unwrap_or_default())
    }
}

/// Joins one stage thread: its result, or its panic re-raised when
/// `propagate` is set (and `None` otherwise).
fn join_stage<T>(stage: JoinHandle<T>, propagate: bool) -> Option<T> {
    match stage.join() {
        Ok(value) => Some(value),
        Err(panic) if propagate => std::panic::resume_unwind(panic),
        Err(_) => None,
    }
}

impl Drop for CertPipeline {
    /// Dropping the pipeline without [`CertPipeline::shutdown`] still
    /// drains in-flight jobs (certificates reach the bus) — only the
    /// reassembled CI and the report are lost.
    fn drop(&mut self) {
        self.drain(false);
    }
}

// --- sequencer -------------------------------------------------------------

fn sequencer_loop(
    jobs: Receiver<CertJob>,
    issue_tx: Sender<Prepared>,
    mut node: FullNode,
    certified: Arc<AtomicU64>,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) -> (FullNode, Pending) {
    let mut pending = Pending::new();
    for (seq, job) in (0u64..).zip(jobs.iter()) {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        let done = certified.load(Ordering::SeqCst);
        pending.retain(|(job_seq, _)| *job_seq >= done);
        // +1: the job just taken off the queue was part of the backlog.
        obs.submit_depth
            .record_max(i64::try_from(jobs.len() + 1).unwrap_or(i64::MAX));
        let mut breakdown = CertBreakdown::default();
        let (sequenced, took) = timed(|| sequence(&mut node, job, &mut breakdown));
        obs.sequence_ns.record(took);
        let job = sequenced.map(|(job, undo)| {
            obs.prepare_ns.record(breakdown.proof_gen);
            obs.batch_blocks.observe(undo.len() as u64);
            pending.push((seq, undo));
            job
        });
        let prepared = Prepared {
            seq,
            job,
            breakdown,
        };
        if issue_tx.send(prepared).is_err() {
            break;
        }
    }
    (node, pending)
}

// --- issuer ----------------------------------------------------------------

fn issuer_loop(
    issue_rx: Receiver<Prepared>,
    publish_tx: Sender<JobOutcome>,
    mut issuer: Issuer,
    certified: Arc<AtomicU64>,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) -> Issuer {
    // One sequencer sends in sequence order: arrival order is chain order.
    for prepared in issue_rx {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        let (outcome, took) = timed(|| issue_prepared(&mut issuer, &certified, prepared));
        obs.issue_ns.record(took);
        if publish_tx.send(outcome).is_err() {
            break;
        }
    }
    issuer
}

/// Issues one prepared job in chain order. The certificate chains and the
/// tip handed back at shutdown advance only if the whole job succeeded —
/// matching the inline driver, which rewinds a refused job at once.
fn issue_prepared(issuer: &mut Issuer, certified: &AtomicU64, prepared: Prepared) -> JobOutcome {
    let mut breakdown = prepared.breakdown;
    let result = prepared.job.and_then(|job| {
        let issued = issuer.issue(job, &mut breakdown)?;
        issuer.commit(&issued);
        certified.fetch_max(prepared.seq + 1, Ordering::SeqCst);
        Ok((issued.into_messages(), breakdown))
    });
    JobOutcome {
        seq: prepared.seq,
        result,
    }
}

// --- publisher -------------------------------------------------------------

fn publisher_loop(
    publish_rx: Receiver<JobOutcome>,
    transport: Arc<dyn Transport>,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) -> PipelineReport {
    let mut report = PipelineReport::default();
    for outcome in publish_rx {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        report.jobs += 1;
        obs.jobs.inc();
        match outcome.result {
            Ok((messages, breakdown)) => {
                let ((), took) = timed(|| {
                    for message in messages {
                        let height = message.height().unwrap_or_default();
                        if matches!(message, NetMessage::IndexCert { .. }) {
                            report.index_certs += 1;
                            obs.index_certs.inc();
                        } else {
                            report.block_certs += 1;
                            obs.block_certs.inc();
                        }
                        // Once, whatever the outcome: the archive keeps
                        // the certificate for a client's resync.
                        if transport.publish(message) == 0 {
                            obs.dead_letters.inc();
                            report.dead_letters.push(DeadLetter {
                                seq: outcome.seq,
                                height,
                            });
                        }
                    }
                });
                obs.publish_ns.record(took);
                report.breakdowns.push(breakdown);
            }
            Err(error) => {
                obs.errors.inc();
                report.errors.push((outcome.seq, error));
            }
        }
    }
    report
}
