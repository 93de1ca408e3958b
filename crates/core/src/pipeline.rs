//! The pipelined certification engine.
//!
//! The paper's Fig. 2 runtime loop — sync → enclave-certify → broadcast —
//! is inherently staged, and only one stage actually needs the enclave.
//! [`CertPipeline`] exploits that: it is the *threaded* driver of the same
//! certification steps the sequential [`CertificateIssuer`] runs inline
//! (the crate's `engine` module), spread over four concurrent stages
//! connected by bounded crossbeam channels (bounded = backpressure; a slow
//! enclave throttles submission instead of buffering unboundedly):
//!
//! 1. **Sequencer** (one thread): owns the chain view. Validates each
//!    job's linkage against the tip, executes its transactions *once*,
//!    snapshots the pre-state for proof generation, and advances. This is
//!    the stage that fixes chain order — everything downstream is
//!    order-preserving.
//! 2. **Preparers** (a pool of untrusted workers): the expensive
//!    outside-enclave work of Algorithm 1 — Merkle update proofs over the
//!    pre-state snapshot and request serialization — runs here, in
//!    parallel across in-flight blocks.
//! 3. **Issuer** (one thread): re-orders prepared requests back into
//!    chain order and drains them through the CI's own issuer, moved onto
//!    this thread for the pipeline's lifetime. ECalls stay serialized,
//!    exactly as a real single-enclave signer requires, and the recursive
//!    `prev_cert` — which only exists once the previous certificate has
//!    been issued — is spliced into the pre-encoded request here.
//! 4. **Publisher** (one thread): broadcasts certificates on the
//!    [`Transport`] (a [`Gossip`](crate::network::Gossip) bus, or a
//!    fault-injecting [`SimNet`](crate::netsim::SimNet)) in issuance
//!    order, confirms delivery against the configured
//!    [`PublishPolicy`] — retrying with exponential backoff and
//!    dead-lettering what never confirms — and accumulates the
//!    [`PipelineReport`].
//!
//! Compared to the per-block sequential methods, the chain view advances
//! without re-validation (the issuer adopts the sequencer-validated state
//! the way [`CertificateIssuer::certify_batch`] does, instead of
//! re-executing in `apply`), proofs for block *i+1* are built while block
//! *i* is inside the enclave, and the certificates that come out are
//! **byte-identical** to sequential issuance —
//! `tests/pipeline_equivalence.rs` proves this property over arbitrary
//! mixed workloads, and `tests/golden_vectors.rs` pins both against the
//! bytes issued before the two shared any code.
//!
//! Shutdown is orderly: dropping the submission side (or the whole
//! pipeline) closes the channel cascade, every stage drains its in-flight
//! work, and [`CertPipeline::shutdown`] hands back the reassembled
//! [`CertificateIssuer`] — positioned at the last successfully certified
//! block, its block- and index-certificate chains intact, so sequential
//! certification (or another pipeline) continues where this one stopped.

// SP-side orchestration: thread spawns, channel sends, and lock acquisitions
// here operate on SP-owned state, never on attacker-supplied bytes. A poisoned
// lock or failed spawn is a deployment fault, not a protocol input.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};

use dcert_chain::{Block, BlockHeader, ChainError, ChainState, FullNode};
use dcert_obs::{Buckets, Counter, Gauge, Histogram, Registry};
use dcert_sgx::cost::timed;
use dcert_sgx::Enclave;
use dcert_vm::Executor;

use crate::ci::{CertBreakdown, CertificateIssuer};
use crate::engine::{ExecutedLink, Indexing, Issuer, PreparedJob};
use crate::error::CertError;
use crate::messages::IndexInput;
use crate::netsim::SimRng;
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
    /// Number of preparer workers (proof generation + serialization).
    pub preparers: usize,
    /// Capacity of each inter-stage channel; bounds in-flight jobs and
    /// therefore memory (each in-flight job pins a state snapshot).
    pub queue_depth: usize,
    /// Delivery-confirmation policy for the publisher stage.
    pub publish: PublishPolicy,
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
            publish: PublishPolicy::default(),
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

/// How hard the publisher stage works to confirm a broadcast.
///
/// [`Transport::publish`] acks with the number of deliveries it
/// scheduled; a result below `min_acks` counts as a failed attempt and is
/// retried with truncated-exponential backoff: `backoff` doubled per
/// attempt, capped at `max_backoff`, then scaled by a deterministic
/// jitter factor in `[0.5, 1.0)` drawn from a `SimRng` stream seeded
/// with `jitter_seed`. The jitter is what keeps a fleet of CIs that share
/// a blackout from retrying in lockstep, and seeding it is what keeps a
/// chaos run replayable — the whole retry schedule is a pure function of
/// the policy. A message still unconfirmed after `max_retries` retries
/// goes to [`PipelineReport::dead_letters`] instead of wedging the
/// pipeline.
#[derive(Debug, Clone)]
pub struct PublishPolicy {
    /// Minimum deliveries for a publish to count as confirmed. The
    /// default `0` accepts any outcome — fire-and-forget, the behavior
    /// benches and single-process runs want (their bus may legitimately
    /// have no subscribers).
    pub min_acks: usize,
    /// Retries after the initial attempt before dead-lettering.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Ceiling on the doubled backoff (pre-jitter). Without one, a
    /// generous retry budget turns a persistent outage into multi-minute
    /// sleeps that outlive the outage itself.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for PublishPolicy {
    fn default() -> Self {
        PublishPolicy {
            min_acks: 0,
            max_retries: 5,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
            jitter_seed: 0,
        }
    }
}

impl PublishPolicy {
    /// Requires at least `min_acks` confirmed deliveries per broadcast.
    pub fn require_acks(min_acks: usize) -> Self {
        PublishPolicy {
            min_acks,
            ..PublishPolicy::default()
        }
    }

    /// The delay before retry number `retry` (1-based): truncated
    /// exponential with deterministic full-range jitter. Pure given the
    /// policy and the RNG position, so tests can replay — and benches
    /// export — the exact schedule.
    pub(crate) fn backoff_for(&self, retry: u32, jitter: &mut SimRng) -> Duration {
        let doubled = self
            .backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16));
        let capped = doubled.min(self.max_backoff.max(self.backoff));
        capped.mul_f64(0.5 + jitter.next_f64() / 2.0)
    }
}

/// A certificate broadcast the publisher could not confirm within its
/// retry budget — reported, not lost: the operator (or a test harness)
/// can republish it once the network heals.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Sequence number of the job that produced the message.
    pub seq: u64,
    /// Publish attempts made (initial try + retries).
    pub attempts: u32,
    /// The unconfirmed message itself.
    pub message: NetMessage,
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
    /// Broadcasts that never reached [`PublishPolicy::min_acks`]
    /// deliveries, in issuance order.
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
    /// comparisons).
    sequence_ns: Histogram,
    prepare_ns: Histogram,
    issue_ns: Histogram,
    publish_ns: Histogram,
    /// Blocks per sequenced job (1 except for `CertJob::Batch`).
    batch_blocks: Histogram,
    /// Peak occupancy of the submit queue and the issuer's reorder buffer
    /// (suffix `_depth`: scheduling-dependent, stripped from replay
    /// comparisons).
    submit_depth: Gauge,
    reorder_depth: Gauge,
    jobs: Counter,
    block_certs: Counter,
    index_certs: Counter,
    errors: Counter,
    publish_attempts: Counter,
    publish_retries: Counter,
    dead_letters: Counter,
    /// Computed retry backoffs in nanoseconds. Deliberately `_nanos`, not
    /// `_ns`: the values come from [`PublishPolicy::backoff_for`], a pure
    /// function of the policy, so they must replay bit-for-bit — the
    /// blackout test in `tests/chaos_network.rs` reads growth off this
    /// histogram.
    backoff_nanos: Histogram,
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
            reorder_depth: registry.gauge("pipeline.reorder_depth"),
            jobs: registry.counter("pipeline.jobs"),
            block_certs: registry.counter("pipeline.block_certs"),
            index_certs: registry.counter("pipeline.index_certs"),
            errors: registry.counter("pipeline.errors"),
            publish_attempts: registry.counter("pipeline.publish.attempts"),
            publish_retries: registry.counter("pipeline.publish.retries"),
            dead_letters: registry.counter("pipeline.publish.dead_letters"),
            backoff_nanos: registry.histogram("pipeline.publish.backoff_nanos", Buckets::latency()),
        }
    }
}

/// An executed block paired with a snapshot of the state it executed on,
/// so a preparer can prove it off-thread.
type SequencedLink = (ExecutedLink, ChainState);

/// The chain position a job leaves behind — `(tip header, post-state)` —
/// adopted once its issuance succeeds.
type Tip = (BlockHeader, ChainState);

/// What the preparer still has to prove and marshal.
// Built once per job and moved through one channel: boxing the common
// variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum PrepWork {
    Single(SequencedLink, Indexing),
    Batch(Vec<SequencedLink>),
}

/// Sequencer → preparer: an executed, chain-ordered job.
struct PrepTask {
    seq: u64,
    /// The tip the job extends (the request's `prev_header` / batch anchor).
    prev_header: BlockHeader,
    work: PrepWork,
    tip: Tip,
    /// Carries `rw_set_gen` forward; the preparer adds `proof_gen`.
    breakdown: CertBreakdown,
}

/// Preparer → issuer (or sequencer → issuer for jobs that failed before
/// preparation).
struct Prepared {
    seq: u64,
    job: Result<(PreparedJob, Tip), CertError>,
    breakdown: CertBreakdown,
}

/// Issuer → publisher: one job's outcome, in chain order.
struct JobOutcome {
    seq: u64,
    result: Result<(Vec<NetMessage>, CertBreakdown), CertError>,
}

/// What the issuer thread hands back at shutdown: the issuer itself and
/// where the last job it certified left the chain.
type IssuerFinal = (Issuer, Option<Tip>);

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
    sequencer: Option<JoinHandle<()>>,
    preparers: Vec<JoinHandle<()>>,
    issuer: Option<JoinHandle<IssuerFinal>>,
    publisher: Option<JoinHandle<PipelineReport>>,
    node: Option<FullNode>,
    /// Shared handle onto the enclave driving the issuer stage, so the
    /// host can seal its state while the pipeline runs (crash drills,
    /// periodic checkpointing).
    enclave: Arc<Enclave<CertProgram>>,
    /// Crash switch: when set, every stage abandons its in-flight work at
    /// the next loop iteration instead of draining.
    poison: Arc<AtomicBool>,
}

impl CertPipeline {
    /// Spawns the pipeline's stages around `ci`'s enclave and chain view.
    /// Certificates are broadcast on `transport` as they are issued.
    pub fn spawn(
        ci: CertificateIssuer,
        config: PipelineConfig,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let CertificateIssuer { node, issuer } = ci;
        let state = node.state().clone();
        let tip = node.tip().clone();
        let executor = node.executor().clone();
        let poison = Arc::new(AtomicBool::new(false));
        let obs = PipelineObs::register(&config.obs);

        let depth = config.queue_depth.max(1);
        let workers = config.preparers.max(1);
        let (submit_tx, submit_rx) = bounded::<CertJob>(depth);
        let (prep_tx, prep_rx) = bounded::<PrepTask>(depth);
        // Room for every preparer to have one result in flight on top of
        // the reorder window, so a fast preparer never blocks the slow
        // one holding the next sequence number.
        let (issue_tx, issue_rx) = bounded::<Prepared>(depth + workers);
        let (publish_tx, publish_rx) = bounded::<JobOutcome>(depth);

        let fail_tx = issue_tx.clone();
        let seq_poison = poison.clone();
        let seq_obs = obs.clone();
        let sequencer = thread::Builder::new()
            .name("dcert-sequencer".into())
            .spawn(move || {
                sequencer_loop(
                    submit_rx, prep_tx, fail_tx, state, tip, executor, seq_poison, seq_obs,
                )
            })
            .expect("spawn sequencer");

        let preparers = (0..workers)
            .map(|i| {
                let rx = prep_rx.clone();
                let tx = issue_tx.clone();
                let prep_poison = poison.clone();
                let prep_obs = obs.clone();
                thread::Builder::new()
                    .name(format!("dcert-preparer-{i}"))
                    .spawn(move || {
                        for task in rx {
                            if prep_poison.load(Ordering::SeqCst) {
                                break;
                            }
                            let (prepared, took) = timed(|| prepare(task));
                            prep_obs.prepare_ns.record(took);
                            if tx.send(prepared).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn preparer")
            })
            .collect();
        // The loops above hold the only remaining clones; dropping these
        // lets each channel close when its senders finish.
        drop(prep_rx);
        drop(issue_tx);

        let enclave = issuer.attested.enclave.clone();
        let issue_poison = poison.clone();
        let issue_obs = obs.clone();
        let issuer = thread::Builder::new()
            .name("dcert-issuer".into())
            .spawn(move || issuer_loop(issue_rx, publish_tx, issuer, issue_poison, issue_obs))
            .expect("spawn issuer");

        let policy = config.publish.clone();
        let pub_poison = poison.clone();
        let publisher = thread::Builder::new()
            .name("dcert-publisher".into())
            .spawn(move || publisher_loop(publish_rx, transport, policy, pub_poison, obs))
            .expect("spawn publisher");

        CertPipeline {
            submit_tx: Some(submit_tx),
            sequencer: Some(sequencer),
            preparers,
            issuer: Some(issuer),
            publisher: Some(publisher),
            node: Some(node),
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
    /// prepare → issue → publish, and returns only once the channels are
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
        let (fin, pipeline_report) = self.drain();
        let (issuer, adopted) = fin.expect("pipeline stages already joined");
        let mut node = self.node.take().expect("node present until shutdown");
        if let Some((header, state)) = adopted {
            // Every adopted transition was validated by the sequencer
            // (and certified by the enclave); no re-execution needed.
            node.adopt_validated(header, state);
        }
        (CertificateIssuer { node, issuer }, pipeline_report)
    }

    /// Closes submission and joins every stage in cascade order.
    fn drain(&mut self) -> (Option<IssuerFinal>, PipelineReport) {
        // Dropping the submission sender starts the cascade: sequencer
        // finishes → preparer queue closes → issuer queue closes →
        // publisher queue closes.
        drop(self.submit_tx.take());
        if let Some(h) = self.sequencer.take() {
            h.join().expect("sequencer panicked");
        }
        for h in self.preparers.drain(..) {
            h.join().expect("preparer panicked");
        }
        let fin = self
            .issuer
            .take()
            .map(|h| h.join().expect("issuer panicked"));
        let report = self
            .publisher
            .take()
            .map(|h| h.join().expect("publisher panicked"))
            .unwrap_or_default();
        (fin, report)
    }
}

impl Drop for CertPipeline {
    /// Dropping the pipeline without [`CertPipeline::shutdown`] still
    /// drains in-flight jobs (certificates reach the bus) — only the
    /// reassembled CI and the report are lost.
    fn drop(&mut self) {
        drop(self.submit_tx.take());
        if let Some(h) = self.sequencer.take() {
            let _ = h.join();
        }
        for h in self.preparers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.issuer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.publisher.take() {
            let _ = h.join();
        }
    }
}

// --- sequencer -------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn sequencer_loop(
    jobs: Receiver<CertJob>,
    prep_tx: Sender<PrepTask>,
    fail_tx: Sender<Prepared>,
    mut state: ChainState,
    mut tip: BlockHeader,
    executor: Executor,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) {
    for (seq, job) in (0u64..).zip(jobs.iter()) {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        // +1: the job just taken off the queue was part of the backlog.
        obs.submit_depth
            .record_max(i64::try_from(jobs.len() + 1).unwrap_or(i64::MAX));
        let (sequenced, took) = timed(|| sequence_job(job, &mut state, &mut tip, &executor, seq));
        obs.sequence_ns.record(took);
        let sent = match sequenced {
            Ok(task) => {
                obs.batch_blocks.observe(match &task.work {
                    PrepWork::Single(..) => 1,
                    PrepWork::Batch(links) => links.len() as u64,
                });
                prep_tx.send(task).is_ok()
            }
            // Route the failure straight to the issuer so the sequence
            // numbering stays contiguous for its reorder buffer.
            Err(error) => {
                let failed = Prepared {
                    seq,
                    job: Err(error),
                    breakdown: CertBreakdown::default(),
                };
                fail_tx.send(failed).is_ok()
            }
        };
        if !sent {
            break;
        }
    }
}

/// Executes the job's blocks in order against the sequencer's chain view
/// and advances it. A job certifies atomically: if any link fails, the
/// view is rolled back to where the job started.
fn sequence_job(
    job: CertJob,
    state: &mut ChainState,
    tip: &mut BlockHeader,
    executor: &Executor,
    seq: u64,
) -> Result<PrepTask, CertError> {
    let prev_header = tip.clone();
    let mut breakdown = CertBreakdown::default();
    let work = match job {
        CertJob::Block(block) => PrepWork::Single(
            advance(state, tip, executor, block, &mut breakdown)?,
            Indexing::None,
        ),
        CertJob::Augmented { block, indexes } => PrepWork::Single(
            advance(state, tip, executor, block, &mut breakdown)?,
            Indexing::Augmented(indexes),
        ),
        CertJob::Hierarchical { block, indexes } => PrepWork::Single(
            advance(state, tip, executor, block, &mut breakdown)?,
            Indexing::Hierarchical(indexes),
        ),
        CertJob::Batch(blocks) => {
            let mut links: Vec<SequencedLink> = Vec::with_capacity(blocks.len());
            for block in blocks {
                match advance(state, tip, executor, block, &mut breakdown) {
                    Ok(link) => links.push(link),
                    Err(error) => {
                        if let Some((_, start)) = links.into_iter().next() {
                            *state = start;
                        }
                        *tip = prev_header;
                        return Err(error);
                    }
                }
            }
            PrepWork::Batch(links)
        }
    };
    Ok(PrepTask {
        seq,
        prev_header,
        work,
        tip: (tip.clone(), state.clone()),
        breakdown,
    })
}

/// Executes `block` once against the sequencer's view, snapshots the
/// pre-state for the preparer, and advances the view. On error the view is
/// untouched.
///
/// Linkage and the post-state root are checked here because the
/// sequencer *advances* on them; everything else (tx signatures, tx
/// root, consensus proof, read-set authenticity) is the enclave's call —
/// it re-validates the lot, so a bad block fails at issuance and the
/// certificate chain simply does not advance past it.
fn advance(
    state: &mut ChainState,
    tip: &mut BlockHeader,
    executor: &Executor,
    block: Block,
    breakdown: &mut CertBreakdown,
) -> Result<SequencedLink, CertError> {
    let link = ExecutedLink::execute(executor, state, tip, block, breakdown)?;
    let pre_state = state.clone();
    link.apply_to(state);
    if state.root() != link.block.header.state_root {
        *state = pre_state;
        return Err(CertError::Chain(ChainError::StateRootMismatch));
    }
    *tip = link.block.header.clone();
    Ok((link, pre_state))
}

// --- preparers -------------------------------------------------------------

/// Proves every link against its pre-state snapshot and marshals the job's
/// requests around the certificates only the issuer stage will have.
fn prepare(task: PrepTask) -> Prepared {
    let mut breakdown = task.breakdown;
    let job = match task.work {
        // The sequencer has already applied the write set.
        PrepWork::Single((link, pre_state), indexing) => Ok(PreparedJob::single(
            &task.prev_header,
            link,
            &pre_state,
            indexing,
            &mut breakdown,
        )
        .0),
        PrepWork::Batch(links) => {
            let links: Vec<_> = links
                .into_iter()
                .map(|(link, pre_state)| link.prove(&pre_state, &mut breakdown).0)
                .collect();
            PreparedJob::batch(&task.prev_header, &links)
        }
    };
    Prepared {
        seq: task.seq,
        job: job.map(|job| (job, task.tip)),
        breakdown,
    }
}

// --- issuer ----------------------------------------------------------------

fn issuer_loop(
    issue_rx: Receiver<Prepared>,
    publish_tx: Sender<JobOutcome>,
    mut issuer: Issuer,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) -> IssuerFinal {
    let mut adopted = None;
    let mut process = |prepared: Prepared| {
        let (outcome, took) = timed(|| issue_prepared(&mut issuer, &mut adopted, prepared));
        obs.issue_ns.record(took);
        publish_tx.send(outcome).is_ok()
    };
    // Preparers finish out of order; issue strictly by sequence number.
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, Prepared> = BTreeMap::new();
    'recv: for prepared in issue_rx {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        pending.insert(prepared.seq, prepared);
        obs.reorder_depth
            .record_max(i64::try_from(pending.len()).unwrap_or(i64::MAX));
        while let Some(ready) = pending.remove(&next) {
            next += 1;
            if !process(ready) {
                break 'recv;
            }
        }
    }
    // A panicked preparer leaves a gap; surface anything stranded behind
    // it (out of chain order, so the enclave will reject) rather than
    // dropping it silently. A killed pipeline drops it instead — that is
    // the crash being simulated.
    if !poison.load(Ordering::SeqCst) {
        for (_, stranded) in pending {
            if !process(stranded) {
                break;
            }
        }
    }
    (issuer, adopted)
}

/// Issues one prepared job in chain order. The certificate chains and the
/// tip handed back at shutdown advance only if the whole job succeeded —
/// matching the inline driver, which bails before `apply` on any failure.
fn issue_prepared(
    issuer: &mut Issuer,
    adopted: &mut Option<Tip>,
    prepared: Prepared,
) -> JobOutcome {
    let mut breakdown = prepared.breakdown;
    let result = prepared.job.and_then(|(job, tip)| {
        let issued = issuer.issue(&job, &mut breakdown)?;
        issuer.commit(&issued);
        *adopted = Some(tip);
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
    policy: PublishPolicy,
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
) -> PipelineReport {
    let mut report = PipelineReport::default();
    let mut jitter = SimRng::new(policy.jitter_seed);
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
                        match &message {
                            NetMessage::BlockCert { .. } => {
                                report.block_certs += 1;
                                obs.block_certs.inc();
                            }
                            NetMessage::IndexCert { .. } => {
                                report.index_certs += 1;
                                obs.index_certs.inc();
                            }
                            _ => {}
                        }
                        publish_confirmed(
                            &*transport,
                            &policy,
                            outcome.seq,
                            message,
                            &mut report,
                            &obs,
                            &mut jitter,
                        );
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

/// One acked publish: retries on the policy's capped, jittered
/// exponential schedule ([`PublishPolicy::backoff_for`]) until the
/// transport confirms at least `min_acks` deliveries, dead-lettering the
/// message when the budget runs out. With `min_acks == 0` this is a
/// plain fire-and-forget broadcast (no clone, no sleeping). Every
/// computed backoff is recorded into `pipeline.publish.backoff_nanos`
/// before sleeping, so the schedule is observable without timing the
/// sleeps themselves.
fn publish_confirmed(
    transport: &dyn Transport,
    policy: &PublishPolicy,
    seq: u64,
    message: NetMessage,
    report: &mut PipelineReport,
    obs: &PipelineObs,
    jitter: &mut SimRng,
) {
    if policy.min_acks == 0 {
        obs.publish_attempts.inc();
        transport.publish(message);
        return;
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        obs.publish_attempts.inc();
        if transport.publish(message.clone()) >= policy.min_acks {
            return;
        }
        if attempts > policy.max_retries {
            obs.dead_letters.inc();
            report.dead_letters.push(DeadLetter {
                seq,
                attempts,
                message,
            });
            return;
        }
        obs.publish_retries.inc();
        let backoff = policy.backoff_for(attempts, jitter);
        obs.backoff_nanos
            .observe(u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX));
        thread::sleep(backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_jitters_caps_and_replays() {
        let policy = PublishPolicy {
            min_acks: 1,
            max_retries: 10,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter_seed: 42,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut jitter = SimRng::new(seed);
            (1..=10)
                .map(|retry| policy.backoff_for(retry, &mut jitter))
                .collect()
        };
        let a = schedule(policy.jitter_seed);
        assert_eq!(a, schedule(policy.jitter_seed), "same seed, same schedule");
        for (i, delay) in a.iter().enumerate() {
            // Pre-jitter base: 1 ms doubled per retry, capped at 8 ms.
            let base = Duration::from_millis(1u64 << i.min(3));
            assert!(
                *delay >= base / 2 && *delay < base,
                "retry {}: {delay:?} outside [{:?}, {:?})",
                i + 1,
                base / 2,
                base
            );
        }
        // The capped tail can never exceed max_backoff...
        assert!(a.iter().all(|d| *d < Duration::from_millis(8)));
        // ...and the early schedule genuinely grows: every pre-cap delay
        // exceeds the previous retry's jitter ceiling.
        assert!(a[1] >= Duration::from_millis(1));
        assert!(a[2] >= Duration::from_millis(2));
        assert!(a[3] >= Duration::from_millis(4));
    }

    #[test]
    fn zero_retry_shift_saturates() {
        let policy = PublishPolicy {
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(1),
            ..PublishPolicy::default()
        };
        let mut jitter = SimRng::new(0);
        // A huge retry number must cap, not overflow the shift.
        let delay = policy.backoff_for(u32::MAX, &mut jitter);
        assert!(delay <= Duration::from_secs(1));
    }
}
