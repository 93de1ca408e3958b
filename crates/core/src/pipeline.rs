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
//! 3. **Publisher** (one thread): broadcasts certificates on the
//!    [`Transport`] (a [`Gossip`](crate::network::Gossip) bus, or a
//!    fault-injecting [`SimNet`](crate::netsim::SimNet)) in issuance
//!    order, confirms delivery against the configured
//!    [`PublishPolicy`] — retrying with exponential backoff and
//!    dead-lettering what never confirms — and accumulates the
//!    [`PipelineReport`].
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
    /// Read by nothing: the sequencer proves every job itself. Kept for
    /// `benchmark/driver`, which sets it; leaves at ROADMAP item 4(c).
    pub preparers: usize,
    /// Capacity of each inter-stage channel; bounds in-flight jobs and
    /// therefore memory (each in-flight job holds its proofs, and the
    /// sequencer its undo).
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

/// Retries after the initial publish attempt before dead-lettering.
const MAX_RETRIES: u32 = 5;
/// Backoff before the first retry; doubles per subsequent retry.
const BACKOFF: Duration = Duration::from_millis(1);
/// Ceiling on the doubled backoff (pre-jitter). Without one, a persistent
/// outage turns the doubling into sleeps that outlive the outage itself.
const MAX_BACKOFF: Duration = Duration::from_millis(64);

/// How hard the publisher stage works to confirm a broadcast.
///
/// [`Transport::publish`] acks with the number of deliveries it
/// scheduled; a result below `min_acks` counts as a failed attempt and is
/// retried with truncated-exponential backoff: 1 ms doubled per attempt,
/// capped at 64 ms, then scaled by a deterministic jitter factor in
/// `[0.5, 1.0)` drawn from a `SimRng` stream seeded with `jitter_seed`.
/// The jitter is what keeps a fleet of CIs that share a blackout from
/// retrying in lockstep, and seeding it is what keeps a chaos run
/// replayable — the whole retry schedule is a pure function of the seed.
/// A message still unconfirmed after 5 retries goes to
/// [`PipelineReport::dead_letters`] instead of wedging the pipeline.
#[derive(Debug, Clone, Default)]
pub struct PublishPolicy {
    /// Minimum deliveries for a publish to count as confirmed. The
    /// default `0` accepts any outcome — fire-and-forget, the behavior
    /// benches and single-process runs want (their bus may legitimately
    /// have no subscribers).
    pub min_acks: usize,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl PublishPolicy {
    /// Requires at least `min_acks` confirmed deliveries per broadcast.
    pub fn require_acks(min_acks: usize) -> Self {
        PublishPolicy {
            min_acks,
            ..PublishPolicy::default()
        }
    }
}

/// The delay before retry number `retry` (1-based): truncated exponential
/// with deterministic full-range jitter. Pure given the RNG position, so
/// tests can replay — and benches export — the exact schedule.
fn backoff_for(retry: u32, jitter: &mut SimRng) -> Duration {
    let doubled = BACKOFF.saturating_mul(1u32 << retry.saturating_sub(1).min(16));
    doubled
        .min(MAX_BACKOFF)
        .mul_f64(0.5 + jitter.next_f64() / 2.0)
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
    publish_attempts: Counter,
    publish_retries: Counter,
    dead_letters: Counter,
    /// Computed retry backoffs in nanoseconds. Deliberately `_nanos`, not
    /// `_ns`: the values come from [`backoff_for`], a pure function of the
    /// jitter seed, so they must replay bit-for-bit — the blackout test in
    /// `tests/chaos_network.rs` reads growth off this histogram.
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
            .spawn(move || publisher_loop(publish_rx, transport, config.publish, pub_poison, obs))
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
                            policy.min_acks,
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

/// One acked publish: retries on the capped, jittered exponential
/// schedule ([`backoff_for`]) until the transport confirms at least
/// `min_acks` deliveries, dead-lettering the message when the budget runs
/// out. With `min_acks == 0` this is a plain fire-and-forget broadcast (no
/// clone, no sleeping). Every computed backoff is recorded into
/// `pipeline.publish.backoff_nanos` before sleeping, so the schedule is
/// observable without timing the sleeps themselves.
fn publish_confirmed(
    transport: &dyn Transport,
    min_acks: usize,
    seq: u64,
    message: NetMessage,
    report: &mut PipelineReport,
    obs: &PipelineObs,
    jitter: &mut SimRng,
) {
    if min_acks == 0 {
        obs.publish_attempts.inc();
        transport.publish(message);
        return;
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        obs.publish_attempts.inc();
        if transport.publish(message.clone()) >= min_acks {
            return;
        }
        if attempts > MAX_RETRIES {
            obs.dead_letters.inc();
            report.dead_letters.push(DeadLetter {
                seq,
                attempts,
                message,
            });
            return;
        }
        obs.publish_retries.inc();
        let backoff = backoff_for(attempts, jitter);
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
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut jitter = SimRng::new(seed);
            (1..=10)
                .map(|retry| backoff_for(retry, &mut jitter))
                .collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed, same schedule");
        assert_ne!(a, schedule(43), "the seed moves the jitter");
        for (i, delay) in a.iter().enumerate() {
            // Pre-jitter base: 1 ms doubled per retry, capped at 64 ms.
            let base = Duration::from_millis(1u64 << i.min(6));
            assert!(
                *delay >= base / 2 && *delay < base,
                "retry {}: {delay:?} outside [{:?}, {:?})",
                i + 1,
                base / 2,
                base
            );
        }
        // The capped tail can never exceed the cap...
        assert!(a.iter().all(|d| *d < MAX_BACKOFF));
        // ...and the early schedule genuinely grows: every pre-cap delay
        // reaches the previous retry's jitter ceiling.
        for (i, pair) in a[..7].windows(2).enumerate() {
            assert!(pair[1] >= Duration::from_millis(1 << i), "retry {}", i + 2);
        }
    }

    #[test]
    fn zero_retry_shift_saturates() {
        let mut jitter = SimRng::new(0);
        // A huge retry number must cap, not overflow the shift.
        let delay = backoff_for(u32::MAX, &mut jitter);
        assert!(delay >= MAX_BACKOFF / 2 && delay < MAX_BACKOFF);
    }
}
