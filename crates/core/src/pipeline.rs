//! The pipelined certification engine.
//!
//! The paper's Fig. 2 runtime loop — sync → enclave-certify → broadcast —
//! is staged, and only the middle stage needs the enclave. [`CertPipeline`]
//! runs the steps the sequential [`CertificateIssuer`] runs inline (the
//! crate's `engine` module) on two threads, so block *i+1* is executed and
//! proven while block *i* is inside the enclave:
//!
//! 1. **The caller's thread sequences.** [`CertPipeline::submit`] runs
//!    `engine::sequence` on the CI's `FullNode`, behind one lock, exactly
//!    as the inline CI does — check linkage, execute once
//!    (`comp_data_set`), prove against the state executed on
//!    (`get_update_proof`), `FullNode::advance` — keeps the job's undo
//!    until the job is certified, and queues the job on one bounded
//!    channel under the same lock, so the queue is in chain order and a
//!    slow enclave throttles submission.
//! 2. **One issuer thread issues and publishes.** It owns the CI's issuer
//!    for the pipeline's lifetime, so ECalls stay serialized, and sets
//!    each request's recursive `prev_cert`, which exists only once the
//!    previous certificate has been issued. It broadcasts each certificate
//!    once on the [`Transport`] (a [`Gossip`](crate::network::Gossip) bus,
//!    or a [`CertArchive`](crate::network::CertArchive) over a
//!    [`SimNet`](crate::netsim::SimNet)) as soon as it is issued, records
//!    one that reached no subscriber as a [`DeadLetter`] — never retried:
//!    the client's resync from the archive brings it back — and builds the
//!    [`PipelineReport`].
//!
//! The certificates are **byte-identical** to sequential issuance:
//! `tests/pipeline_equivalence.rs` proves it over arbitrary mixed
//! workloads, and `tests/golden_vectors.rs` pins both against the bytes
//! issued before the two shared any code. [`CertPipeline::shutdown`]
//! drains the queue and hands back the [`CertificateIssuer`], its view
//! rewound (`engine::rewind`, newest job first) to the last certified
//! block, so sequential certification (or another pipeline) continues
//! where this one stopped.

// SP-side orchestration: the spawn, sends and locks here operate on
// SP-owned state, never on attacker-supplied bytes. A poisoned lock or
// failed spawn is a deployment fault, not a protocol input.
#![allow(clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dcert_chain::{Block, FullNode};
use dcert_obs::{Buckets, Counter, Histogram, Registry};
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

/// How many proven jobs may wait for the issuer thread: a bound on memory,
/// since each holds its proofs (and `submit` its undo).
const QUEUE_DEPTH: usize = 8;

/// Tuning knobs for [`CertPipeline::spawn`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Read by nothing: `submit` proves every job itself. Kept for
    /// `benchmark/driver`, which sets it; leaves at ROADMAP item 4(c).
    pub preparers: usize,
    /// Read by nothing; see [`ParallelismConfig`].
    pub parallelism: ParallelismConfig,
    /// Metrics registry the pipeline records into (`pipeline.*`). Defaults
    /// to a disabled registry — recording is then a no-op and nothing is
    /// exported; `tests/pipeline_equivalence.rs` pins that instrumenting
    /// changes no certificate bytes either way.
    pub obs: Registry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            preparers: 4,
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

/// Metric handles for the pipeline cost center (`pipeline.*`). Recording
/// through them is lock-free; against a disabled registry it is a no-op.
#[derive(Clone)]
struct PipelineObs {
    /// Per-stage wall-clock latency (suffix `_ns`: stripped from replay
    /// comparisons). `sequence_ns` is `submit`'s whole job; `prepare_ns`
    /// the proof generation within it.
    sequence_ns: Histogram,
    prepare_ns: Histogram,
    issue_ns: Histogram,
    publish_ns: Histogram,
    /// Blocks per sequenced job (1 except for `CertJob::Batch`).
    batch_blocks: Histogram,
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
            jobs: registry.counter("pipeline.jobs"),
            block_certs: registry.counter("pipeline.block_certs"),
            index_certs: registry.counter("pipeline.index_certs"),
            errors: registry.counter("pipeline.errors"),
            dead_letters: registry.counter("pipeline.publish.dead_letters"),
        }
    }
}

/// What `submit` holds its lock over: the CI's chain view and the one
/// channel into the issuer thread.
struct Sequencer {
    node: FullNode,
    /// The undo of each job not known to be certified, by sequence
    /// number, newest last.
    pending: Vec<(u64, Undo)>,
    /// The next job's sequence number.
    next: u64,
    jobs: SyncSender<Prepared>,
}

/// One sequenced job: proven and ready to cross, with its `rw_set_gen` and
/// `proof_gen` (the issuer adds the enclave's share), or why it failed.
struct Prepared {
    seq: u64,
    job: Result<(PreparedJob, CertBreakdown), CertError>,
}

/// The issuer thread. Dropping it joins the thread, which ends once the
/// channel is closed and every job already sent is issued and published.
struct IssuerThread(Option<JoinHandle<(Issuer, PipelineReport)>>);

impl IssuerThread {
    /// Joins the thread: what it hands back, or its panic re-raised when
    /// `propagate` is set (and `None` otherwise).
    fn join(&mut self, propagate: bool) -> Option<(Issuer, PipelineReport)> {
        match self.0.take()?.join() {
            Ok(done) => Some(done),
            Err(panic) if propagate => std::panic::resume_unwind(panic),
            Err(_) => None,
        }
    }
}

impl Drop for IssuerThread {
    /// A pipeline dropped without `shutdown` still drains its queue; only
    /// the reassembled CI and the report are lost.
    fn drop(&mut self) {
        self.join(false);
    }
}

/// The pipelined certification engine (see the module docs). Jobs are
/// certified, and their certificates published, in submission order. A
/// failed job is reported in the [`PipelineReport`] and does not advance
/// the certificate chain (later jobs that depended on it fail too — the
/// enclave is the authority).
pub struct CertPipeline {
    /// Declared before `issuer`: dropping it closes the channel, which
    /// ends the thread that dropping `issuer` joins.
    sequencer: Mutex<Sequencer>,
    issuer: IssuerThread,
    /// One past the last job certified: no job below it is ever undone.
    certified: Arc<AtomicU64>,
    /// Shared handle onto the enclave the issuer thread drives, so the
    /// host can seal its state while the pipeline runs (crash drills,
    /// periodic checkpointing).
    enclave: Arc<Enclave<CertProgram>>,
    /// Crash switch: once set, `submit` refuses every job and the issuer
    /// thread abandons the jobs still queued.
    poison: Arc<AtomicBool>,
    obs: PipelineObs,
}

impl CertPipeline {
    /// Starts the issuer thread around `ci`'s enclave, moving the issuer
    /// onto it and keeping the chain view for `submit`. Certificates are
    /// broadcast on `transport` as they are issued.
    pub fn spawn(
        ci: CertificateIssuer,
        config: PipelineConfig,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let CertificateIssuer { node, issuer } = ci;
        let enclave = issuer.attested.enclave.clone();
        let poison = Arc::new(AtomicBool::new(false));
        let certified = Arc::new(AtomicU64::new(0));
        let obs = PipelineObs::register(&config.obs);
        let (jobs, prepared) = sync_channel(QUEUE_DEPTH);
        let (done, killed, thread_obs) = (certified.clone(), poison.clone(), obs.clone());
        let handle = thread::Builder::new()
            .name("dcert-issuer".into())
            .spawn(move || issuer_loop(prepared, issuer, transport, &done, &killed, &thread_obs))
            .expect("spawn issuer");
        CertPipeline {
            sequencer: Mutex::new(Sequencer {
                node,
                pending: Vec::new(),
                next: 0,
                jobs,
            }),
            issuer: IssuerThread(Some(handle)),
            certified,
            enclave,
            poison,
            obs,
        }
    }

    /// Simulates a CI process crash (`kill -9`): from here on `submit`
    /// refuses every job with [`CertError::PipelineClosed`] and sequences
    /// nothing, and the issuer thread abandons the queued jobs; a job
    /// already in the enclave is issued and published. Unlike `shutdown`,
    /// which drains, `kill` aborts. Nothing in-enclave is rolled back (the
    /// signing watermark keeps every issued height), so recovery resumes
    /// from a sealed key ([`CertPipeline::seal_enclave_key`]) plus the last
    /// *published* certificate ([`CertificateIssuer::resume_on_platform`]),
    /// as `tests/crash_recovery.rs` drills. `shutdown` then hands back the
    /// CI at the last certified block.
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

    /// Sequences `job` on the calling thread and queues it for the issuer
    /// thread. Blocks while the queue is full — this is the backpressure
    /// that keeps a fast block producer from outrunning the enclave.
    ///
    /// # Errors
    ///
    /// [`CertError::PipelineClosed`], with nothing sequenced, once the
    /// pipeline is killed; also if the issuer thread has died.
    pub fn submit(&self, job: CertJob) -> Result<(), CertError> {
        let sequencer = &mut *self.sequencer.lock().expect("a submit panicked");
        if self.poison.load(Ordering::SeqCst) {
            return Err(CertError::PipelineClosed);
        }
        let seq = sequencer.next;
        sequencer.next += 1;
        let done = self.certified.load(Ordering::SeqCst);
        sequencer.pending.retain(|(job_seq, _)| *job_seq >= done);
        let mut breakdown = CertBreakdown::default();
        let (sequenced, took) = timed(|| sequence(&mut sequencer.node, job, &mut breakdown));
        self.obs.sequence_ns.record(took);
        let job = sequenced.map(|(job, undo)| {
            self.obs.prepare_ns.record(breakdown.proof_gen);
            self.obs.batch_blocks.observe(undo.len() as u64);
            sequencer.pending.push((seq, undo));
            (job, breakdown)
        });
        let sent = sequencer.jobs.send(Prepared { seq, job });
        sent.map_err(|_| CertError::PipelineClosed)
    }

    /// Closes submission, drains every queued job through the issuer
    /// thread, and returns the reassembled [`CertificateIssuer`] —
    /// positioned at the last successfully certified block — plus the
    /// run's report.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the issuer thread (none is expected; a
    /// rejected block is an error, not a panic).
    pub fn shutdown(mut self) -> (CertificateIssuer, PipelineReport) {
        let mut sequencer = self.sequencer.into_inner().expect("a submit panicked");
        // Closing the channel ends the issuer thread once it has drained it.
        drop(sequencer.jobs);
        let (issuer, report) = self.issuer.join(true).expect("joined once");
        // Rewind, newest first, every job after the last certified one.
        let done = self.certified.load(Ordering::SeqCst);
        sequencer.pending.retain(|(seq, _)| *seq >= done);
        for (_, undo) in sequencer.pending.into_iter().rev() {
            rewind(&mut sequencer.node, undo);
        }
        let node = sequencer.node;
        (CertificateIssuer { node, issuer }, report)
    }
}

/// The issuer thread: issues each prepared job in chain order, then
/// publishes its certificates. The certificate chains and the tip handed
/// back at shutdown advance only if the whole job succeeded — matching the
/// inline driver, which rewinds a refused job at once.
fn issuer_loop(
    prepared: Receiver<Prepared>,
    mut issuer: Issuer,
    transport: Arc<dyn Transport>,
    certified: &AtomicU64,
    poison: &AtomicBool,
    obs: &PipelineObs,
) -> (Issuer, PipelineReport) {
    let mut report = PipelineReport::default();
    for Prepared { seq, job } in prepared {
        if poison.load(Ordering::SeqCst) {
            break;
        }
        report.jobs += 1;
        obs.jobs.inc();
        let (issued, took) = timed(|| {
            job.and_then(|(job, mut breakdown)| {
                let issued = issuer.issue(job, &mut breakdown)?;
                issuer.commit(&issued);
                Ok((issued, breakdown))
            })
        });
        obs.issue_ns.record(took);
        let (issued, breakdown) = match issued {
            Ok(issued) => issued,
            Err(error) => {
                obs.errors.inc();
                report.errors.push((seq, error));
                continue;
            }
        };
        certified.fetch_max(seq + 1, Ordering::SeqCst);
        let ((), took) = timed(|| {
            for message in issued.into_messages() {
                let height = message.height().unwrap_or_default();
                if matches!(message, NetMessage::IndexCert { .. }) {
                    report.index_certs += 1;
                    obs.index_certs.inc();
                } else {
                    report.block_certs += 1;
                    obs.block_certs.inc();
                }
                // Once, whatever the outcome: the archive keeps the
                // certificate for a client's resync.
                if transport.publish(message) == 0 {
                    obs.dead_letters.inc();
                    report.dead_letters.push(DeadLetter { seq, height });
                }
            }
        });
        obs.publish_ns.record(took);
        report.breakdowns.push(breakdown);
    }
    (issuer, report)
}
