//! The enclave container: trust boundary, measurement, ECall dispatch.

use std::time::Duration;

use dcert_primitives::hash::{hash_concat, Hash};
use dcert_primitives::keys::{Keypair, PublicKey, SecretBytes};
use parking_lot::Mutex;

use crate::attestation::Quote;
use crate::cost::{spin, timed, CostModel, CrossingCharge};
use crate::error::SgxError;
use crate::sealing::{self, SealedBlob};
use dcert_obs::{Buckets, Counter, Gauge, Histogram, Registry};

/// Domain tag for enclave measurements.
const MEASUREMENT_DOMAIN: u8 = 0x30;

/// A program loadable into an [`Enclave`].
///
/// The interface is deliberately byte-level: real ECalls marshal opaque
/// buffers across the boundary, and the cost model charges by byte, so
/// trusted programs must serialize their arguments (DCert's certificate
/// program uses the workspace codec).
///
/// Implementations hold the enclave's secrets (e.g. `sk_enc`); because the
/// only access path is [`Enclave::ecall`], those secrets never leave the
/// boundary.
pub trait TrustedApp: Send {
    /// The bytes measured as this program's code identity (in real SGX:
    /// the enclave image; here: a stable code/version string).
    fn code_identity(&self) -> &[u8];

    /// Handles one ECall. Input and output cross the enclave boundary and
    /// are charged by the cost model.
    fn call(&mut self, input: &[u8]) -> Vec<u8>;

    /// Bytes this program keeps in enclave memory between ECalls (its
    /// sealable state, memos, caches). With the crossing in flight, this
    /// is what the cost model charges against the EPC budget: a program
    /// that keeps nothing never pages unless one crossing alone outgrows
    /// the budget.
    fn retained_bytes(&self) -> u64;
}

/// A trusted program whose secret state can be sealed to disk and
/// restored on the same platform (the SGX sealing workflow; see
/// [`crate::sealing`]). Export/import never cross the enclave boundary in
/// the clear — [`Enclave::seal_state`] encrypts inside the boundary, and
/// the state is [`SecretBytes`], which cannot be printed or encoded.
pub trait Sealable {
    /// Serializes the secret state to seal.
    fn export_state(&self) -> SecretBytes;

    /// Restores previously exported state.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::BadSeal`] if the bytes are malformed.
    fn import_state(&mut self, state: &SecretBytes) -> Result<(), SgxError>;
}

/// Counters describing everything the enclave boundary has done —
/// the data behind the inside/outside breakdowns of Figures 8–10.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnclaveStats {
    /// Number of ECalls dispatched.
    pub ecalls: u64,
    /// Total bytes marshalled into the enclave.
    pub bytes_in: u64,
    /// Total bytes marshalled out of the enclave.
    pub bytes_out: u64,
    /// Bytes charged the EPC paging penalty: bytes of a crossing that,
    /// with what the program retains, lie beyond the cost model's
    /// `epc_budget_bytes`.
    pub paged_bytes: u64,
    /// Bytes of ECall request encoding served from a reused marshalling
    /// scratch buffer instead of a fresh allocation (see
    /// [`Enclave::note_marshal_reuse`]). Purely an attribution counter —
    /// it never feeds the cost model.
    pub marshal_reuse_bytes: u64,
    /// Simulated transition/marshalling overhead.
    pub overhead: Duration,
    /// Wall-clock time spent running trusted code.
    pub trusted_time: Duration,
}

/// Metric handles for the enclave cost center (see
/// [`Enclave::attach_obs`]). Registered once; every recording after that
/// is lock-free in the registry.
struct EnclaveObs {
    ecalls: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    paged_bytes: Counter,
    /// Deterministic simulated crossing charge (transition + marshalling +
    /// paging), in nanoseconds. Named `_nanos`, not `_ns`: the value is a
    /// pure function of the byte counts, so it must survive the
    /// wall-clock-stripped determinism comparison.
    sim_charge_nanos: Counter,
    /// Bytes of request encoding served from a reused marshalling scratch
    /// buffer. Deterministic: a pure function of the request-length
    /// sequence, so it participates in the determinism comparison.
    marshal_reuse_bytes: Counter,
    /// Full simulated overhead including the slowdown derived from the
    /// measured trusted time — wall-clock-tainted, hence `_ns`.
    overhead_ns: Counter,
    /// Wall-clock trusted execution time.
    trusted_time_ns: Counter,
    /// Peak EPC residency: the bytes the program retains plus the
    /// crossing in flight, at its highest so far.
    epc_resident_bytes: Gauge,
    crossing_bytes: Histogram,
}

impl EnclaveObs {
    fn register(registry: &Registry) -> Self {
        EnclaveObs {
            ecalls: registry.counter("enclave.ecalls"),
            bytes_in: registry.counter("enclave.bytes_in"),
            bytes_out: registry.counter("enclave.bytes_out"),
            paged_bytes: registry.counter("enclave.paged_bytes"),
            sim_charge_nanos: registry.counter("enclave.sim_charge_nanos"),
            marshal_reuse_bytes: registry.counter("enclave.marshal_reuse_bytes"),
            overhead_ns: registry.counter("enclave.overhead_ns"),
            trusted_time_ns: registry.counter("enclave.trusted_time_ns"),
            epc_resident_bytes: registry.gauge("enclave.epc_resident_bytes"),
            crossing_bytes: registry.histogram("enclave.crossing_bytes", Buckets::bytes()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record_ecall(
        &self,
        input_len: usize,
        output_len: usize,
        in_charge: CrossingCharge,
        out_charge: CrossingCharge,
        slowdown: Duration,
        trusted: Duration,
        resident_bytes: u64,
    ) {
        self.ecalls.inc();
        self.bytes_in.add(input_len as u64);
        self.bytes_out.add(output_len as u64);
        self.paged_bytes
            .add(in_charge.paged_bytes + out_charge.paged_bytes);
        self.crossing_bytes.observe(input_len as u64);
        self.crossing_bytes.observe(output_len as u64);
        self.sim_charge_nanos
            .add(saturating_nanos(in_charge.cost + out_charge.cost));
        self.overhead_ns.add(saturating_nanos(
            in_charge.cost + slowdown + out_charge.cost,
        ));
        self.trusted_time_ns.add(saturating_nanos(trusted));
        self.epc_resident_bytes
            .record_max(i64::try_from(resident_bytes).unwrap_or(i64::MAX));
    }
}

fn saturating_nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Everything behind the trust boundary: the trusted program plus the
/// boundary counters its ECalls update. One lock guards both so a
/// concurrent caller can never observe a call without its accounting.
struct Boundary<A> {
    app: A,
    stats: EnclaveStats,
    /// Peak EPC residency so far: what the program retained plus the
    /// crossing in flight (see [`Enclave::epc_resident_bytes`]).
    peak_resident_bytes: u64,
    obs: Option<EnclaveObs>,
}

/// A simulated SGX enclave hosting a [`TrustedApp`].
///
/// On launch the "CPU" measures the program
/// (`measurement = H(code_identity)`) and provisions a per-platform
/// attestation key; [`Enclave::quote`] signs
/// (measurement ‖ report-data) with it, to be validated by the
/// [`AttestationService`](crate::AttestationService).
///
/// The handle is shareable: [`Enclave::ecall`] takes `&self` and
/// serializes callers through an internal lock, mirroring a real
/// single-TCS enclave where hardware admits one logical ECall at a time.
/// Wrap the enclave in an `Arc` to drive it from several threads (the
/// certification pipeline does exactly this).
pub struct Enclave<A: TrustedApp> {
    boundary: Mutex<Boundary<A>>,
    measurement: Hash,
    platform: Keypair,
    /// Raw platform secret (the simulated fuse key) for sealing-key
    /// derivation; never exposed.
    platform_secret: SecretBytes,
    cost: CostModel,
}

impl<A: TrustedApp> std::fmt::Debug for Enclave<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("measurement", &self.measurement)
            .field("platform", &self.platform.public())
            .field("stats", &self.boundary.lock().stats)
            .finish()
    }
}

impl<A: TrustedApp> Enclave<A> {
    /// Loads `app` into a fresh enclave on the platform `seed` identifies.
    /// The seed stands in for the machine's fused identity: it derives the
    /// platform attestation key and the sealing key, so a blob sealed here
    /// restores ([`Enclave::restore`]) only with the same seed. Every
    /// caller names its platform; the host draws no ambient entropy.
    pub fn launch_with_platform_seed(app: A, cost: CostModel, seed: [u8; 32]) -> Self {
        let measurement = measure(app.code_identity());
        Enclave {
            boundary: Mutex::new(Boundary {
                app,
                stats: EnclaveStats::default(),
                peak_resident_bytes: 0,
                obs: None,
            }),
            measurement,
            platform: Keypair::from_seed(seed),
            platform_secret: SecretBytes::from(seed),
            cost,
        }
    }

    /// The enclave's measurement (`MRENCLAVE` analogue).
    pub fn measurement(&self) -> Hash {
        self.measurement
    }

    /// The platform attestation public key (registered with the IAS during
    /// provisioning).
    pub fn platform_key(&self) -> PublicKey {
        self.platform.public()
    }

    /// Boundary counters so far.
    pub fn stats(&self) -> EnclaveStats {
        self.boundary.lock().stats
    }

    /// Peak EPC residency over this enclave's life: the bytes the program
    /// retains ([`TrustedApp::retained_bytes`]) plus the one crossing in
    /// flight, the working set each paging charge is assessed against.
    /// Residency itself falls back once a crossing ends, so for a
    /// stateless program this peak stays one request wide however many
    /// ECalls it serves.
    pub fn epc_resident_bytes(&self) -> u64 {
        self.boundary.lock().peak_resident_bytes
    }

    /// Registers this enclave's cost-center metrics (`enclave.*`) in
    /// `registry` and records every subsequent ECall into them. Attaching
    /// a [`Registry::disabled`] registry is free and exports nothing.
    pub fn attach_obs(&self, registry: &Registry) {
        self.boundary.lock().obs = Some(EnclaveObs::register(registry));
    }

    /// The active cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Dispatches one ECall: charges the inbound crossing, runs the trusted
    /// program, charges the outbound crossing, and returns the output.
    ///
    /// Concurrent callers serialize on the boundary lock — the simulated
    /// crossing/slowdown costs are paid inside it, so throughput under
    /// contention degrades exactly like a single-TCS enclave.
    pub fn ecall(&self, input: &[u8]) -> Vec<u8> {
        let mut boundary = self.boundary.lock();
        // Residency is what the program retains plus the crossing in
        // flight; a crossing's bytes count only for that crossing.
        let mut resident_in = boundary.app.retained_bytes();
        let in_charge = self.cost.charge_crossing(input.len(), &mut resident_in);
        spin(in_charge.cost);
        let (output, trusted) = timed(|| boundary.app.call(input));
        // In-EPC execution slowdown (MEE on every cache-line fill).
        let slowdown = self.cost.slowdown_cost(trusted);
        spin(slowdown);
        let mut resident_out = boundary.app.retained_bytes();
        let out_charge = self.cost.charge_crossing(output.len(), &mut resident_out);
        spin(out_charge.cost);
        boundary.peak_resident_bytes = boundary
            .peak_resident_bytes
            .max(resident_in)
            .max(resident_out);

        boundary.stats.ecalls += 1;
        boundary.stats.bytes_in += input.len() as u64;
        boundary.stats.bytes_out += output.len() as u64;
        boundary.stats.paged_bytes += in_charge.paged_bytes + out_charge.paged_bytes;
        boundary.stats.overhead += in_charge.cost + slowdown + out_charge.cost;
        boundary.stats.trusted_time += trusted;
        if let Some(obs) = &boundary.obs {
            obs.record_ecall(
                input.len(),
                output.len(),
                in_charge,
                out_charge,
                slowdown,
                trusted,
                boundary.peak_resident_bytes,
            );
        }
        output
    }

    /// Records that `bytes` of ECall request encoding were written into a
    /// reused marshalling scratch buffer instead of a freshly allocated
    /// `Vec`. Callers (the certificate issuers) compute the figure from
    /// their own scratch high-water mark, so the count is a pure function
    /// of the request-length sequence — deterministic across runs and
    /// thread settings.
    pub fn note_marshal_reuse(&self, bytes: u64) {
        let mut boundary = self.boundary.lock();
        boundary.stats.marshal_reuse_bytes += bytes;
        if let Some(obs) = &boundary.obs {
            obs.marshal_reuse_bytes.add(bytes);
        }
    }

    /// Produces a quote binding `report_data` (e.g. `H(pk_enc)`) to this
    /// enclave's measurement, signed by the platform key.
    pub fn quote(&self, report_data: Hash) -> Quote {
        Quote::sign(&self.platform, self.measurement, report_data)
    }
}

impl<A: TrustedApp + Sealable> Enclave<A> {
    /// Seals the trusted program's secret state to this platform and
    /// measurement. The plaintext never leaves the boundary; the returned
    /// blob can be persisted by untrusted code.
    pub fn seal_state(&self) -> SealedBlob {
        sealing::seal(
            &self.platform_secret,
            &self.measurement,
            &self.boundary.lock().app.export_state(),
        )
    }

    /// Relaunches an enclave on the same platform (`platform_seed` must
    /// match the sealing enclave's) and restores the sealed state into a
    /// fresh `app`.
    ///
    /// # Errors
    ///
    /// [`SgxError::BadSeal`] if the blob was sealed by a different
    /// platform or measurement, or was tampered with.
    pub fn restore(
        mut app: A,
        cost: CostModel,
        platform_seed: [u8; 32],
        blob: &SealedBlob,
    ) -> Result<Self, SgxError> {
        let measurement = measure(app.code_identity());
        let state = sealing::unseal(&SecretBytes::from(platform_seed), &measurement, blob)?;
        app.import_state(&state)?;
        Ok(Self::launch_with_platform_seed(app, cost, platform_seed))
    }
}

/// The measurement function: `H(domain || code_identity)`.
pub fn measure(code_identity: &[u8]) -> Hash {
    hash_concat([std::slice::from_ref(&MEASUREMENT_DOMAIN), code_identity])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Launches `app` on a fixed test platform.
    fn launch<A: TrustedApp>(app: A, cost: CostModel) -> Enclave<A> {
        Enclave::launch_with_platform_seed(app, cost, [7; 32])
    }

    struct Secret {
        key: u8,
        calls: u32,
    }

    impl TrustedApp for Secret {
        fn code_identity(&self) -> &[u8] {
            b"secret-app-v1"
        }
        fn call(&mut self, input: &[u8]) -> Vec<u8> {
            self.calls += 1;
            // "Sign" by xoring with the secret — stands in for sk_enc use.
            input.iter().map(|b| b ^ self.key).collect()
        }
        fn retained_bytes(&self) -> u64 {
            0
        }
    }

    /// A program that keeps every request it is sent and echoes it back.
    struct Hoarder(Vec<u8>);

    impl TrustedApp for Hoarder {
        fn code_identity(&self) -> &[u8] {
            b"hoarder-v1"
        }
        fn call(&mut self, input: &[u8]) -> Vec<u8> {
            self.0.extend_from_slice(input);
            input.to_vec()
        }
        fn retained_bytes(&self) -> u64 {
            self.0.len() as u64
        }
    }

    #[test]
    fn measurement_depends_on_code_only() {
        let a = launch(Secret { key: 1, calls: 0 }, CostModel::zero());
        let b = launch(Secret { key: 9, calls: 0 }, CostModel::zero());
        // Same code identity → same measurement, regardless of data.
        assert_eq!(a.measurement(), b.measurement());
        assert_eq!(a.measurement(), measure(b"secret-app-v1"));
    }

    #[test]
    fn ecall_round_trip_and_stats() {
        let enclave = launch(
            Secret {
                key: 0xff,
                calls: 0,
            },
            CostModel::zero(),
        );
        let out = enclave.ecall(&[0x0f, 0xf0]);
        assert_eq!(out, vec![0xf0, 0x0f]);
        let stats = enclave.stats();
        assert_eq!(stats.ecalls, 1);
        assert_eq!(stats.bytes_in, 2);
        assert_eq!(stats.bytes_out, 2);
    }

    #[test]
    fn cost_model_charges_overhead() {
        let cost = CostModel {
            transition_ns: 200_000, // 0.2 ms, clearly measurable
            per_byte_ns: 0,
            epc_budget_bytes: usize::MAX,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 0,
        };
        let enclave = launch(Secret { key: 0, calls: 0 }, cost);
        let ((), elapsed) = timed(|| {
            enclave.ecall(b"x");
        });
        // Two crossings at 0.2 ms each.
        assert!(
            elapsed >= Duration::from_micros(400),
            "elapsed = {elapsed:?}"
        );
        assert!(enclave.stats().overhead >= Duration::from_micros(400));
    }

    #[test]
    fn distinct_enclaves_have_distinct_platform_keys() {
        let a = Enclave::launch_with_platform_seed(
            Secret { key: 0, calls: 0 },
            CostModel::zero(),
            [1; 32],
        );
        let b = Enclave::launch_with_platform_seed(
            Secret { key: 0, calls: 0 },
            CostModel::zero(),
            [2; 32],
        );
        assert_ne!(a.platform_key(), b.platform_key());
    }

    #[test]
    fn marshal_reuse_accumulates_in_stats_and_registry() {
        let enclave = launch(Secret { key: 0, calls: 0 }, CostModel::zero());
        let registry = dcert_obs::Registry::new();
        enclave.attach_obs(&registry);
        enclave.note_marshal_reuse(100);
        enclave.note_marshal_reuse(28);
        assert_eq!(enclave.stats().marshal_reuse_bytes, 128);
        assert_eq!(
            registry.snapshot().counter("enclave.marshal_reuse_bytes"),
            128
        );
        // Attribution only: the cost model never sees these bytes.
        assert_eq!(enclave.stats().ecalls, 0);
        assert_eq!(enclave.stats().bytes_in, 0);
    }

    #[test]
    fn repeated_small_ecalls_accumulate_epc_residency_and_page() {
        let cost = CostModel {
            transition_ns: 0,
            per_byte_ns: 0,
            epc_budget_bytes: 1000,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 0,
        };
        // A program that keeps nothing: each call crosses 100 bytes in +
        // 100 out (xor echo), and no number of them fills the EPC.
        let stateless = launch(Secret { key: 0, calls: 0 }, cost);
        for _ in 0..100 {
            stateless.ecall(&[0u8; 100]);
        }
        assert_eq!(stateless.epc_resident_bytes(), 100);
        assert_eq!(stateless.stats().paged_bytes, 0);
        // One crossing larger than the budget still pages, both ways.
        stateless.ecall(&[0u8; 1500]);
        assert_eq!(stateless.epc_resident_bytes(), 1500);
        assert_eq!(stateless.stats().paged_bytes, 1000);

        // A program that keeps what it is sent: residency accumulates.
        // Call i (from 0) crosses in against 100·i retained bytes and out
        // against 100·(i + 1), so only call 9's reply lands past the
        // budget.
        let hoarder = launch(Hoarder(Vec::new()), cost);
        for _ in 0..10 {
            hoarder.ecall(&[0u8; 100]);
        }
        assert_eq!(hoarder.epc_resident_bytes(), 1100);
        assert_eq!(hoarder.stats().paged_bytes, 100);
        // Residency keeps growing with what it retains: the next call
        // pages in full.
        hoarder.ecall(&[0u8; 100]);
        assert_eq!(hoarder.epc_resident_bytes(), 1200);
        assert_eq!(hoarder.stats().paged_bytes, 300, "fully beyond budget");
    }

    #[test]
    fn attached_registry_mirrors_boundary_accounting() {
        let cost = CostModel {
            transition_ns: 0,
            per_byte_ns: 0,
            epc_budget_bytes: 150,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 0,
        };
        let enclave = launch(Hoarder(Vec::new()), cost);
        let registry = dcert_obs::Registry::new();
        enclave.attach_obs(&registry);
        enclave.ecall(&[0u8; 100]);
        enclave.ecall(&[0u8; 100]);
        let snapshot = registry.snapshot();
        let stats = enclave.stats();
        assert_eq!(snapshot.counter("enclave.ecalls"), stats.ecalls);
        assert_eq!(snapshot.counter("enclave.bytes_in"), stats.bytes_in);
        assert_eq!(snapshot.counter("enclave.bytes_out"), stats.bytes_out);
        assert_eq!(snapshot.counter("enclave.paged_bytes"), stats.paged_bytes);
        assert!(stats.paged_bytes > 0, "budget of 150 must page by call 2");
        assert_eq!(
            snapshot.gauge("enclave.epc_resident_bytes"),
            i64::try_from(enclave.epc_resident_bytes()).unwrap()
        );
        let crossings = snapshot
            .histograms
            .get("enclave.crossing_bytes")
            .expect("histogram registered");
        assert_eq!(crossings.count, 4, "two calls, in + out each");
    }

    #[test]
    fn disabled_registry_keeps_enclave_behavior_and_exports_nothing() {
        let enclave = launch(
            Secret {
                key: 0xff,
                calls: 0,
            },
            CostModel::zero(),
        );
        let registry = dcert_obs::Registry::disabled();
        enclave.attach_obs(&registry);
        let out = enclave.ecall(&[0x0f, 0xf0]);
        assert_eq!(out, vec![0xf0, 0x0f]);
        assert_eq!(enclave.stats().ecalls, 1);
        assert_eq!(registry.snapshot(), dcert_obs::Snapshot::default());
    }

    #[test]
    fn concurrent_ecalls_serialize_and_account_exactly() {
        const THREADS: u64 = 8;
        const CALLS_PER_THREAD: u64 = 32;
        let enclave = Arc::new(launch(
            Secret {
                key: 0x55,
                calls: 0,
            },
            CostModel::zero(),
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let enclave = Arc::clone(&enclave);
                thread::spawn(move || {
                    for _ in 0..CALLS_PER_THREAD {
                        let out = enclave.ecall(&[0x00, 0xff]);
                        // Each call sees a consistent trusted program.
                        assert_eq!(out, vec![0x55, 0xaa]);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = enclave.stats();
        // No lost updates: every crossing is counted under the lock.
        assert_eq!(stats.ecalls, THREADS * CALLS_PER_THREAD);
        assert_eq!(stats.bytes_in, THREADS * CALLS_PER_THREAD * 2);
        assert_eq!(stats.bytes_out, THREADS * CALLS_PER_THREAD * 2);
    }
}
