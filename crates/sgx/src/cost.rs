//! The enclave cost model.
//!
//! Real SGX charges three distinct overheads that the paper's design works
//! around (Section 2.2): (1) ECall/OCall transitions flush and reload
//! execution context (measured at thousands of cycles by HotCalls,
//! SGX-perf, and EActors); (2) data crossing the boundary is copied and
//! transparently encrypted into EPC pages; (3) exceeding the ~93 MB usable
//! EPC triggers kernel paging with per-page encryption, an order of
//! magnitude slower. [`CostModel`] charges each as busy-waited wall-clock
//! time so that simulated experiments show the same *shape* of enclave
//! overhead the paper measures.
//!
//! This module is the workspace's one clock: [`timed`], [`timed_into`]
//! and [`spin`] read [`Instant`], which `clippy.toml` bans everywhere else
//! but in two test hang guards.

#![allow(clippy::disallowed_types, reason = "the workspace's one clock")]

use std::time::{Duration, Instant};

use dcert_obs::Histogram;

/// Wall-clock charges applied by the simulated enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of one ECall/OCall boundary crossing, nanoseconds.
    pub transition_ns: u64,
    /// Per-byte cost of marshalling data into/out of the enclave
    /// (copy + EPC encryption + MEE integrity traffic), nanoseconds.
    pub per_byte_ns: u64,
    /// Usable EPC budget in bytes (93 MB on the paper's hardware).
    pub epc_budget_bytes: usize,
    /// Per-byte penalty for data paged beyond the EPC budget, nanoseconds.
    pub paging_per_byte_ns: u64,
    /// Extra execution time charged on trusted compute, in percent —
    /// models the measured slowdown of memory accesses inside EPC
    /// (Memory Encryption Engine on every cache-line fill). SGX-perf and
    /// HotCalls report 1.2–2× for memory-bound enclave code.
    pub in_enclave_slowdown_pct: u32,
}

impl CostModel {
    /// A model calibrated to published SGX measurements: ≈4 μs per
    /// transition round trip, ≈10 ns/byte of boundary marshalling
    /// (copy + encryption + integrity tree), a 30 % in-EPC execution
    /// slowdown, 93 MB of usable EPC, and a further 20 ns/byte paging
    /// penalty beyond it.
    pub fn calibrated() -> Self {
        CostModel {
            transition_ns: 4_000,
            per_byte_ns: 10,
            epc_budget_bytes: 93 * 1024 * 1024,
            paging_per_byte_ns: 20,
            in_enclave_slowdown_pct: 30,
        }
    }

    /// An ARM TrustZone-flavoured model (Section 6 of the paper notes
    /// DCert can run on other TEEs): world switches via SMC are cheaper
    /// than SGX transitions, and most SoCs do not encrypt secure-world
    /// memory, so there is no per-byte or paging charge — but also weaker
    /// physical protection.
    pub fn trustzone() -> Self {
        CostModel {
            transition_ns: 1_500,
            per_byte_ns: 1,
            epc_budget_bytes: usize::MAX,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 3,
        }
    }

    /// An AMD SEV-SNP-flavoured model: VM-level isolation means expensive
    /// VMEXIT-based transitions but full-memory encryption with a mild
    /// uniform slowdown and no SGX-style EPC ceiling.
    pub fn sev_snp() -> Self {
        CostModel {
            transition_ns: 9_000,
            per_byte_ns: 2,
            epc_budget_bytes: usize::MAX,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 8,
        }
    }

    /// A free model: no simulated overhead (unit tests, logic-only runs).
    pub fn zero() -> Self {
        CostModel {
            transition_ns: 0,
            per_byte_ns: 0,
            epc_budget_bytes: usize::MAX,
            paging_per_byte_ns: 0,
            in_enclave_slowdown_pct: 0,
        }
    }

    /// The simulated extra charge for `trusted` seconds of in-enclave
    /// execution.
    pub fn slowdown_cost(&self, trusted: Duration) -> Duration {
        trusted.mul_f64(self.in_enclave_slowdown_pct as f64 / 100.0)
    }

    /// The simulated charge for one boundary crossing moving `bytes` into
    /// an enclave whose EPC already holds `resident_bytes`.
    ///
    /// `resident_bytes` is what the EPC holds when the crossing starts
    /// ([`crate::Enclave::ecall`] passes what the trusted program retains
    /// between calls): it is advanced by `bytes`, and every byte landing
    /// beyond `epc_budget_bytes` is charged the paging penalty on top of
    /// the marshalling cost, split correctly for a crossing that
    /// straddles the budget. So a program that retains more pages sooner,
    /// and a crossing larger than the budget pages on its own.
    pub fn charge_crossing(&self, bytes: usize, resident_bytes: &mut u64) -> CrossingCharge {
        let bytes = bytes as u64;
        let budget = u64::try_from(self.epc_budget_bytes).unwrap_or(u64::MAX);
        let headroom = budget.saturating_sub(*resident_bytes);
        let in_budget = bytes.min(headroom);
        let paged = bytes - in_budget;
        *resident_bytes = resident_bytes.saturating_add(bytes);
        let cost = Duration::from_nanos(
            self.transition_ns
                .saturating_add(in_budget.saturating_mul(self.per_byte_ns))
                .saturating_add(
                    paged.saturating_mul(self.per_byte_ns.saturating_add(self.paging_per_byte_ns)),
                ),
        );
        CrossingCharge {
            cost,
            paged_bytes: paged,
        }
    }
}

/// What one boundary crossing cost, from [`CostModel::charge_crossing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossingCharge {
    /// The simulated wall-clock charge (transition + marshalling + paging).
    pub cost: Duration,
    /// Bytes of this crossing that landed beyond the EPC budget and were
    /// charged the paging penalty.
    pub paged_bytes: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

/// Runs `f` and returns its result together with the wall-clock time it
/// took.
///
/// This is the single sanctioned clock access: callers measure a closure
/// instead of holding an ambient [`Instant`] themselves, which
/// `clippy.toml` refuses them.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Runs `f`, recording the wall-clock time it took into `timer` — and
/// reading the clock only when the timer records somewhere: under an inert
/// handle (a disabled registry's) this is `f` alone.
pub fn timed_into<T>(timer: &Histogram, f: impl FnOnce() -> T) -> T {
    if !timer.is_live() {
        return f();
    }
    let (value, took) = timed(f);
    timer.record(took);
    value
}

/// Busy-waits for `duration` (sleep has millisecond-scale jitter; enclave
/// transitions are microsecond-scale, so spinning is the only way to charge
/// them accurately).
pub fn spin(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        let model = CostModel::zero();
        assert_eq!(
            model.charge_crossing(1_000_000, &mut 0).cost,
            Duration::ZERO
        );
    }

    #[test]
    fn crossing_cost_scales_with_bytes() {
        let model = CostModel {
            transition_ns: 100,
            per_byte_ns: 2,
            epc_budget_bytes: 1000,
            paging_per_byte_ns: 10,
            in_enclave_slowdown_pct: 0,
        };
        // One crossing into an empty EPC.
        let cost = |bytes| model.charge_crossing(bytes, &mut 0).cost;
        assert_eq!(cost(0), Duration::from_nanos(100));
        assert_eq!(cost(10), Duration::from_nanos(120));
        // 1500 bytes: 1000 in budget (2 ns), 500 paged (12 ns).
        assert_eq!(cost(1500), Duration::from_nanos(100 + 2000 + 500 * 12));
    }

    #[test]
    fn cumulative_residency_triggers_paging_where_per_crossing_never_could() {
        let model = CostModel {
            transition_ns: 0,
            per_byte_ns: 1,
            epc_budget_bytes: 1000,
            paging_per_byte_ns: 10,
            in_enclave_slowdown_pct: 0,
        };
        // Into an empty EPC, 100-byte payloads are far below the
        // 1000-byte budget, so paging never fires no matter how many
        // crossings happen.
        for _ in 0..20 {
            assert_eq!(
                model.charge_crossing(100, &mut 0).cost,
                Duration::from_nanos(100)
            );
        }
        // Into an EPC that keeps what crossed, the same 20 crossings fill
        // it after 10 and page thereafter.
        let mut resident = 0u64;
        let mut paged_total = 0u64;
        let mut cost_total = Duration::ZERO;
        for _ in 0..20 {
            let charge = model.charge_crossing(100, &mut resident);
            paged_total += charge.paged_bytes;
            cost_total += charge.cost;
        }
        assert_eq!(resident, 2000);
        assert_eq!(paged_total, 1000, "bytes 1001..=2000 must page");
        // 2000 bytes marshalled at 1 ns + 1000 paged bytes at 10 ns.
        assert_eq!(cost_total, Duration::from_nanos(2000 + 10_000));
    }

    #[test]
    fn straddling_crossing_splits_the_paging_charge() {
        let model = CostModel {
            transition_ns: 7,
            per_byte_ns: 2,
            epc_budget_bytes: 1000,
            paging_per_byte_ns: 10,
            in_enclave_slowdown_pct: 0,
        };
        let mut resident = 900u64;
        let charge = model.charge_crossing(300, &mut resident);
        assert_eq!(resident, 1200);
        assert_eq!(charge.paged_bytes, 200);
        // 100 bytes in budget at 2 ns, 200 paged at 12 ns, 7 ns transition.
        assert_eq!(charge.cost, Duration::from_nanos(7 + 200 + 2400));
        // The same crossing into an empty EPC pages nothing.
        assert_eq!(
            model.charge_crossing(300, &mut 0).cost,
            Duration::from_nanos(7 + 600)
        );
    }

    #[test]
    fn unbounded_epc_models_never_page_cumulatively() {
        let model = CostModel::trustzone();
        let mut resident = 1u64 << 60; // absurdly large, realistic ceiling
        let charge = model.charge_crossing(100, &mut resident);
        assert_eq!(charge.paged_bytes, 0, "usize::MAX budget never pages");
        assert_eq!(resident, (1 << 60) + 100);
        // At the absolute numeric edge the residency saturates rather than
        // wrapping (the charge itself is then headroom-limited, which is
        // fine — nothing real gets within 2^63 bytes of it).
        let mut edge = u64::MAX - 10;
        model.charge_crossing(100, &mut edge);
        assert_eq!(edge, u64::MAX, "residency saturates, no overflow");
    }

    #[test]
    fn spin_waits_at_least_the_duration() {
        let start = Instant::now();
        spin(Duration::from_micros(200));
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn calibrated_defaults_are_sane() {
        let model = CostModel::calibrated();
        assert_eq!(model, CostModel::default());
        assert!(model.transition_ns >= 1_000, "transitions are μs-scale");
        assert_eq!(model.epc_budget_bytes, 93 * 1024 * 1024);
    }
}
