//! Reporting times at a reference speed.
//!
//! The sandbox this benchmark runs in does identical work at speeds that
//! drift by tens of percent over seconds (one block's journey read
//! anywhere from 21 to 30 ms across twelve identical runs), which would
//! bury any change under noise. So the driver runs a small fixed
//! *reference kernel* beside the work it times — SHA-256 and signature
//! checks from the benchmark's own stand-in crates, called directly, code
//! no product change can touch — and scales each raw duration by
//! `REFERENCE_NS / kernel time measured around it`. Reported times are
//! therefore "at reference speed": on those twelve runs the paced median
//! journey stayed within 3 %. The raw figures and the machine's mean
//! speed are reported beside them (`pace.*`).

use sha2::{Digest, Sha256};

use crate::trace::Clock;

/// The kernel's duration on the reference machine when it is quiet; the
/// speed every paced time is expressed at.
pub const REFERENCE_NS: f64 = 500_000.0;

const HASHED_BYTES: usize = 64 << 10;
const SIGNATURE_CHECKS: usize = 4;

/// The reference kernel: SHA-256 over 64 KiB plus four signature checks,
/// roughly the instruction mix of a block's journey.
struct Kernel {
    buffer: Vec<u8>,
    // dcert-lint: allow(r1-enclave-secrecy, reason = "the reference kernel calls the stand-in directly so no product change can alter it; a fixed test key")
    public: ed25519_dalek::VerifyingKey,
    message: [u8; 32],
    // dcert-lint: allow(r1-enclave-secrecy, reason = "the reference kernel calls the stand-in directly so no product change can alter it; a fixed test key")
    signature: ed25519_dalek::Signature,
}

impl Kernel {
    fn new() -> Self {
        // dcert-lint: allow(r1-enclave-secrecy, reason = "the reference kernel calls the stand-in directly so no product change can alter it; a fixed test key")
        use ed25519_dalek::{Signer, SigningKey};
        let key = SigningKey::from_bytes(&[0x9a; 32]);
        let message = [0x3c; 32];
        Kernel {
            buffer: vec![0xa5; HASHED_BYTES],
            public: key.verifying_key(),
            signature: key.sign(&message),
            message,
        }
    }

    /// Runs the kernel once (uncounted: it is not the system's work) and
    /// returns how long it took.
    fn beat(&self, clock: &Clock) -> u64 {
        // dcert-lint: allow(r1-enclave-secrecy, reason = "the reference kernel calls the stand-in directly so no product change can alter it; a fixed test key")
        use ed25519_dalek::Verifier;
        let counting = sha2::work::enabled();
        sha2::work::set_enabled(false);
        let started = clock.now_ns();
        std::hint::black_box(Sha256::digest(std::hint::black_box(&self.buffer)));
        for _ in 0..SIGNATURE_CHECKS {
            let verdict = self
                .public
                .verify(std::hint::black_box(&self.message), &self.signature);
            std::hint::black_box(verdict.is_ok());
        }
        let took = clock.now_ns() - started;
        sha2::work::set_enabled(counting);
        took.max(1)
    }
}

/// Collects raw durations in segments, each bracketed by two kernel
/// beats, and scales a segment's durations by the speed those beats saw.
/// Samples go into numbered channels (one per metric that shares the
/// beats).
pub struct Paced {
    kernel: Kernel,
    clock: Clock,
    opening_beat: u64,
    /// `(channel, raw ns)` of the open segment.
    pending: Vec<(usize, u64)>,
    channels: Vec<Channel>,
    /// Scale factor of every closed segment, by segment index.
    factors: Vec<f64>,
    /// `(when, kernel ns)` of every beat.
    beats: Vec<(u64, u64)>,
}

#[derive(Default, Clone)]
struct Channel {
    paced: Vec<f64>,
    raw: Vec<u64>,
}

impl Paced {
    pub fn start(clock: Clock, channels: usize) -> Self {
        let kernel = Kernel::new();
        kernel.beat(&clock); // warm the kernel's own code and data
        let opening_beat = kernel.beat(&clock);
        Paced {
            kernel,
            clock,
            opening_beat,
            pending: Vec::new(),
            channels: vec![Channel::default(); channels],
            factors: Vec::new(),
            beats: vec![(clock.now_ns(), opening_beat)],
        }
    }

    /// Adds one raw duration to `channel` in the open segment.
    pub fn sample(&mut self, channel: usize, raw_ns: u64) {
        self.pending.push((channel, raw_ns));
    }

    /// Index of the open segment.
    pub fn segment(&self) -> usize {
        self.factors.len()
    }

    /// Closes the open segment with a kernel beat and opens the next.
    pub fn beat(&mut self) {
        let closing_beat = self.kernel.beat(&self.clock);
        self.beats.push((self.clock.now_ns(), closing_beat));
        let kernel_ns = (self.opening_beat + closing_beat) as f64 / 2.0;
        let factor = REFERENCE_NS / kernel_ns;
        for (channel, raw) in self.pending.drain(..) {
            if let Some(channel) = self.channels.get_mut(channel) {
                channel.raw.push(raw);
                channel.paced.push(raw as f64 * factor);
            }
        }
        self.factors.push(factor);
        self.opening_beat = closing_beat;
    }

    /// Scale factor of a closed segment (1 for one still open).
    pub fn factor(&self, segment: usize) -> f64 {
        self.factors.get(segment).copied().unwrap_or(1.0)
    }

    /// Paced durations of `channel`, ns at reference speed, in order.
    pub fn paced(&self, channel: usize) -> &[f64] {
        self.channels.get(channel).map_or(&[], |c| &c.paced)
    }

    /// The same samples as measured.
    pub fn raw(&self, channel: usize) -> &[u64] {
        self.channels.get(channel).map_or(&[], |c| &c.raw)
    }

    /// Mean machine speed over the run, in percent of the reference
    /// (above 100 = faster than the reference machine).
    pub fn speed_pct(&self) -> f64 {
        let mean =
            self.beats.iter().map(|(_, ns)| *ns).sum::<u64>() as f64 / self.beats.len() as f64;
        100.0 * REFERENCE_NS / mean
    }

    pub fn beats(&self) -> &[(u64, u64)] {
        &self.beats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_scaled_by_the_beats_around_their_segment() {
        let mut paced = Paced::start(Clock::start(), 2);
        paced.sample(0, 1_000);
        paced.sample(1, 4_000);
        assert_eq!(paced.segment(), 0);
        paced.beat();
        paced.sample(0, 2_000);
        paced.beat();
        assert_eq!(paced.segment(), 2);

        assert_eq!(paced.raw(0), &[1_000, 2_000]);
        assert_eq!(paced.raw(1), &[4_000]);
        let (f0, f1) = (paced.factor(0), paced.factor(1));
        assert!(f0 > 0.0 && f1 > 0.0);
        assert_eq!(paced.paced(0), &[1_000.0 * f0, 2_000.0 * f1]);
        assert_eq!(paced.paced(1), &[4_000.0 * f0]);
        assert_eq!(paced.factor(7), 1.0, "an open segment is not scaled");
        assert_eq!(paced.beats().len(), 3);
        assert!(paced.speed_pct() > 0.0);
    }

    #[test]
    fn the_kernel_is_not_counted_as_work() {
        // Not the switch test: counting stays off here, so the counters
        // other tests rely on are untouched either way.
        let kernel = Kernel::new();
        let before = sha2::work::sha256_blocks();
        kernel.beat(&Clock::start());
        assert_eq!(sha2::work::sha256_blocks(), before);
    }
}
