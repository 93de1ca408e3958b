//! `dcert-testkit` — the workspace's property runner, in the seed-replay
//! idiom every other suite here lives by (`CHAOS_SEED`, bit-for-bit replay).
//!
//! A property is a closure over a [`Gen`]: it draws its inputs and
//! `assert!`s. [`check`] runs it `cases` times; case `i` of property `name`
//! sees the same draws on every platform, a pure function of
//! `(fnv1a(name), i, size)`. A failing case is re-run at half the size
//! until it passes; the smallest failing size is reported with
//! `DCERT_PROP_REPLAY=<seed>:<case>`, which replays exactly that case.
//! `DCERT_PROP_CASES=<n>` overrides every property's case count. Those two
//! variables are the whole configuration.
//!
//! *Sized* draws — ranges, lengths, [`Gen::option`], [`Gen::one_of`] — land
//! in the lowest `size / FULL_SIZE` of their span: shorter collections,
//! numbers nearer their lower bound, earlier alternatives. [`Gen::any`]
//! is never sized.
//!
//! Beside the runner, [`smt_frames`] holds the first family of the verifier
//! mutation battery: format-aware forgeries of sparse-Merkle-tree proofs.

#![forbid(unsafe_code)]

pub mod smt_frames;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const CASES_VAR: &str = "DCERT_PROP_CASES";
const REPLAY_VAR: &str = "DCERT_PROP_REPLAY";

/// The size every case first runs at; shrinking halves it down to 0.
const FULL_SIZE: u32 = 64;

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One case's inputs: a SplitMix64 stream and the size scaling sized draws.
pub struct Gen {
    state: u64,
    size: u32,
}

impl Gen {
    /// A full-size stream of its own: what [`check`] hands each case, and
    /// what a seed matrix (`CHAOS_SEED`) draws a whole schedule from.
    pub fn from_seed(state: u64) -> Gen {
        let size = FULL_SIZE;
        Gen { state, size }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Any value of `T`, unsized.
    pub fn any<T: Arbitrary>(&mut self) -> T {
        T::arbitrary(self)
    }

    /// A sized draw from an unsigned `a..b` / `a..=b` or an `f64` `a..b`.
    /// Panics on an empty range: there is nothing to draw.
    pub fn range<T: Ranged>(&mut self, range: impl RangeBounds<T>) -> T {
        T::draw(self, range)
    }

    /// A vector whose length is a sized draw from `len`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// `Some(item)` half the time at full size, `None` below half size.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        (self.range(0u8..2) == 1).then(|| item(self))
    }

    /// One of `choices`, earlier ones at smaller sizes.
    pub fn one_of<T: Clone>(&mut self, choices: &[T]) -> T {
        choices[self.range(0..choices.len())].clone()
    }

    /// A map with a sized number of *distinct* keys, themselves drawn at
    /// full size so that the lower bound of `len` stays reachable.
    pub fn btree_map<K: Ord, V>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut key: impl FnMut(&mut Gen) -> K,
        mut value: impl FnMut(&mut Gen) -> V,
    ) -> BTreeMap<K, V> {
        let n = self.range(len);
        let mut map = BTreeMap::new();
        let mut attempts = 0;
        while map.len() < n {
            assert!(attempts < 32 * (n + 1), "no {n} distinct keys to draw");
            attempts += 1;
            let size = std::mem::replace(&mut self.size, FULL_SIZE);
            let k = key(self);
            self.size = size;
            map.insert(k, value(self));
        }
        map
    }

    /// A set with a sized number of distinct members ([`Gen::btree_map`]).
    pub fn btree_set<K: Ord>(
        &mut self,
        len: impl RangeBounds<usize>,
        member: impl FnMut(&mut Gen) -> K,
    ) -> BTreeSet<K> {
        self.btree_map(len, member, |_| ()).into_keys().collect()
    }
}

/// Types [`Gen::any`] can produce.
pub trait Arbitrary {
    fn arbitrary(g: &mut Gen) -> Self;
}

/// Types [`Gen::range`] can draw (and, for `usize`, collection lengths).
pub trait Ranged: Sized {
    fn draw(g: &mut Gen, range: impl RangeBounds<Self>) -> Self;
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(g: &mut Gen) -> $t {
                g.next_u64() as $t
            }
        }
        impl Ranged for $t {
            fn draw(g: &mut Gen, range: impl RangeBounds<$t>) -> $t {
                let lo = match range.start_bound() {
                    Bound::Included(&lo) => lo as u128,
                    Bound::Excluded(&below) => below as u128 + 1,
                    Bound::Unbounded => 0,
                };
                let end = match range.end_bound() {
                    Bound::Included(&hi) => hi as u128 + 1,
                    Bound::Excluded(&end) => end as u128,
                    Bound::Unbounded => <$t>::MAX as u128 + 1,
                };
                assert!(lo < end, "empty range {lo}..{end}");
                // The lowest `size / FULL_SIZE` of the span, at least `lo`.
                let span = ((end - lo) * u128::from(g.size) / u128::from(FULL_SIZE)).max(1);
                (lo + u128::from(g.next_u64()) % span) as $t
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(g: &mut Gen) -> bool {
        g.next_u64() >> 63 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(g: &mut Gen) -> [u8; N] {
        std::array::from_fn(|_| g.any())
    }
}

impl Ranged for f64 {
    fn draw(g: &mut Gen, range: impl RangeBounds<f64>) -> f64 {
        let (Bound::Included(&lo), Bound::Excluded(&end)) =
            (range.start_bound(), range.end_bound())
        else {
            panic!("f64 ranges are half-open: a..b");
        };
        assert!(lo < end, "empty range {lo}..{end}");
        let unit = (g.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let x = lo + unit * (end - lo) * f64::from(g.size) / f64::from(FULL_SIZE);
        x.min(end.next_down()) // half-open even when the sum rounds up
    }
}

/// Panic payload of [`reject`]; never reaches the panic hook.
struct Rejected;

/// Discards the current case (a precondition missed): it neither passes
/// nor fails, and another is drawn in its place.
pub fn reject() -> ! {
    resume_unwind(Box::new(Rejected))
}

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn attempt(prop: &impl Fn(&mut Gen), seed: u64, case: u64, size: u32) -> Outcome {
    let mut g = Gen::from_seed(mix(seed) ^ mix(!case));
    g.size = size;
    match catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
        Ok(()) => Outcome::Pass,
        Err(payload) if payload.is::<Rejected>() => Outcome::Reject,
        Err(payload) => Outcome::Fail(match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => (*payload.downcast_ref::<&str>().unwrap_or(&"<panic>")).to_owned(),
        }),
    }
}

/// FNV-1a: the default seed of a property is a function of its name.
fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn parse_replay(text: &str) -> Option<(u64, u64)> {
    let (seed, case) = text.split_once(':')?;
    Some((seed.parse().ok()?, case.parse().ok()?))
}

/// `(case, size, panic message)` at the smallest size that still fails.
type Failure = (u64, u32, String);

/// `cases` accepted cases from `first` on, or the first failure, shrunk.
fn run(seed: u64, first: u64, cases: u32, prop: &impl Fn(&mut Gen)) -> Result<(), Failure> {
    let (mut case, mut passed, mut rejected) = (first, 0, 0);
    while passed < cases {
        match attempt(prop, seed, case, FULL_SIZE) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejected += 1;
                assert!(rejected <= 16 * cases + 64, "{rejected} cases rejected");
            }
            Outcome::Fail(mut message) => {
                let mut size = FULL_SIZE;
                while size > 0 {
                    let Outcome::Fail(smaller) = attempt(prop, seed, case, size / 2) else {
                        break;
                    };
                    (size, message) = (size / 2, smaller);
                }
                return Err((case, size, message));
            }
        }
        case += 1;
    }
    Ok(())
}

fn report(name: &str, seed: u64, (case, size, message): &Failure) -> String {
    format!(
        "property `{name}` failed at (seed, case) = ({seed}, {case}), shrunk to size \
         {size}/{FULL_SIZE}\n  replay: {REPLAY_VAR}={seed}:{case} cargo test {name}\n  {message}"
    )
}

/// Reads `var`; a value `parse` refuses is a mistake worth stopping for.
fn env<T>(var: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let text = std::env::var(var).ok()?;
    Some(parse(&text).unwrap_or_else(|| panic!("{var}={text}: not understood")))
}

/// Runs `prop` on `cases` inputs; panics with how to replay a failure.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    let cases = env(CASES_VAR, |s| s.parse().ok()).unwrap_or(cases);
    let (seed, first, cases) = match env(REPLAY_VAR, parse_replay) {
        Some((seed, case)) => (seed, case, 1),
        None => (name_seed(name), 0, cases),
    };
    if let Err(failure) = run(seed, first, cases, &prop) {
        panic!("{}", report(name, seed, &failure));
    }
}

#[cfg(test)]
mod tests;
