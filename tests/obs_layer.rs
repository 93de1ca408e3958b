//! The observability layer's own contract, pinned through the public
//! facade: histogram bucket-edge semantics, get-or-create registration,
//! the replay-variant naming convention (`_ns`/`_depth` stripped,
//! `_nanos` kept), disabled-registry inertness, and same-seed snapshot
//! determinism for an instrumented end-to-end component run.

use dcert::core::{FaultConfig, NetMessage, Partition, SimNet, Transport};
use dcert::obs::{Buckets, Registry, Snapshot};

/// Bucket edges are inclusive upper bounds: a value equal to a bound
/// lands in that bound's bucket, one past the last bound overflows.
#[test]
fn histogram_bucket_edges_are_inclusive_upper_bounds() {
    let registry = Registry::new();
    let hist = registry.histogram("edges", Buckets::linear(10, 10, 3));
    for value in [10, 11, 30, 31, 9] {
        hist.observe(value);
    }
    let snap = registry.snapshot();
    let edges = &snap.histograms["edges"];
    assert_eq!(edges.count, 5);
    assert_eq!(edges.sum, 10 + 11 + 30 + 31 + 9);
    assert_eq!(edges.min, Some(9));
    assert_eq!(edges.max, Some(31));
    let buckets: Vec<(Option<u64>, u64)> = edges.buckets.iter().map(|b| (b.le, b.count)).collect();
    assert_eq!(
        buckets,
        vec![
            (Some(10), 2), // 9 and the boundary value 10
            (Some(20), 1), // 11
            (Some(30), 1), // the boundary value 30
            (None, 1),     // 31 overflows
        ]
    );
}

/// The preset bucket layouts cover their stated ranges.
#[test]
fn preset_buckets_cover_their_ranges() {
    // latency(): 1 µs doubling-by-4 up to the tens-of-seconds range.
    let latency = Buckets::latency();
    assert_eq!(latency.bounds().first(), Some(&1_000));
    assert!(*latency.bounds().last().expect("non-empty") >= 10_000_000_000);
    // bytes(): 64 B up to the hundreds-of-megabytes range.
    let bytes = Buckets::bytes();
    assert_eq!(bytes.bounds().first(), Some(&64));
    assert!(*bytes.bounds().last().expect("non-empty") >= 100_000_000);
    // exponential/linear generate strictly increasing bounds.
    for buckets in [latency, bytes, Buckets::exponential(3, 7, 9)] {
        assert!(buckets.bounds().windows(2).all(|w| w[0] < w[1]));
    }
}

/// Registration is get-or-create: handles to the same name share state,
/// and a histogram re-registered with different buckets keeps the
/// original layout instead of splitting the stream.
#[test]
fn registration_is_get_or_create() {
    let registry = Registry::new();
    registry.counter("shared").inc();
    registry.counter("shared").add(2);
    assert_eq!(registry.counter("shared").get(), 3);

    let first = registry.histogram("h", Buckets::from_bounds(vec![5, 50]));
    first.observe(7);
    let second = registry.histogram("h", Buckets::from_bounds(vec![999]));
    second.observe(8);
    let snap = registry.snapshot();
    let hist = &snap.histograms["h"];
    assert_eq!(hist.count, 2, "both handles fed one histogram");
    assert_eq!(
        hist.buckets.len(),
        3,
        "original bounds [5, 50] + overflow survive re-registration"
    );
}

/// The replay convention: `_ns` (wall-clock) and `_depth` (scheduling)
/// metrics are stripped by `without_wall_clock`; `_nanos` (simulated,
/// deterministic time) survives.
#[test]
fn nanos_metrics_survive_wall_clock_stripping() {
    let registry = Registry::new();
    registry.timer("stage.issue_ns").observe(123);
    registry.gauge("queue_depth").record_max(4);
    registry
        .histogram("publish.backoff_nanos", Buckets::latency())
        .observe(2_000_000);
    registry.counter("sim_charge_nanos").add(9);

    let stripped = registry.snapshot().without_wall_clock();
    assert!(!stripped.histograms.contains_key("stage.issue_ns"));
    assert!(!stripped.gauges.contains_key("queue_depth"));
    assert!(stripped.histograms.contains_key("publish.backoff_nanos"));
    assert_eq!(stripped.counter("sim_charge_nanos"), 9);
}

/// A disabled registry hands out inert handles: recording is a no-op, a
/// read is 0 and the snapshot stays empty, so instrumented code needs no
/// branches.
#[test]
fn disabled_registry_records_nothing() {
    let registry = Registry::disabled();
    assert!(!registry.is_enabled());
    let counter = registry.counter("ghost");
    counter.add(41);
    counter.inc();
    registry.gauge("ghost_gauge").set(-7);
    registry.timer("ghost_ns").observe(1);
    assert_eq!(
        counter.get(),
        0,
        "an inert handle records nowhere, not even locally"
    );
    assert_eq!(registry.snapshot(), Snapshot::default());
}

/// Same seed, same instrumented run, same snapshot — byte for byte. The
/// SimNet's metrics carry no wall-clock, so the *full* snapshot (not
/// just `without_wall_clock`) must replay identically.
#[test]
fn same_seed_runs_snapshot_identically() {
    let run = || {
        let faults = FaultConfig {
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            corrupt_rate: 0.1,
            reorder_window: 3,
            partitions: vec![Partition {
                start: 2,
                end: 5,
                endpoints: vec![0],
            }],
        };
        let net = SimNet::new(0xED, faults);
        let registry = Registry::new();
        net.attach_obs(&registry);
        let rx = net.join();
        for height in 1..=12u64 {
            net.publish(NetMessage::CertRequest {
                from: height,
                to: height,
            });
            if height % 4 == 0 {
                net.advance(1);
            }
        }
        net.heal();
        while rx.try_recv().is_ok() {}
        registry.snapshot()
    };
    let (a, b) = (run(), run());
    assert!(
        a.counter("net.attempted") > 0,
        "the run must have recorded traffic"
    );
    assert_eq!(a, b, "same-seed snapshots diverged");
    assert_eq!(a.to_json(), b.to_json(), "encoding is not canonical");
}
