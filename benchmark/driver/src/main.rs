//! `dcert-benchmark`: the repository's block-journey + query benchmark.
//!
//! ```text
//! dcert-benchmark [run] [--workload NAME] [--seed N] [--seconds S]
//!                 [--trace [0|1]] [--runs N] [--out FILE]
//! dcert-benchmark compare BASELINE.json CANDIDATE.json
//! ```
//!
//! `run` with a `--workload` measures that workload in this process and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). Without a
//! `--workload` it runs every workload, each in a child process of its
//! own so that `peak_rss_mb` belongs to one workload, and merges their
//! results into `--out`. See `benchmark/README.md`.

mod blocks;
mod calibrate;
mod compare;
mod error;
mod fleet;
mod indexed;
mod json;
mod metrics;
mod pace;
mod queries;
mod results;
mod serve;
mod stats;
mod trace;
mod work;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dcert_obs::Registry;

use crate::error::BenchError;
use crate::json::Json;
use crate::metrics::{put, Measured, Readings};
use crate::pace::Paced;
use crate::results::{ResultSet, WorkloadResult};
use crate::trace::{Clock, Tracer};
use crate::work::Work;

#[global_allocator]
static ALLOCATOR: work::CountingAllocator = work::CountingAllocator;

/// The workloads, in the order they run. Later issues refer to these names.
pub const WORKLOADS: [&str; 5] = [
    "blocks_kv",
    "blocks_io",
    "fleet_sb",
    "queries_cold",
    "serve_mixed",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where scratch directories, trace files and default result files go:
/// `benchmark/out/`, which `run.sh` names through this variable so it
/// holds wherever the script is called from.
fn out_dir() -> PathBuf {
    std::env::var_os("DCERT_BENCHMARK_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// What a workload is built from: the seed feeds only the generators and
/// query selection, `seconds` scales the calibrated operation counts.
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub out_dir: PathBuf,
}

/// Operations excluded from timings (not from counts): the first 5 %.
pub fn warm_up(operations: u64) -> u64 {
    (operations * 5).div_ceil(100)
}

/// The hardware-independent work counters, per operation.
pub fn put_work(out: &mut Readings, work: Work, operations: u64) {
    let per_op = |total: u64| total as f64 / operations.max(1) as f64;
    put(
        out,
        "primitives.sha256_blocks",
        per_op(work.sha256_blocks),
        operations,
    );
    put(
        out,
        "primitives.sig_verifies",
        per_op(work.sig_verifies),
        operations,
    );
    put(
        out,
        "primitives.sig_signs",
        per_op(work.sig_signs),
        operations,
    );
    put(out, "alloc.count", per_op(work.allocations), operations);
    put(out, "alloc.bytes", per_op(work.allocated_bytes), operations);
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
}

enum Invocation {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Invocation, BenchError> {
    let usage = |msg: String| BenchError::Usage(msg);
    let mut args = args.iter().peekable();
    match args.peek().map(|s| s.as_str()) {
        Some("compare") => {
            args.next();
            return match (args.next(), args.next(), args.next()) {
                (Some(a), Some(b), None) => Ok(Invocation::Compare(a.into(), b.into())),
                _ => Err(usage("compare BASELINE.json CANDIDATE.json".to_owned())),
            };
        }
        Some("run") => {
            args.next();
        }
        _ => {}
    }
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: 8,
        trace: false,
        runs: 1,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| usage(format!("{flag} needs {what}")))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| usage(format!("{flag} needs a whole number, got {text:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(usage(format!(
                        "unknown workload {name:?}; one of {WORKLOADS:?}"
                    )));
                }
                run.workload = Some(name);
            }
            "--seed" => run.seed = number(value("a seed")?)?,
            "--seconds" => run.seconds = number(value("a duration")?)?.clamp(1, 60),
            "--runs" => run.runs = number(value("a count")?)?.max(1),
            "--out" => run.out = Some(value("a file")?.into()),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                run.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }
    Ok(Invocation::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|invocation| match invocation {
        Invocation::Compare(baseline, candidate) => compare::run(&baseline, &candidate),
        Invocation::Run(run) if run.workload.is_some() => run_one(&run),
        Invocation::Run(run) => run_all(&run),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("dcert-benchmark: {error}");
            ExitCode::from(2)
        }
    }
}

/// Sets a workload up [`SETUPS`] times, runs it untraced, and — with
/// tracing asked for — once more, identically, traced.
fn drive<W>(
    args: &RunArgs,
    name: &str,
    channels: usize,
    setup: impl Fn(&Params, &Registry) -> Result<W, BenchError>,
    run: impl Fn(W, &mut Tracer) -> Result<Measured, BenchError>,
) -> Result<WorkloadResult, BenchError> {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&params.out_dir)?;
    // One Merkle build thread, one preparer, two shards: the machine has
    // two cores and the load comes from this one process.
    dcert_merkle::set_build_threads(1);

    // Every set-up is one pacing segment of its own.
    let clock = Clock::start();
    let mut setups = Paced::start(clock, 1);
    let mut timed_setup = |obs: &Registry| -> Result<W, BenchError> {
        let started = clock.now_ns();
        let world = setup(&params, obs)?;
        setups.sample(0, clock.now_ns() - started);
        setups.beat();
        Ok(world)
    };
    let quiet = Registry::disabled();
    // With tracing, the last set-up is the traced run's; either way the
    // run does SETUPS set-ups and holds one world at a time.
    let spare = SETUPS - 1 - usize::from(args.trace);
    for _ in 0..spare {
        drop(timed_setup(&quiet)?);
    }
    let mut untraced = run(timed_setup(&quiet)?, &mut Tracer::new(false, channels))?;
    put(
        &mut untraced.end_to_end,
        "peak_rss_mb",
        world::peak_rss_mb()?,
        1,
    );

    let mut per_layer = Readings::new();
    if args.trace {
        let obs = Registry::new();
        let world = timed_setup(&obs)?;
        let mut tracer = Tracer::new(true, channels);
        work::set_counting(true);
        let traced = run(world, &mut tracer);
        work::set_counting(false);
        let traced = traced?;
        per_layer = traced.per_layer;
        let overhead = 100.0 * (traced.busy_ns - untraced.busy_ns) / untraced.busy_ns;
        put(&mut per_layer, "trace.overhead_pct", overhead, 1);
        calibrate::primitives(name, &mut per_layer);
        let path = params.out_dir.join(format!("trace-{name}.json"));
        tracer.write_json(&path, name)?;
        eprintln!(
            "trace: {} spans recorded, {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let setup_ns = setups.paced(0);
    put(
        &mut untraced.end_to_end,
        "setup_s",
        stats::median(setup_ns) / 1e9,
        setup_ns.len() as u64,
    );
    Ok(WorkloadResult {
        attempted: untraced.attempted,
        failed: untraced.failed,
        end_to_end: untraced.end_to_end,
        per_layer: metrics::complete_per_layer(&per_layer),
        traced: args.trace,
    })
}

/// Runs one workload in this process; the last line printed is the JSON
/// object the benchmark driver reads.
fn run_one(args: &RunArgs) -> Result<bool, BenchError> {
    let name = args.workload.as_deref().unwrap_or_default();
    let measured = match name {
        "blocks_kv" => drive(
            args,
            name,
            blocks::CHANNELS,
            |p, o| blocks::setup(blocks::Flavour::Kv, p, o),
            blocks::run,
        ),
        "blocks_io" => drive(
            args,
            name,
            blocks::CHANNELS,
            |p, o| blocks::setup(blocks::Flavour::Io, p, o),
            blocks::run,
        ),
        "fleet_sb" => drive(args, name, fleet::CHANNELS, fleet::setup, fleet::run),
        "queries_cold" => drive(args, name, queries::CHANNELS, queries::setup, queries::run),
        "serve_mixed" => drive(args, name, serve::CHANNELS, serve::setup, serve::run),
        other => Err(BenchError::Usage(format!("unknown workload {other:?}"))),
    };
    // A failed correctness gate is a result (`correct: false`), not a
    // crash: report it in the same shape.
    let result = match measured {
        Ok(result) => result,
        Err(BenchError::Gate(why)) => {
            eprintln!("dcert-benchmark: {name}: correctness gate FAILED: {why}");
            println!(
                "{}",
                Json::object([
                    ("correct", Json::from(false)),
                    ("attempted", Json::from(1u64)),
                    ("failed", Json::from(1u64)),
                    ("metrics", Json::object::<&str>([])),
                ])
                .render()
            );
            return Ok(false);
        }
        Err(other) => return Err(other),
    };

    println!(
        "== {name}  seed {}  seconds {}  trace {} ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    results::print_readings("end-to-end", &result.end_to_end);
    if args.trace {
        results::print_readings("per-layer", &result.per_layer);
    }
    if let Some(path) = &args.out {
        let mut set = ResultSet::new(args.seed, args.seconds);
        set.push(name, &result);
        std::fs::write(path, set.to_json().render_pretty())?;
    }
    let correct = result.failed == 0;
    let reported = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    println!(
        "{}",
        Json::object([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(result.attempted)),
            ("failed", Json::from(result.failed)),
            ("metrics", metrics::to_json(reported)),
        ])
        .render()
    );
    Ok(correct)
}

/// Runs every workload `--runs` times, one child process per run, and
/// merges what they report into one result set.
fn run_all(args: &RunArgs) -> Result<bool, BenchError> {
    let exe = std::env::current_exe()?;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir)?;
    let part = out_dir.join(format!("part-{}.json", std::process::id()));
    let mut set = ResultSet::new(args.seed, args.seconds);
    let mut all_correct = true;
    for name in WORKLOADS {
        for _ in 0..args.runs {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            // `status` waits for the child; its report streams through.
            let status = child.status()?;
            if !status.success() {
                eprintln!("dcert-benchmark: {name} exited with {status}");
                all_correct = false;
                continue;
            }
            let text = std::fs::read_to_string(&part)?;
            set.merge(&ResultSet::from_json(&Json::parse(&text)?)?);
            std::fs::remove_file(&part)?;
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    std::fs::write(&out, set.to_json().render_pretty())?;
    println!("results: {}", out.display());
    println!(
        "{}",
        Json::object([
            ("correct", Json::from(all_correct)),
            ("workloads", Json::from(WORKLOADS.len() as u64)),
            ("runs", Json::from(args.runs)),
        ])
        .render()
    );
    Ok(all_correct)
}
