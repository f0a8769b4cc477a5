//! The DBDC benchmark: each workload runs as a closed loop of complete
//! DBDC jobs, one at a time, from this single process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_200k --seed 1 --seconds 20 --trace 0 [--holdout-seed N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` re-composes the job from each layer's public functions
//! and reports the per-layer metrics. Human-readable lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod layers;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dbdc::central_dbscan;
use dbdc::quality::{q_dbdc, ObjectQuality};
use dbdc_obs::NoopRecorder;

use dbdc_bench::report::dataset_checksum as checksum;
use stats::{median, ratio, tail, Metric};
use workload::{bind, fleet_job, in_process_job, run_job, JobOutput, Kind, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Traced jobs needed for the exact-count check.
pub(crate) const MIN_TRACED: usize = 2;

/// No job starts once the process is this old, so a run ends well
/// inside three minutes even when a job is slow.
pub(crate) const START_DEADLINE: Duration = Duration::from_secs(120);

/// Lowest Q_DBDC (P^II against central DBSCAN) a correct run accepts.
const Q_FLOOR: f64 = 0.9;

/// Lowest DBCV the scored workload's labels may have.
const DBCV_FLOOR: f64 = 0.6;

/// The GridIndex blind spot the traced run prints.
pub(crate) const BLIND_SPOT: &str = "relabel.node_visits counts only occupied GridIndex cells; \
    relabel_site enumerates all 3^d neighbour cells per point (6561 in 8-D), \
    so on fleet_hd8 most of relabel.busy_s is cell enumeration no counter sees";

struct Cli {
    kind: Kind,
    seed: u64,
    holdout: bool,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut holdout, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--holdout-seed" => {
                holdout = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Cli {
        kind: kind.ok_or("--workload is required")?,
        seed: holdout.unwrap_or(seed),
        holdout: holdout.is_some(),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Generated input, reference output and set-up timings.
struct Setup {
    w: Workload,
    reference: JobOutput,
    checksum: String,
    times: Vec<Duration>,
}

/// Sets the workload up `SETUP_REPS` times: generate the input, bind the
/// fleet's listener, run one warm-up job. Every repetition must produce
/// the same input and the same output. The reference is the first
/// warm-up job's output; the fleet's reference is `run_dbdc` on the same
/// site split, computed once and not timed.
fn set_up(kind: Kind, seed: u64) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = Workload::generate(kind, seed);
        let generated = t0.elapsed();
        let (warm, bound) = match kind {
            Kind::Fleet => {
                let t = Instant::now();
                let listener = bind()?;
                let bound = t.elapsed();
                (fleet_job(&w, listener, &NoopRecorder)?.output, bound)
            }
            Kind::Fig8 | Kind::Scored => (in_process_job(&w), Duration::ZERO),
        };
        times.push(generated + bound + warm.wall);
        let sum = checksum(&w.data);
        if let Some(s) = &first {
            if sum != s.checksum {
                return Err(format!(
                    "set-up {rep}: input checksum {sum} != {}",
                    s.checksum
                ));
            }
            if !warm.matches(&s.reference) {
                return Err(format!(
                    "set-up {rep}: the warm-up job's output differs from the reference"
                ));
            }
        } else {
            let reference = match kind {
                Kind::Fleet => {
                    let reference = in_process_job(&w);
                    if !warm.matches(&reference) {
                        return Err(
                            "the fleet's output differs from run_dbdc's on the same site split"
                                .into(),
                        );
                    }
                    reference
                }
                Kind::Fig8 | Kind::Scored => warm,
            };
            first = Some(Setup {
                w,
                reference,
                checksum: sum,
                times: Vec::new(),
            });
        }
    }
    let mut setup = first.expect("SETUP_REPS > 0");
    setup.times = times;
    Ok(setup)
}

/// Runs one job, turning a panic into an error.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("job panicked".into()))
}

/// The result line's fields.
pub(crate) struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// End-to-end metrics, tracing off.
fn run_e2e(s: &Setup, seconds: f64, started: Instant) -> Outcome {
    let w = &s.w;
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let t0 = Instant::now();
    while attempted == 0
        || (t0.elapsed().as_secs_f64() < seconds && started.elapsed() < START_DEADLINE)
    {
        attempted += 1;
        match guarded(|| run_job(w)) {
            Ok(out) if out.matches(&s.reference) => walls.push(out.wall),
            Ok(_) => {
                failed += 1;
                eprintln!("job {attempted}: output differs from the reference");
            }
            Err(e) => {
                failed += 1;
                eprintln!("job {attempted}: {e}");
            }
        }
        if failed > 0 {
            break;
        }
    }

    let (central, _) = central_dbscan(&w.data, &w.params);
    let q = q_dbdc(&s.reference.labels, &central.clustering, ObjectQuality::PII).q;
    let mut correct = failed == 0;
    if q < Q_FLOOR {
        eprintln!("q_dbdc_p2 {q} is below the floor {Q_FLOOR}");
        correct = false;
    }
    if let Some(d) = s.reference.dbcv {
        println!("dbcv {d} (floor {DBCV_FLOOR})");
        if d < DBCV_FLOOR {
            eprintln!("dbcv {d} is below the floor {DBCV_FLOOR}");
            correct = false;
        }
    }
    println!(
        "jobs {attempted} failed {failed} error_rate {}",
        failed as f64 / attempted as f64
    );
    let n = w.data.len() as f64;
    let (tail_s, tail_label) = tail(&walls);
    println!("job_tail_s is {tail_label} of {} job walls", walls.len());
    let metrics = vec![
        Metric::new("points_per_s", "1/s", ratio(n, median(&walls))),
        Metric::new("job_tail_s", "s", tail_s),
        Metric::new("setup_s", "s", median(&s.times)),
        Metric::new("peak_rss_mib", "MiB", stats::peak_rss_mib()),
        Metric::new("bytes_up", "B", s.reference.bytes_up as f64),
        Metric::new("bytes_down", "B", s.reference.bytes_down as f64),
        Metric::new("q_dbdc_p2", "frac", q),
        Metric::new(
            "success_rate",
            "frac",
            (attempted - failed) as f64 / attempted as f64,
        ),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let setup = match set_up(cli.kind, cli.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {}{} points {} dim {} sites {} checksum {} nproc {nproc} traffic loopback",
        cli.kind.name(),
        cli.seed,
        if cli.holdout { " (held out)" } else { "" },
        setup.w.data.len(),
        setup.w.data.dim(),
        setup.w.sites,
        setup.checksum,
    );
    let outcome = if cli.trace {
        layers::run_traced(&setup.w, &setup.reference, cli.seconds, started)
    } else {
        run_e2e(&setup, cli.seconds, started)
    };
    let mut correct = outcome.correct;
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("metric {} is not a finite number", m.name);
            correct = false;
        }
    }
    println!(
        "{}",
        stats::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
