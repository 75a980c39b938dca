//! End-to-end and per-layer benchmark of the live Viewstamped
//! Replication runtime.
//!
//! ```text
//! vsr-perfbench --workload <write_mem|write_durable|read_mostly_tcp>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs several rounds, each on a freshly set-up
//! cluster: closed-loop clients load it for a measured window, then
//! its primary is crashed and recovered under load, and every output is
//! checked. It prints the end-to-end metrics. With `--trace 1` it runs
//! one round untraced and the same round with cluster tracing on, times
//! calls into each layer with inputs shaped like the traced round's
//! traffic, and prints the per-layer metrics, the attribution of a
//! transaction's cost to layers, and the tracing overhead.
//!
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a failed output check
//! exits with status 1. `attempted` and `failed` count the submissions
//! of the measured windows. Those of the fault phases, where a view
//! change aborts what is in flight, are printed on a line of their own
//! and checked like the others.

mod check;
mod drive;
mod env;
mod layers;
mod workload;

use check::Counts;
use drive::{RunResult, Tally};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::Workload;

/// Measurement rounds per untraced run, each on a freshly set-up cluster
/// with its own window of `--seconds / ROUNDS`: `setup_s`, `failover_ms`
/// and `rejoin_ms` are medians over the rounds, and the windows are
/// pooled for the other metrics. A fresh cluster per round means every
/// crash hits the known bootstrap primary.
const ROUNDS: usize = 5;

/// Cluster set-ups per round; all but the round's own are shut down as
/// soon as they serve. `setup_s` is the median over every set-up.
const SETUPS_PER_ROUND: usize = 6;

/// Disturbed rounds a run repeats before it gives up. A round is
/// disturbed when a view forms before its crash, which on a healthy
/// host happens in fewer than one round in ten.
const MAX_DISTURBED: usize = 3;

/// Where WALs, scratch files and span dumps go, inside the checkout the
/// benchmark runs from.
const SCRATCH: &str = ".bench_tmp";

pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
    })
}

/// One named metric value with its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Exact nearest-rank percentile (`p` in 0..=1) of sorted values.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median latency and CPU per committed transaction of a window, in µs.
pub fn window_costs(run: &RunResult) -> (f64, f64) {
    let mut lat: Vec<u64> = run.samples.iter().map(|s| s.latency_ns).collect();
    lat.sort_unstable();
    let committed = run.samples.len().max(1) as f64;
    (percentile(&lat, 0.5) as f64 / 1e3, run.window_cpu.as_secs_f64() * 1e6 / committed)
}

/// The end-to-end metrics of a run's rounds: windows are pooled,
/// set-up, failover and rejoin times are medians over the rounds, and
/// peak memory is the first round's, the one a fresh process ran.
fn end_to_end(runs: &[RunResult], setups: &mut [f64], peaks: &[f64]) -> Vec<Metric> {
    for run in runs {
        let mut per_second = vec![0u64; run.window.as_secs_f64().ceil() as usize];
        let first = run.samples.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for s in &run.samples {
            if let Some(n) = per_second.get_mut(((s.start_ns - first) / 1_000_000_000) as usize) {
                *n += 1;
            }
        }
        println!("commits in each second of the window: {per_second:?}");
    }
    let mut lat: Vec<u64> =
        runs.iter().flat_map(|r| r.samples.iter().map(|s| s.latency_ns)).collect();
    lat.sort_unstable();
    let committed = lat.len().max(1) as f64;
    let window: f64 = runs.iter().map(|r| r.window.as_secs_f64()).sum();
    let cpu: f64 = runs.iter().map(|r| r.window_cpu.as_secs_f64()).sum();
    let mut failovers: Vec<f64> = runs.iter().map(|r| r.failover.as_secs_f64() * 1e3).collect();
    let mut rejoins: Vec<f64> = runs.iter().map(|r| r.rejoin.as_secs_f64() * 1e3).collect();
    println!("peak RSS of each round (MiB): {peaks:.1?}");
    vec![
        Metric::new("setup_s", env::median(setups), "s"),
        Metric::new("txns_per_s", lat.len() as f64 / window, "1/s"),
        Metric::new("txn_p50_us", percentile(&lat, 0.5) as f64 / 1e3, "us"),
        Metric::new("txn_p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us"),
        Metric::new("cpu_us_per_txn", cpu * 1e6 / committed, "us"),
        Metric::new("failover_ms", env::median(&mut failovers), "ms"),
        Metric::new("rejoin_ms", env::median(&mut rejoins), "ms"),
        Metric::new("peak_rss_mb", peaks.first().copied().unwrap_or(0.0), "MB"),
    ]
}

/// What `measure` produced.
pub struct Rounds {
    /// The rounds, in order.
    runs: Vec<RunResult>,
    /// Every set-up time, in seconds.
    setups: Vec<f64>,
    /// Each round's peak resident set size, in MiB. Later rounds also
    /// hold what earlier clusters left resident.
    peaks: Vec<f64>,
    /// Rounds that were disturbed and run again.
    disturbed: Vec<RunResult>,
}

/// Run `rounds` measurement rounds, each on a freshly set-up cluster.
/// A disturbed round is run again with the same inputs on a fresh
/// cluster, at most `MAX_DISTURBED` times per call.
pub fn measure(
    args: &Args,
    scratch: &Path,
    tracing: bool,
    rounds: usize,
) -> Result<Rounds, String> {
    let window = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
    let mut runs = Vec::with_capacity(rounds);
    let mut disturbed = Vec::new();
    let mut setups = Vec::with_capacity(rounds * SETUPS_PER_ROUND);
    let mut peaks = Vec::with_capacity(rounds);
    for attempt in 0.. {
        let round = runs.len();
        if round == rounds {
            break;
        }
        env::reset_peak_rss();
        for n in 1..SETUPS_PER_ROUND {
            let dir =
                drive::cluster_dir(scratch, args.workload.name(), attempt * SETUPS_PER_ROUND + n);
            let (cluster, took) =
                drive::set_up(args.workload, &dir, tracing, &mut Tally::default())?;
            setups.push(took.as_secs_f64());
            cluster.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = drive::cluster_dir(scratch, args.workload.name(), attempt * SETUPS_PER_ROUND);
        let mut tally = Tally::default();
        let (cluster, took) = drive::set_up(args.workload, &dir, tracing, &mut tally)?;
        setups.push(took.as_secs_f64());
        let run = drive::run(&cluster, args.workload, args.seed, round, window, tracing, tally);
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let run = run?;
        let Some(reason) = &run.disturbed else {
            runs.push(run);
            peaks.push(env::peak_rss_mb());
            continue;
        };
        println!(
            "round {round} disturbed: {reason}; its window had {} submissions, {} failed; \
             running it again",
            run.measured.attempted,
            run.measured.failed()
        );
        disturbed.push(run);
        if disturbed.len() > MAX_DISTURBED {
            return Err(format!("{} rounds disturbed", disturbed.len()));
        }
    }
    Ok(Rounds { runs, setups, peaks, disturbed })
}

fn print_result(correct: bool, counts: &Counts, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "window: attempted {} committed {} aborted {} unresolved {} errors {}",
        counts.attempted, counts.committed, counts.aborted, counts.unresolved, counts.errors
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.attempted,
        counts.failed(),
        body.join(", ")
    );
}

fn main_result() -> Result<bool, String> {
    let args = parse_args()?;
    let scratch = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {SCRATCH}: {e}"))?;
    let host0 = env::HostCpu::now();
    let fdatasync_p50_us = env::fdatasync_p50_us(&scratch);
    let loopback_rtt_us = env::loopback_rtt_us();
    let cpu_loop_start = env::cpu_loop_ns();

    // The traced mode runs one round untraced and the same round
    // traced; both rounds' submissions are counted and checked.
    let (runs, disturbed, metrics) = if args.trace {
        let Rounds { mut runs, mut disturbed, .. } = measure(&args, &scratch, false, 1)?;
        let traced = measure(&args, &scratch, true, 1)?;
        runs.extend(traced.runs);
        disturbed.extend(traced.disturbed);
        let metrics = layers::per_layer(&args, &scratch, &runs[0], &runs[1])?;
        (runs, disturbed, metrics)
    } else {
        let Rounds { runs, mut setups, peaks, disturbed } =
            measure(&args, &scratch, false, ROUNDS)?;
        let metrics = end_to_end(&runs, &mut setups, &peaks);
        (runs, disturbed, metrics)
    };

    let fingerprint = env::Fingerprint {
        steal_share: env::HostCpu::now().steal_share_since(&host0),
        fdatasync_p50_us,
        loopback_rtt_us,
        cpu_loop_ns: [cpu_loop_start, env::cpu_loop_ns()],
    };
    println!("fingerprint {}", fingerprint.json());
    let (mut counts, mut fault) = (Counts::default(), Counts::default());
    for run in &runs {
        counts.add(&run.measured);
        fault.add(&run.fault);
    }
    for v in runs.iter().chain(&disturbed).flat_map(|r| &r.violations) {
        eprintln!("output check failed: {v}");
    }
    println!(
        "fault phase: attempted {} committed {} aborted {} unresolved {} errors {}",
        fault.attempted, fault.committed, fault.aborted, fault.unresolved, fault.errors
    );
    println!("disturbed rounds run again: {}", disturbed.len());
    let correct = runs.iter().chain(&disturbed).all(|r| r.violations.is_empty());
    print_result(correct, &counts, &metrics);
    Ok(correct)
}

fn main() {
    match main_result() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
