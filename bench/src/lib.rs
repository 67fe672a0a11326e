//! # fj-perfbench
//!
//! The repo's benchmark: four workloads over the `freejoin` crate, driven
//! only through its public functions (all of them named in [`sut`] and
//! nowhere else). README.md says why each workload exists, what every metric
//! means and which layer should move which number; `../BENCHMARK.json` is
//! the contract the driver checks.

pub mod metrics;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod sut;
pub mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// How often set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Cores the process may use; recorded with every result that depends on it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set up `SETUP_REPS` times, handing every product but the last to
/// `discard`. Returns the last product and each repetition's seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), seconds))
}

/// The arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    /// Decides the row order of every relation and the request schedule.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Multiplies the row counts (and the churn budget); 1 is the contract's.
    pub scale: f64,
    /// Where `<workload>.trace.json` and `results.json` go.
    pub out_dir: PathBuf,
}

/// Run one workload in this process.
pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "job_cold" => {
            suite::run(&suite::SuiteSpec { dataset: sut::Dataset::Job, parallel: false }, args)
        }
        "lsqb_cyclic" => {
            suite::run(&suite::SuiteSpec { dataset: sut::Dataset::Lsqb, parallel: true }, args)
        }
        "serve_hot" => serve::run(&serve::ServeSpec { churn: false }, args),
        "serve_churn" => serve::run(&serve::ServeSpec { churn: true }, args),
        other => return Err(format!("unknown workload {other}")),
    };
    outcome.set("failed_share", outcome.failed as f64 / outcome.attempted.max(1) as f64);
    outcome.set("peak_rss_mb", metrics::peak_rss_mb());
    Ok(outcome)
}

/// Write the spans of a traced run to `<out>/<workload>.trace.json`. A
/// failure to write is reported and does not fail the run: the metrics are
/// already computed.
pub fn write_trace(args: &RunArgs, tracers: &[trace::Tracer]) {
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&args.workload, tracers)));
    match written {
        Ok(()) => println!("info {} trace_file {}", args.workload, path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
