//! Bound-ranked execution on the `skew_flip` adversary.
//!
//! `skew_flip` is built so the optimizer's probe order is exactly wrong at
//! run time: the statically cheap-looking `mid`/`mid2`/`mid3` probes hit
//! huge hash maps that match every binding, while the statically
//! expensive-looking `sel` probe is a tiny, cache-resident map that
//! rejects almost everything. The binary join probes in plan order. Free
//! Join reads each subatom's O(1) trie bound per binding, probes `sel`
//! first, and skips every `mid*` lookup for every rejected binding.
//!
//! ```text
//! cargo run --release --example bound_ranked_skew
//! ```
//!
//! The example exits nonzero unless the two engines agree, Free Join
//! reports at least one probe reorder, and it makes at most half the binary
//! join's probes — a work count, not a timing. The times are printed for
//! context.

use freejoin::plan::{optimize, CatalogStats, EstimatorMode, OptimizerOptions};
use freejoin::prelude::*;
use freejoin::workloads::micro;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let bindings: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let w = micro::skew_flip(bindings, 5);
    let named = &w.queries[0];
    let stats = CatalogStats::collect(&w.catalog);
    let opts = OptimizerOptions {
        mode: EstimatorMode::Accurate,
        left_deep_only: true,
        ..OptimizerOptions::default()
    };
    let plan = optimize(&named.query, &stats, opts);
    println!("workload: {} ({} hub rows)", w.name, w.catalog.get("hub").unwrap().num_rows());

    let start = Instant::now();
    let (binary_out, binary) =
        BinaryJoinEngine::new().execute(&w.catalog, &named.query, &plan).unwrap();
    let binary_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (out, stats) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1))
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "binary join: {binary_secs:.4}s  output={} probes={}",
        binary_out.cardinality(),
        binary.probes
    );
    println!(
        "  free join: {secs:.4}s  output={} probes={} reorders={}",
        out.cardinality(),
        stats.probes,
        stats.reorders
    );

    let expected = (micro::PLANTED * micro::PLANTED) as u64;
    if binary_out.cardinality() != expected {
        eprintln!(
            "FAIL: skew_flip must produce {expected} tuples, got {}",
            binary_out.cardinality()
        );
        return ExitCode::FAILURE;
    }
    if !out.result_eq(&binary_out) {
        eprintln!(
            "FAIL: Free Join's output diverged: {} vs {}",
            out.cardinality(),
            binary_out.cardinality()
        );
        return ExitCode::FAILURE;
    }
    if stats.reorders == 0 {
        eprintln!("FAIL: Free Join never reordered on skew_flip");
        return ExitCode::FAILURE;
    }
    if 2 * stats.probes > binary.probes {
        eprintln!(
            "FAIL: Free Join made {} probes, more than half the binary join's {}",
            stats.probes, binary.probes
        );
        return ExitCode::FAILURE;
    }
    println!("ok: reordered {} times, identical output", stats.reorders);
    ExitCode::SUCCESS
}
