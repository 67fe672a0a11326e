//! Triangle counting on a skewed graph — the canonical workload where
//! worst-case optimal joins beat binary join plans.
//!
//! The example generates a Zipf-skewed random graph, counts directed
//! triangles with all three engines, and prints the times and probe counts
//! side by side. On a skewed graph the binary plan's first join produces far
//! more intermediate tuples than there are triangles, and its last join
//! probes the third edge once per intermediate tuple. Free Join starts from
//! the same binary plan `[[e3(z,x), e2(z)], [e2(y), e1(x,y)]]` and factors
//! it: the closing atom `e1(x,y)` is split into `e1(x)`, which filters the
//! `(z,x)` pairs before anything is expanded, and `e1(y)`, which leaves the
//! inner node `[e2(y), e1(y)]` with two covers — per binding it walks the
//! shorter adjacency list and probes the other, the set intersection that
//! makes Generic Join worst-case optimal — while its COLT tries keep the
//! build phase cheap (small lists are scanned in place, never hashed).
//!
//! Doubles as a CI gate, on exact serial counts: the process exits nonzero
//! unless the three cardinalities agree, Free Join's default plan makes
//! fewer probes than the binary join, and at most 1.5x Generic Join's.
//!
//! ```text
//! cargo run --release --example triangle_counting
//! ```

use freejoin::prelude::*;
use freejoin::query::ExecStats;
use freejoin::workloads::micro;
use std::time::Instant;

fn report(name: &str, out: &QueryOutput, exec: &ExecStats, wall: std::time::Duration) {
    println!(
        "{name:<13} triangles={:<8} probes={:<8} reported={:?} (build {:?}, join {:?}), wall {:?}",
        out.cardinality(),
        exec.probes,
        exec.reported_time(),
        exec.build_time,
        exec.join_time,
        wall
    );
}

fn main() {
    // A 2,000-node graph with average out-degree 12 and heavy skew: a few
    // "celebrity" nodes appear in a large fraction of the edges.
    let workload = micro::skewed_triangle(2_000, 12, 1.0, 42);
    let named = &workload.queries[0];
    let edges = workload.catalog.get("edge").unwrap().num_rows();
    println!("graph: {edges} edges over 2000 nodes (Zipf skew 1.0)");

    let stats = CatalogStats::collect(&workload.catalog);
    let plan = optimize(&named.query, &stats, OptimizerOptions::default());
    println!("binary plan from the optimizer: {}", plan.display(&named.query));

    let start = Instant::now();
    let (bj_out, bj_stats) =
        BinaryJoinEngine::new().execute(&workload.catalog, &named.query, &plan).unwrap();
    report("binary join", &bj_out, &bj_stats, start.elapsed());

    let start = Instant::now();
    let (gj_out, gj_stats) = GenericJoinEngine::new()
        .execute(&workload.catalog, &named.query, &plan)
        .unwrap();
    report("generic join", &gj_out, &gj_stats, start.elapsed());

    let start = Instant::now();
    // One thread: the probe counts below are exact and schedule-free.
    let (fj_out, fj_stats) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1))
        .execute(&workload.catalog, &named.query, &plan)
        .unwrap();
    report("free join", &fj_out, &fj_stats, start.elapsed());

    let mut failures = Vec::new();
    if bj_out.cardinality() != gj_out.cardinality() || bj_out.cardinality() != fj_out.cardinality()
    {
        failures.push("the engines disagree on the number of triangles".to_string());
    }
    if fj_stats.probes >= bj_stats.probes {
        failures.push(format!(
            "Free Join made {} probes, the binary join {}: the closing atom was not split",
            fj_stats.probes, bj_stats.probes
        ));
    }
    if 2 * fj_stats.probes > 3 * gj_stats.probes {
        failures.push(format!(
            "Free Join made {} probes, more than 1.5x Generic Join's {}",
            fj_stats.probes, gj_stats.probes
        ));
    }
    if failures.is_empty() {
        println!(
            "all three engines agree; Free Join probes: {:.2}x the binary join's, {:.2}x Generic Join's.",
            fj_stats.probes as f64 / bj_stats.probes as f64,
            fj_stats.probes as f64 / gj_stats.probes as f64
        );
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
