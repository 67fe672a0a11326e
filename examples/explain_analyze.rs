//! `EXPLAIN ANALYZE` on the triangle query, end to end: prepare through a
//! `Session`, execute with per-node profiling, and print the plan tree
//! annotated with the optimizer's estimated rows next to the actual rows,
//! probe hit rates and coarse per-node times.
//!
//! Doubles as a CI gate: the process exits nonzero unless every plan node
//! reports actual rows > 0 and the per-node probe counts reconcile exactly
//! with the engine's `ExecStats` totals — a silent attribution hole in the
//! executor's profiling sites would fail the build, not just misreport.
//!
//! ```text
//! cargo run --release --example explain_analyze
//! ```

use freejoin::prelude::*;
use freejoin::workloads::micro;
use std::sync::Arc;

fn main() {
    // A skewed triangle: enough structure that estimates and actuals
    // visibly diverge, which is the whole point of EXPLAIN ANALYZE.
    let workload = micro::skewed_triangle(500, 8, 0.9, 42);
    let named = &workload.queries[0];
    let session = Session::new(Arc::new(EngineCaches::with_defaults()));

    let report = session.explain_analyze(&workload.catalog, &named.query).unwrap();
    println!("{report}");

    // The same numbers, structured: re-run profiled and verify the gate
    // conditions the rendered report was built from.
    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
    let request = ExecRequest { profile: true, ..ExecRequest::default() };
    let ExecReport { output: out, stats, profile, .. } =
        prepared.execute(&workload.catalog, &request).unwrap();
    let profile = profile.expect("the request asked for a profile");

    let mut failures = Vec::new();
    for pipeline in &profile.pipelines {
        for node in &pipeline.nodes {
            if node.output_rows == 0 {
                failures.push(format!("{}: node reported 0 actual rows", node.label));
            }
            if node.estimated_rows < 1.0 {
                failures.push(format!("{}: missing optimizer estimate", node.label));
            }
        }
    }
    if profile.total_probes() != stats.probes {
        failures.push(format!(
            "per-node probes {} != ExecStats probes {}",
            profile.total_probes(),
            stats.probes
        ));
    }
    if profile.total_probe_hits() != stats.probe_hits {
        failures.push(format!(
            "per-node probe hits {} != ExecStats probe hits {}",
            profile.total_probe_hits(),
            stats.probe_hits
        ));
    }
    if profile.output_rows() != out.cardinality() {
        failures.push(format!(
            "profile output rows {} != cardinality {}",
            profile.output_rows(),
            out.cardinality()
        ));
    }

    if failures.is_empty() {
        println!(
            "ok: {} nodes, {} probes reconciled, {} triangles",
            profile.pipelines.iter().map(|p| p.nodes.len()).sum::<usize>(),
            stats.probes,
            out.cardinality()
        );
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
