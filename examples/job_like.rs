//! Run a slice of the JOB-like benchmark suite (the synthetic stand-in for
//! the Join Order Benchmark) with all three engines and print a comparison
//! table — a miniature of the paper's Figure 14. Free Join runs three times:
//! `fj-plain` enumerates every variable (dead-variable pruning off),
//! `freejoin` is the default on the optimizer's plan (which may be bushy),
//! and `fj left-deep` is the default on the optimizer's best left-deep plan.
//!
//! Doubles as a CI gate: the process exits nonzero unless every engine and
//! every Free Join variant returns the same cardinality and pruning never
//! costs probes (`freejoin` probes <= `fj-plain` probes, same plan).
//!
//! ```text
//! cargo run --release --example job_like
//! ```

use freejoin::prelude::*;
use freejoin::workloads::job;

fn main() {
    // A reduced-scale JOB-like dataset: IMDB-shaped schema, Zipf-skewed
    // many-to-many foreign keys.
    let config = job::JobConfig { movies: 400, people: 800, ..job::JobConfig::benchmark() };
    let workload = job::workload(&config);
    println!("dataset: {} ({} rows total)", workload.name, workload.total_rows());
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10} {:>19}",
        "query",
        "binary",
        "generic",
        "fj-plain",
        "freejoin",
        "fj left-deep",
        "fj speedup",
        "tuples",
        "probes plain->fj"
    );

    let binary = BinaryJoinEngine::new();
    let generic = GenericJoinEngine::new();
    let free_plain = FreeJoinEngine::new(FreeJoinOptions::default().with_factorized_output(false));
    let free = FreeJoinEngine::new(FreeJoinOptions::default());
    let stats = CatalogStats::collect(&workload.catalog);
    let left_deep = OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() };

    let mut failures = Vec::new();
    for named in workload.queries.iter().filter(|q| q.name.ends_with("a_like")) {
        let plan = optimize(&named.query, &stats, OptimizerOptions::default());
        let ld_plan = optimize(&named.query, &stats, left_deep);
        let (b_out, b_stats) = binary.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (g_out, g_stats) = generic.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (p_out, p_stats) = free_plain.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (f_out, f_stats) = free.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (l_out, l_stats) = free.execute(&workload.catalog, &named.query, &ld_plan).unwrap();
        for (engine, out) in [
            ("generic", &g_out),
            ("fj-plain", &p_out),
            ("freejoin", &f_out),
            ("fj left-deep", &l_out),
        ] {
            if out.cardinality() != b_out.cardinality() {
                failures.push(format!(
                    "{}: {engine} returned {} tuples, binary join {}",
                    named.name,
                    out.cardinality(),
                    b_out.cardinality()
                ));
            }
        }
        if f_stats.probes > p_stats.probes {
            failures.push(format!(
                "{}: pruning cost probes: {} pruned > {} unpruned",
                named.name, f_stats.probes, p_stats.probes
            ));
        }
        let speedup =
            b_stats.reported_time().as_secs_f64() / f_stats.reported_time().as_secs_f64().max(1e-9);
        println!(
            "{:<14} {:>12?} {:>12?} {:>12?} {:>12?} {:>12?} {:>10.2}x {:>10} {:>9}->{:<9}",
            named.name,
            b_stats.reported_time(),
            g_stats.reported_time(),
            p_stats.reported_time(),
            f_stats.reported_time(),
            l_stats.reported_time(),
            speedup,
            f_out.cardinality(),
            p_stats.probes,
            f_stats.probes
        );
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
