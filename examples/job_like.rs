//! Run a slice of the JOB-like benchmark suite (the synthetic stand-in for
//! the Join Order Benchmark) with all three engines and print a comparison
//! table — a miniature of the paper's Figure 14. Free Join runs five times:
//! `fj-plain` enumerates every variable (dead-variable pruning off — the
//! Figure 19 ablation), `simple` and `slt` build the simple trie and the
//! simple lazy trie instead of COLT on the same plan (the Figure 17
//! ablation), `freejoin` is the default (COLT) on the optimizer's plan
//! (which may be bushy), and `fj left-deep` is the default on the
//! optimizer's best left-deep plan.
//!
//! Doubles as a CI gate: the process exits nonzero unless every engine and
//! every Free Join variant returns the same cardinality — the three trie
//! strategies included — and pruning never costs probes (`freejoin` probes
//! <= `fj-plain` probes, same plan).
//!
//! ```text
//! cargo run --release --example job_like
//! ```

use freejoin::prelude::*;
use freejoin::query::ExecStats;
use freejoin::workloads::job;

fn main() {
    // A reduced-scale JOB-like dataset: IMDB-shaped schema, Zipf-skewed
    // many-to-many foreign keys.
    let config = job::JobConfig { movies: 400, people: 800, ..job::JobConfig::benchmark() };
    let workload = job::workload(&config);
    println!("dataset: {} ({} rows total)", workload.name, workload.total_rows());
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10} {:>19}",
        "query",
        "binary",
        "generic",
        "fj-plain",
        "simple",
        "slt",
        "freejoin",
        "fj left-deep",
        "fj speedup",
        "tuples",
        "probes plain->fj"
    );

    let binary = BinaryJoinEngine::new();
    let generic = GenericJoinEngine::new();
    let free_plain = FreeJoinEngine::new(FreeJoinOptions::default().with_factorized_output(false));
    let with_trie = |trie| FreeJoinEngine::new(FreeJoinOptions { trie, ..Default::default() });
    let (free_simple, free_slt) = (with_trie(TrieStrategy::Simple), with_trie(TrieStrategy::Slt));
    let free = FreeJoinEngine::new(FreeJoinOptions::default());
    let stats = CatalogStats::collect(&workload.catalog);
    let left_deep = OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() };

    let mut failures = Vec::new();
    let mut colt_log_speedups = [0.0f64; 2];
    let mut queries = 0;
    for named in workload.queries.iter().filter(|q| q.name.ends_with("a_like")) {
        let plan = optimize(&named.query, &stats, OptimizerOptions::default());
        let ld_plan = optimize(&named.query, &stats, left_deep);
        let (b_out, b_stats) = binary.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (g_out, g_stats) = generic.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (p_out, p_stats) = free_plain.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (s_out, s_stats) = free_simple.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (t_out, t_stats) = free_slt.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (f_out, f_stats) = free.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (l_out, l_stats) = free.execute(&workload.catalog, &named.query, &ld_plan).unwrap();
        for (engine, out) in [
            ("generic", &g_out),
            ("fj-plain", &p_out),
            ("simple", &s_out),
            ("slt", &t_out),
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
        let secs = |stats: &ExecStats| stats.reported_time().as_secs_f64().max(1e-9);
        for (log_speedup, other) in colt_log_speedups.iter_mut().zip([&s_stats, &t_stats]) {
            *log_speedup += (secs(other) / secs(&f_stats)).ln();
        }
        queries += 1;
        println!(
            "{:<14} {:>12?} {:>12?} {:>12?} {:>12?} {:>12?} {:>12?} {:>12?} {:>10.2}x {:>10} {:>9}->{:<9}",
            named.name,
            b_stats.reported_time(),
            g_stats.reported_time(),
            p_stats.reported_time(),
            s_stats.reported_time(),
            t_stats.reported_time(),
            f_stats.reported_time(),
            l_stats.reported_time(),
            secs(&b_stats) / secs(&f_stats),
            f_out.cardinality(),
            p_stats.probes,
            f_stats.probes
        );
    }
    let [vs_simple, vs_slt] = colt_log_speedups.map(|sum| (sum / queries as f64).exp());
    println!(
        "COLT geometric-mean speedup: {vs_simple:.2}x over the simple trie, {vs_slt:.2}x over SLT (paper, Figure 17: 8.47x / 1.91x)"
    );
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
