//! Regenerates the rows behind every figure of the paper's evaluation
//! (Section 5). Each subcommand prints one table; `all` prints everything.
//!
//! ```text
//! cargo run --release -p fj-bench --bin experiments -- all
//! cargo run --release -p fj-bench --bin experiments -- fig14
//! ```
//!
//! Subcommands: `fig14`, `fig15`, `fig16`, `fig17`, `fig19`, `fig20`,
//! `headline`, `all`. Figure 18 (batch sizes) has no subcommand: the
//! executor batches the probes of every node that has any, at the paper's
//! default of 1000 entries, and no option changes that (README,
//! "Per-entry step").
//!
//! The environment variable `FJ_SCALE` (a float, default 1.0) scales the
//! synthetic datasets up or down.

use fj_bench::{geometric_mean, plan_query, run_query_with_plan, secs, speedup, Engine};
use fj_plan::EstimatorMode;
use fj_workloads::{job, lsqb, micro, NamedQuery, Workload};
use free_join::{FreeJoinOptions, TrieStrategy};
use std::time::Duration;

fn scale() -> f64 {
    std::env::var("FJ_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

fn job_workload() -> Workload {
    let mut config = job::JobConfig::benchmark();
    config.movies = ((config.movies as f64) * scale()).max(50.0) as usize;
    config.people = ((config.people as f64) * scale()).max(100.0) as usize;
    job::workload(&config)
}

fn lsqb_workload(sf: f64) -> Workload {
    let mut config = lsqb::LsqbConfig::at_scale(sf);
    config.persons_per_sf = ((config.persons_per_sf as f64) * scale()).max(100.0) as usize;
    lsqb::workload(&config)
}

fn print_header(title: &str, columns: &[&str]) {
    println!();
    println!("=== {title} ===");
    print!("{:<16}", "query");
    for c in columns {
        print!("{c:>16}");
    }
    println!();
}

fn print_row(query: &str, values: &[String]) {
    print!("{query:<16}");
    for v in values {
        print!("{v:>16}");
    }
    println!();
}

fn fmt_time(d: Duration) -> String {
    format!("{:.4}s", secs(d))
}

/// Figure 14: run time of Free Join and Generic Join vs. binary join on the
/// JOB-like suite (good plans).
fn fig14() {
    let w = job_workload();
    println!("\n[Figure 14] JOB-like run time ({}, {} input rows)", w.name, w.total_rows());
    print_header(
        "Fig 14: binary vs generic vs free join (JOB-like)",
        &["binary", "generic", "freejoin", "fj/bin spd", "fj/gj spd"],
    );
    let mut bin_ratios = Vec::new();
    let mut gj_ratios = Vec::new();
    for named in &w.queries {
        let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
        let binary = run_query_with_plan(&w.catalog, named, &plan, &Engine::Binary);
        let generic = run_query_with_plan(&w.catalog, named, &plan, &Engine::Generic);
        let fj = run_query_with_plan(&w.catalog, named, &plan, &Engine::free_join_default());
        let s_bin = speedup(fj.reported, binary.reported);
        let s_gj = speedup(fj.reported, generic.reported);
        bin_ratios.push(s_bin);
        gj_ratios.push(s_gj);
        print_row(
            &named.name,
            &[
                fmt_time(binary.reported),
                fmt_time(generic.reported),
                fmt_time(fj.reported),
                format!("{s_bin:.2}x"),
                format!("{s_gj:.2}x"),
            ],
        );
    }
    println!(
        "geometric mean speedup of Free Join: {:.2}x over binary join, {:.2}x over Generic Join",
        geometric_mean(&bin_ratios),
        geometric_mean(&gj_ratios)
    );
    println!(
        "max speedup: {:.2}x over binary join, {:.2}x over Generic Join (paper: 19.36x / 31.6x; geo-mean 2.94x / 9.61x)",
        bin_ratios.iter().cloned().fold(f64::MIN, f64::max),
        gj_ratios.iter().cloned().fold(f64::MIN, f64::max)
    );
}

/// Figures 15 and 20: the same comparison with the cardinality estimator
/// pinned to 1 ("bad plans"), and per-engine good-vs-bad slowdowns.
fn fig15_20() {
    let w = job_workload();
    println!("\n[Figure 15 / 20] JOB-like run time with bad cardinality estimates");
    print_header(
        "Fig 15: run time with cardinality estimate == 1",
        &["binary(bad)", "generic(bad)", "freejoin(bad)"],
    );
    let mut rows = Vec::new();
    for named in &w.queries {
        let (good_plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
        let (bad_plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::AlwaysOne);
        let mut per_engine = Vec::new();
        for engine in Engine::paper_lineup() {
            let good = run_query_with_plan(&w.catalog, named, &good_plan, &engine);
            let bad = run_query_with_plan(&w.catalog, named, &bad_plan, &engine);
            per_engine.push((engine.label(), good.reported, bad.reported));
        }
        print_row(
            &named.name,
            &[fmt_time(per_engine[0].2), fmt_time(per_engine[1].2), fmt_time(per_engine[2].2)],
        );
        rows.push((named.name.clone(), per_engine));
    }
    print_header(
        "Fig 20: slowdown of bad plans per engine (bad / good)",
        &["binary", "generic", "freejoin"],
    );
    let mut slowdowns = [Vec::new(), Vec::new(), Vec::new()];
    for (name, per_engine) in &rows {
        let values: Vec<String> = per_engine
            .iter()
            .enumerate()
            .map(|(i, (_, good, bad))| {
                let s = speedup(*good, *bad);
                slowdowns[i].push(s);
                format!("{s:.2}x")
            })
            .collect();
        print_row(name, &values);
    }
    println!(
        "geometric mean slowdown from bad plans: binary {:.2}x, generic {:.2}x, freejoin {:.2}x",
        geometric_mean(&slowdowns[0]),
        geometric_mean(&slowdowns[1]),
        geometric_mean(&slowdowns[2])
    );
    println!("(paper: Generic Join degrades least; Free Join and binary join degrade more,");
    println!(" but the relative order is preserved: Free Join fastest, Generic Join slowest)");
}

/// Figure 16: LSQB q1-q5 across scale factors, all three engines.
fn fig16() {
    println!("\n[Figure 16] LSQB-like run time across scale factors");
    print_header("Fig 16: LSQB-like q1-q5", &["sf", "binary", "generic", "freejoin"]);
    for sf in [0.1, 0.3, 1.0] {
        let w = lsqb_workload(sf);
        for named in &w.queries {
            let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
            let binary = run_query_with_plan(&w.catalog, named, &plan, &Engine::Binary);
            let generic = run_query_with_plan(&w.catalog, named, &plan, &Engine::Generic);
            let fj = run_query_with_plan(&w.catalog, named, &plan, &Engine::free_join_default());
            print_row(
                &named.name,
                &[
                    format!("{sf}"),
                    fmt_time(binary.reported),
                    fmt_time(generic.reported),
                    fmt_time(fj.reported),
                ],
            );
        }
    }
    println!("(paper: Free Join up to 15.45x faster than binary join on cyclic q3, up to 4.08x over Generic Join)");
}

/// Figure 17: COLT vs simple lazy trie vs simple trie.
fn fig17() {
    let w = job_workload();
    println!("\n[Figure 17] Impact of the trie data structure (JOB-like)");
    print_header(
        "Fig 17: simple trie vs SLT vs COLT",
        &["simple", "slt", "colt", "colt/simple", "colt/slt"],
    );
    let mut vs_simple = Vec::new();
    let mut vs_slt = Vec::new();
    for named in &w.queries {
        let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
        let mut times = Vec::new();
        for strategy in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            let options = FreeJoinOptions { trie: strategy, ..FreeJoinOptions::default() };
            let r = run_query_with_plan(&w.catalog, named, &plan, &Engine::FreeJoin(options));
            times.push(r.reported);
        }
        let s_simple = speedup(times[2], times[0]);
        let s_slt = speedup(times[2], times[1]);
        vs_simple.push(s_simple);
        vs_slt.push(s_slt);
        print_row(
            &named.name,
            &[
                fmt_time(times[0]),
                fmt_time(times[1]),
                fmt_time(times[2]),
                format!("{s_simple:.2}x"),
                format!("{s_slt:.2}x"),
            ],
        );
    }
    println!(
        "geometric mean speedup of COLT: {:.2}x over simple trie, {:.2}x over SLT (paper: 8.47x / 1.91x)",
        geometric_mean(&vs_simple),
        geometric_mean(&vs_slt)
    );
}

/// Figure 19: LSQB with factorized output.
fn fig19() {
    println!("\n[Figure 19] LSQB-like run time with factorized output");
    print_header("Fig 19: factorized output", &["sf", "fj-plain", "freejoin", "speedup"]);
    for sf in [0.1, 0.3, 1.0] {
        let w = lsqb_workload(sf);
        for named in &w.queries {
            let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
            // Factorized output (dead-variable pruning) is the default; the
            // ablation turns it off.
            let plain = run_query_with_plan(
                &w.catalog,
                named,
                &plan,
                &Engine::FreeJoin(FreeJoinOptions::default().with_factorized_output(false)),
            );
            let fact = run_query_with_plan(&w.catalog, named, &plan, &Engine::free_join_default());
            print_row(
                &named.name,
                &[
                    format!("{sf}"),
                    fmt_time(plain.reported),
                    fmt_time(fact.reported),
                    format!("{:.2}x", speedup(fact.reported, plain.reported)),
                ],
            );
        }
    }
    println!(
        "(paper: factorizing the output makes q1 significantly faster, other queries unaffected)"
    );
}

/// Headline numbers of Section 5.2: the clover-style skew case and the
/// q13-like query.
fn headline() {
    println!("\n[Headline] Section 5.2 anatomy: skewed many-to-many joins");
    let clover = micro::clover(2_000);
    report_one("clover n=2000", &clover, &clover.queries[0]);

    let w = job_workload();
    if let Some(q13) = w.query("q13a_like") {
        report_one("q13a_like", &w, q13);
    }

    let tri = micro::skewed_triangle(1_500, 12, 1.0, 17);
    report_one("skewed triangle", &tri, &tri.queries[0]);
}

fn report_one(label: &str, w: &Workload, named: &NamedQuery) {
    let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
    let binary = run_query_with_plan(&w.catalog, named, &plan, &Engine::Binary);
    let generic = run_query_with_plan(&w.catalog, named, &plan, &Engine::Generic);
    let fj = run_query_with_plan(&w.catalog, named, &plan, &Engine::free_join_default());
    println!(
        "{label:<18} binary {:>10} | generic {:>10} | freejoin {:>10} | fj vs binary {:>6.2}x | fj vs generic {:>6.2}x | out {}",
        fmt_time(binary.reported),
        fmt_time(generic.reported),
        fmt_time(fj.reported),
        speedup(fj.reported, binary.reported),
        speedup(fj.reported, generic.reported),
        fj.output_tuples,
    );
}

/// Inspect one JOB-like query: print the optimizer's plan, the Free Join
/// plan after factoring, and per-engine execution statistics. Useful when
/// digging into an unexpected measurement.
fn inspect(query_name: &str) {
    use fj_bench::execute;
    let w = job_workload();
    let Some(named) = w.query(query_name) else {
        eprintln!("unknown query {query_name}");
        std::process::exit(1);
    };
    let (plan, _) = plan_query(&w.catalog, &named.query, EstimatorMode::Accurate);
    println!("query:  {}", named.query);
    println!("binary plan: {}", plan.display(&named.query));
    let decomposed = plan.decompose();
    for (p, pipeline) in decomposed.pipelines.iter().enumerate() {
        let input_vars = decomposed.pipeline_input_vars(&named.query, p);
        let mut fj = fj_plan::binary2fj(&input_vars);
        fj_plan::factor(&mut fj);
        println!("pipeline {p}: inputs {:?}", pipeline.inputs);
        println!("  factored Free Join plan: {fj}");
    }
    for engine in Engine::paper_lineup() {
        let (out, stats) = execute(&w.catalog, &named.query, &plan, &engine);
        println!(
            "{:<24} out={:<10} build={:<12?} join={:<12?} probes={} hits={} intermediates={} lazy={}",
            engine.label(),
            out.cardinality(),
            stats.build_time,
            stats.join_time,
            stats.probes,
            stats.probe_hits,
            stats.intermediate_tuples,
            stats.lazy_expansions,
        );
    }
}

fn main() {
    let command = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if command == "inspect" {
        let query = std::env::args().nth(2).unwrap_or_else(|| "q13a_like".to_string());
        inspect(&query);
        return;
    }
    match command.as_str() {
        "fig14" => fig14(),
        "fig15" | "fig20" => fig15_20(),
        "fig16" => fig16(),
        "fig17" => fig17(),
        "fig19" => fig19(),
        "headline" => headline(),
        "all" => {
            fig14();
            fig15_20();
            fig16();
            fig17();
            fig19();
            headline();
        }
        other => {
            eprintln!("unknown experiment {other:?}; expected fig14|fig15|fig16|fig17|fig19|fig20|headline|all");
            std::process::exit(1);
        }
    }
}
