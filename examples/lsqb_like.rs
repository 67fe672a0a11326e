//! Run the LSQB-like subgraph queries (q1–q5) at a small scale factor with
//! all three engines, plus Free Join without factorized output (every
//! variable enumerated, the paper's Figure 19 ablation) — a miniature of
//! the paper's Figures 16 and 19.
//!
//! ```text
//! cargo run --release --example lsqb_like
//! ```

use freejoin::prelude::*;
use freejoin::workloads::lsqb;

fn main() {
    let config = lsqb::LsqbConfig::at_scale(0.2);
    let workload = lsqb::workload(&config);
    println!(
        "dataset: {} ({} persons, {} knows edges)",
        workload.name,
        workload.catalog.get("person").unwrap().num_rows(),
        workload.catalog.get("knows").unwrap().num_rows()
    );
    println!(
        "{:<6} {:>8} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "query", "cyclic", "binary", "generic", "fj-plain", "freejoin", "tuples"
    );

    let binary = BinaryJoinEngine::new();
    let generic = GenericJoinEngine::new();
    let free_plain = FreeJoinEngine::new(FreeJoinOptions::default().with_factorized_output(false));
    let free = FreeJoinEngine::new(FreeJoinOptions::default());
    let stats = CatalogStats::collect(&workload.catalog);

    for named in &workload.queries {
        let plan = optimize(&named.query, &stats, OptimizerOptions::default());
        let (b_out, b_stats) = binary.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (g_out, g_stats) = generic.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (f_out, f_stats) = free_plain.execute(&workload.catalog, &named.query, &plan).unwrap();
        let (ff_out, ff_stats) = free.execute(&workload.catalog, &named.query, &plan).unwrap();
        assert_eq!(b_out.cardinality(), f_out.cardinality());
        assert_eq!(g_out.cardinality(), f_out.cardinality());
        assert_eq!(ff_out.cardinality(), f_out.cardinality());
        println!(
            "{:<6} {:>8} {:>12?} {:>12?} {:>12?} {:>14?} {:>12}",
            named.name,
            named.cyclic,
            b_stats.reported_time(),
            g_stats.reported_time(),
            f_stats.reported_time(),
            ff_stats.reported_time(),
            f_out.cardinality()
        );
    }
}
