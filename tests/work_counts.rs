//! Work-count goldens: what the engine does, counted, on both suites.
//!
//! One line per (suite, query, plan shape, trie strategy, pruned or
//! enumerated output), run serially through `FreeJoinEngine`, with the five
//! counts that say how much work a run did: `probes`, `output_tuples`,
//! `lazy_expansions`, `tries_built` and `result_chunks`. They are
//! schedule-free at one thread, so a change that should leave the engine's
//! work alone proves it here instead of in a traced benchmark run. A change
//! that moves a line rewrites `tests/golden/work_counts.txt` and says why.
//!
//! Suites: JOB-like at `JobConfig::default()` and LSQB-like at
//! `LsqbConfig::at_scale(0.3)`. Plan shapes: the optimizer's default and
//! left-deep. LSQB-like `q3` also runs under the bushy plan the optimizer
//! gives it today, written out, so its lines stay when the optimizer stops
//! choosing that plan.

use freejoin::plan::{optimize, BinaryPlan, CatalogStats, OptimizerOptions, PlanTree};
use freejoin::prelude::*;
use freejoin::workloads::job::{self, JobConfig};
use freejoin::workloads::lsqb::{self, LsqbConfig};
use freejoin::workloads::{NamedQuery, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One line of the grid.
struct Case<'w> {
    workload: &'w Workload,
    named: &'w NamedQuery,
    shape: &'static str,
    plan: BinaryPlan,
    trie: TrieStrategy,
    pruned: bool,
}

impl Case<'_> {
    fn count(&self) -> String {
        let options = FreeJoinOptions { trie: self.trie, ..FreeJoinOptions::default() }
            .with_num_threads(1)
            .with_factorized_output(self.pruned);
        let (name, query, shape) = (&self.named.name, &self.named.query, self.shape);
        let (_, stats) = FreeJoinEngine::new(options)
            .execute(&self.workload.catalog, query, &self.plan)
            .unwrap_or_else(|e| panic!("{} {name} {shape}: {e}", self.workload.name));
        format!(
            "{} {name} {shape} {:?} {} probes={} output_tuples={} lazy_expansions={} \
             tries_built={} result_chunks={}\n",
            self.workload.name,
            self.trie,
            if self.pruned { "pruned" } else { "enumerated" },
            stats.probes,
            stats.output_tuples,
            stats.lazy_expansions,
            stats.tries_built,
            stats.result_chunks,
        )
    }
}

/// Push one case per trie strategy and output mode of `plan`.
fn push_cases<'w>(
    cases: &mut Vec<Case<'w>>,
    workload: &'w Workload,
    named: &'w NamedQuery,
    shape: &'static str,
    plan: &BinaryPlan,
) {
    for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
        for pruned in [true, false] {
            cases.push(Case { workload, named, shape, plan: plan.clone(), trie, pruned });
        }
    }
}

/// Every query of `workload` under the optimizer's default and left-deep plans.
fn push_suite<'w>(cases: &mut Vec<Case<'w>>, workload: &'w Workload) {
    let stats = CatalogStats::collect(&workload.catalog);
    for named in &workload.queries {
        for (shape, left_deep_only) in [("default", false), ("left_deep", true)] {
            let options = OptimizerOptions { left_deep_only, ..OptimizerOptions::default() };
            push_cases(cases, workload, named, shape, &optimize(&named.query, &stats, options));
        }
    }
}

/// Every case's line, in case order. The grid takes ~50 s on one thread in
/// the dev profile, so the cases are shared out over a few.
fn count_all(cases: &[Case]) -> String {
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mut lines = vec![String::new(); cases.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut counted = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(case) = cases.get(i) else { return counted };
                        counted.push((i, case.count()));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, line) in worker.join().expect("a counting thread finishes") {
                lines[i] = line;
            }
        }
    });
    lines.concat()
}

#[test]
fn work_counts_match_the_golden() {
    let job = job::workload(&JobConfig::default());
    let lsqb = lsqb::workload(&LsqbConfig::at_scale(0.3));
    let mut cases = Vec::new();
    push_suite(&mut cases, &job);
    push_suite(&mut cases, &lsqb);
    // k1..k5 are atoms 0..4 of LSQB-like q3.
    let q3 = lsqb.queries.iter().find(|q| q.name == "q3").expect("LSQB-like q3");
    let join = |l, r| PlanTree::Join(Box::new(l), Box::new(r));
    let k5_k4_k3 = join(join(PlanTree::Leaf(4), PlanTree::Leaf(3)), PlanTree::Leaf(2));
    let bushy = BinaryPlan::new(join(join(PlanTree::Leaf(1), k5_k4_k3), PlanTree::Leaf(0)));
    assert_eq!(bushy.display(&q3.query).to_string(), "((k2 ⋈ ((k5 ⋈ k4) ⋈ k3)) ⋈ k1)");
    push_cases(&mut cases, &lsqb, q3, "bushy", &bushy);
    assert_eq!(cases.len(), (24 + 5) * 2 * 6 + 6, "the whole grid is counted");

    let counted = count_all(&cases);
    let golden = include_str!("golden/work_counts.txt");
    for (counted, golden) in counted.lines().zip(golden.lines()) {
        assert_eq!(counted, golden);
    }
    assert_eq!(counted.lines().count(), golden.lines().count());
}
