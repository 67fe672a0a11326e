//! Cross-cutting invariants of the per-node query profiler: the per-node
//! accumulators must *reconcile* with the engine's `ExecStats` totals
//! (every probe the executor counts is attributed to exactly one plan
//! node), and the count fields must be *deterministic* — identical between
//! serial and work-stealing parallel execution, for every trie strategy,
//! because parallel workers accumulate into private sheets that merge by
//! plain addition.

use freejoin::prelude::*;
use freejoin::query::ExecStats;
use freejoin::workloads::micro;
use freejoin::workloads::Workload;
use std::sync::Arc;

const STRATEGIES: [TrieStrategy; 3] = [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt];

fn workloads() -> Vec<Workload> {
    vec![micro::clover(120), micro::skewed_triangle(40, 6, 0.8, 7), micro::chain(3, 200, 40, 11)]
}

fn session_with(strategy: TrieStrategy, threads: usize) -> Session {
    // split_threshold 8 forces real task splitting (and thus sheet merging
    // across workers) even on these small inputs.
    Session::new(Arc::new(EngineCaches::with_defaults())).with_options(
        FreeJoinOptions::default()
            .with_trie(strategy)
            .with_num_threads(threads)
            .with_split_threshold(8),
    )
}

/// One profiled execution without overrides.
fn profiled(prepared: &Prepared, catalog: &Catalog) -> (QueryOutput, ExecStats, QueryProfile) {
    let request = ExecRequest { profile: true, ..ExecRequest::default() };
    let report = prepared.execute(catalog, &request).unwrap();
    assert!(report.trace.is_none(), "nobody asked for a trace");
    (report.output, report.stats, report.profile.expect("the request asked for a profile"))
}

/// The count fields of one node, everything except wall time (which is
/// genuinely nondeterministic and excluded from the determinism contract).
type NodeCounts = (String, f64, u64, u64, u64, u64);

fn counts(profile: &QueryProfile) -> Vec<Vec<NodeCounts>> {
    profile
        .pipelines
        .iter()
        .map(|p| {
            p.nodes
                .iter()
                .map(|n| {
                    (
                        n.label.clone(),
                        n.estimated_rows,
                        n.expansions,
                        n.probes,
                        n.probe_hits,
                        n.output_rows,
                    )
                })
                .collect()
        })
        .collect()
}

/// Per-node sums equal the `ExecStats` totals, for every workload, trie
/// strategy and thread count — no probe is dropped or double-counted by
/// the attribution sites in the executor.
#[test]
fn per_node_sums_reconcile_with_exec_stats() {
    for workload in workloads() {
        for strategy in STRATEGIES {
            for threads in [1, 4] {
                let session = session_with(strategy, threads);
                for named in &workload.queries {
                    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
                    let (out, stats, profile) = profiled(&prepared, &workload.catalog);
                    let ctx = format!("{} / {strategy:?} / {threads} threads", named.name);
                    assert_eq!(profile.total_probes(), stats.probes, "{ctx}");
                    assert_eq!(profile.total_probe_hits(), stats.probe_hits, "{ctx}");
                    assert_eq!(profile.output_rows(), out.cardinality(), "{ctx}");
                    for pipeline in &profile.pipelines {
                        for node in &pipeline.nodes {
                            assert!(node.probe_hits <= node.probes, "{ctx}: {node:?}");
                            assert!(node.estimated_rows >= 1.0, "{ctx}: {node:?}");
                        }
                    }
                }
            }
        }
    }
}

/// Serial vs parallel: the *semantic* fields (plan shape, estimates, and
/// per-node actual rows) are identical. Probe and expansion counts are
/// allowed to differ — the parallel executor's task re-splitting changes
/// batch boundaries and with them how much candidate enumeration happens
/// (the engine's own `ExecStats` totals differ the same way, profiling
/// off) — but two parallel runs of the same configuration must produce
/// byte-identical count profiles: splitting is deterministic, sheet
/// merging is plain addition, and steals change who counts, not what.
#[test]
fn count_profile_is_deterministic_per_configuration() {
    for workload in workloads() {
        for strategy in STRATEGIES {
            for named in &workload.queries {
                let run = |threads: usize| {
                    let session = session_with(strategy, threads);
                    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
                    let (_, _, profile) = profiled(&prepared, &workload.catalog);
                    counts(&profile)
                };
                let ctx = format!("{} / {strategy:?}", named.name);
                let serial = run(1);
                let parallel = run(4);
                assert_eq!(parallel, run(4), "{ctx}: parallel counts are not deterministic");
                // Same plan tree, same estimates, same actual rows per node.
                let semantic = |profile: &[Vec<NodeCounts>]| -> Vec<Vec<(String, f64, u64)>> {
                    profile
                        .iter()
                        .map(|p| p.iter().map(|n| (n.0.clone(), n.1, n.5)).collect())
                        .collect()
                };
                assert_eq!(
                    semantic(&serial),
                    semantic(&parallel),
                    "{ctx}: serial and parallel disagree on rows or estimates"
                );
            }
        }
    }
}

/// Repeated profiled executions of the same prepared query are idempotent:
/// the rows every node produces and the work it does depend only on the
/// plan and data, cold or warm. With `a`, `b`, `c` pruned the clover is the
/// single node `[R(x) S(x) T(x)]` and all three subatoms are cover
/// candidates: they are ranked by their row counts, which the levels the
/// cold run forced do not change, so the warm runs iterate the same subatom
/// and probe the other two in the same order.
#[test]
fn warm_reexecution_reports_identical_counts() {
    let workload = micro::clover(100);
    let session = session_with(TrieStrategy::Colt, 1);
    let named = &workload.queries[0];
    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
    let (_, cold_stats, cold) = profiled(&prepared, &workload.catalog);
    let (_, warm_stats, warm) = profiled(&prepared, &workload.catalog);
    let (_, _, again) = profiled(&prepared, &workload.catalog);
    assert!(warm_stats.tries_built <= cold_stats.tries_built);
    assert_eq!(counts(&cold), counts(&warm));
    assert_eq!(counts(&warm), counts(&again));
    let rows = |profile: &QueryProfile| -> Vec<(String, u64)> {
        let nodes = profile.pipelines.iter().flat_map(|p| &p.nodes);
        nodes.map(|n| (n.label.clone(), n.output_rows)).collect()
    };
    assert_eq!(rows(&cold), rows(&warm));
}
