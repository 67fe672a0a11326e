//! Execution options for the Free Join engine.
//!
//! What an option can select is which tries are built, how a plan is
//! compiled and how many workers run it. How a node is ordered and stepped
//! through is not an option: the executor ranks a node's covers and probes
//! per binding from the tries' own row counts, and batches the probes of
//! every node that has any (Section 4.3, Figure 13; see [`crate::exec`]).

use serde::{Deserialize, Serialize};

/// Which trie build strategy to use (the ablation of Section 5.3 / Figure 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrieStrategy {
    /// Fully expand every trie ahead of time ("simple trie" in the paper) —
    /// the strategy of a textbook Generic Join implementation.
    Simple,
    /// Expand the first level of each trie ahead of time and the inner levels
    /// lazily — the "simple lazy trie" (SLT) of Freitag et al. [VLDB 2020].
    Slt,
    /// The paper's Column-Oriented Lazy Trie: build nothing up front, expand
    /// a level only when it is first probed; iterate the base table directly
    /// when possible.
    #[default]
    Colt,
}

impl TrieStrategy {
    /// Human-readable name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            TrieStrategy::Simple => "simple",
            TrieStrategy::Slt => "slt",
            TrieStrategy::Colt => "colt",
        }
    }
}

/// Options controlling Free Join execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreeJoinOptions {
    /// Trie build strategy (default: COLT).
    pub trie: TrieStrategy,
    /// Factorized output (Section 4.4 / Figure 19), decided at compile time:
    /// the plan compiler drops every *dead* variable — bound by one atom and
    /// read by nothing: no join, not the head or the grouping variables, no
    /// later pipeline — before it converts the binary plan, so the executor
    /// never iterates it and the rows it told apart are counted as a
    /// trie-leaf multiplicity (see [`crate::compile`]). On by default; the
    /// result is the same for every aggregate. Off compiles every variable
    /// of every atom into the plan: the enumerating reference the
    /// equivalence tests and the Figure 19 ablation compare against. The
    /// flag changes the compiled plan, so it is part of the plan-cache key.
    pub factorize_output: bool,
    /// Optimize the converted Free Join plan by factoring probes into earlier
    /// nodes (Section 4.1): a probe whose variables are all bound one node
    /// earlier moves there, and one with only some of them bound — the
    /// closing atom of a cycle — is split, its bound part moving
    /// (`fj_plan::factor`). Disabling this makes Free Join behave exactly
    /// like the binary join plan it was given.
    pub optimize_plan: bool,
    /// Number of worker threads for morsel-driven parallel execution.
    /// `0` (the default) uses the machine's available parallelism; `1` runs
    /// the plan on the calling thread (no scheduler, no spawned thread). Any
    /// value > 1 runs the work-stealing scheduler: the first plan node's
    /// cover iteration seeds a shared injector, and expansions anywhere in
    /// the plan that reach `split_threshold` are re-split into stealable
    /// sub-range tasks (see `exec::execute_pipeline`).
    pub num_threads: usize,
    /// An expansion (or independent-tail product) with at least this many
    /// entries is split into sub-range tasks that idle workers steal (above
    /// one thread; splitting changes neither results nor their merged order).
    /// An expansion is measured by the rows below its cover's trie node,
    /// then by the keys of the level those rows are forced into. Minimum 2
    /// (a single entry cannot be split); the default of 1024 keeps task
    /// overhead negligible on uniform workloads while still breaking up
    /// skewed subtrees. No production caller sets it: it is the lever of
    /// CI's forced-split race-hunting pass and of `examples/trace_query.rs`.
    pub split_threshold: usize,
}

impl Default for FreeJoinOptions {
    fn default() -> Self {
        FreeJoinOptions {
            trie: TrieStrategy::Colt,
            factorize_output: true,
            optimize_plan: true,
            num_threads: 0,
            split_threshold: 1024,
        }
    }
}

impl FreeJoinOptions {
    /// A configuration that makes Free Join execute the binary plan as-is
    /// (no factoring, no pruning: every variable is enumerated, probe for
    /// probe like the binary hash join), useful as a sanity baseline.
    pub fn binary_equivalent() -> Self {
        FreeJoinOptions { optimize_plan: false, factorize_output: false, ..Self::default() }
    }

    /// Builder-style setter for the trie strategy.
    pub fn with_trie(mut self, trie: TrieStrategy) -> Self {
        self.trie = trie;
        self
    }

    /// Builder-style setter for factorized output (compile-time
    /// dead-variable pruning); `false` selects the enumerating reference.
    pub fn with_factorized_output(mut self, on: bool) -> Self {
        self.factorize_output = on;
        self
    }

    /// Builder-style setter for the worker thread count (`0` = available
    /// parallelism, `1` = serial).
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builder-style setter for the split threshold (clamped to at least 2 —
    /// a single-entry expansion cannot be split).
    pub fn with_split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = threshold.max(2);
        self
    }

    /// The concrete number of worker threads this configuration runs with:
    /// `num_threads` itself, or the machine's available parallelism when it
    /// is `0` (auto).
    pub fn effective_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = FreeJoinOptions::default();
        assert_eq!(o.trie, TrieStrategy::Colt);
        assert!(o.optimize_plan);
        assert!(o.factorize_output, "dead-variable pruning is on by default");
        assert_eq!(o.num_threads, 0, "default is auto (available parallelism)");
        assert!(o.effective_threads() >= 1);
        assert_eq!(o.split_threshold, 1024);
    }

    #[test]
    fn thread_count_resolution() {
        let auto = FreeJoinOptions::default();
        assert!(auto.effective_threads() >= 1);
        let serial = FreeJoinOptions::default().with_num_threads(1);
        assert_eq!(serial.effective_threads(), 1);
        let four = FreeJoinOptions::default().with_num_threads(4);
        assert_eq!(four.effective_threads(), 4);
    }

    #[test]
    fn builder_setters() {
        let o = FreeJoinOptions::default()
            .with_trie(TrieStrategy::Slt)
            .with_factorized_output(false);
        assert_eq!(o.trie, TrieStrategy::Slt);
        assert!(!o.factorize_output);
        let o = FreeJoinOptions::default().with_split_threshold(0);
        assert_eq!(o.split_threshold, 2, "split threshold is clamped to at least 2");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TrieStrategy::Simple.name(), "simple");
        assert_eq!(TrieStrategy::Slt.name(), "slt");
        assert_eq!(TrieStrategy::Colt.name(), "colt");
    }
}
