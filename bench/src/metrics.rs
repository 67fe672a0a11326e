//! The benchmark's metric names, units, directions and bounds, and the
//! result of one run. `../BENCHMARK.json` is the committed contract; a test
//! checks that every name here appears there with the same unit and bound.

use std::collections::BTreeMap;

/// Which direction of an end-to-end metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The workloads an end-to-end metric is defined on. A metric is reported
/// only where it is defined, never as another estimator under the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// `job_cold` and `lsqb_cyclic`.
    Suites,
    /// `lsqb_cyclic` only.
    Lsqb,
    /// `serve_hot` and `serve_churn`.
    Serve,
}

impl On {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            On::All => true,
            On::Suites => matches!(workload, "job_cold" | "lsqb_cyclic"),
            On::Lsqb => workload == "lsqb_cyclic",
            On::Serve => matches!(workload, "serve_hot" | "serve_churn"),
        }
    }
}

/// An end-to-end metric: what a user of the system waits for or pays.
/// `bound` is the share of the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub on: On,
}

/// `BENCHMARK.json`'s `end_to_end` list, which the driver bounds. That
/// contract makes every workload report every metric of the list, lets none
/// ever read 0, and refuses a benchmark whose runs of the same code spread
/// wider than a bound. Of the four metrics defined on all four workloads,
/// `failed_share` is 0 on a good run and `peak_rss_mb` moves by up to 22% on
/// `lsqb_cyclic` (thread arenas of the 2-thread runs). The other twelve are
/// listed under `per_layer` there (the file has no third place) and are held
/// to their bounds by `aa.sh`.
pub const CONTRACT: [&str; 2] = ["setup_s", "fj_geomean_ms"];

impl EndToEnd {
    pub fn in_contract(&self) -> bool {
        CONTRACT.contains(&self.name)
    }
}

/// The issue's fourteen end-to-end metrics. Every timing is raw wall time.
///
/// Bounds: the issue's 10%, with two kinds of exception. `failed_share` may
/// not rise at all. The two metrics of [`CONTRACT`] have that contract's
/// largest bound, 25%: `setup_s` because the builder's instructions say so,
/// `fj_geomean_ms` because on the shared 2-core sandbox raw wall times of
/// 25 s runs of the same code spread by 2-11%, and by 16% on a rough half
/// hour; see README.md.
pub const END_TO_END: &[EndToEnd] = &[
    metric("setup_s", "s", Better::Lower, 0.25, On::All),
    metric("fj_suite_s", "s", Better::Lower, 0.1, On::Suites),
    metric("fj_geomean_ms", "ms", Better::Lower, 0.25, On::All),
    metric("fj_par_suite_s", "s", Better::Lower, 0.1, On::Lsqb),
    metric("binary_suite_s", "s", Better::Lower, 0.1, On::Suites),
    metric("generic_suite_s", "s", Better::Lower, 0.1, On::Suites),
    metric("fj_vs_binary_geomean", "ratio", Better::Higher, 0.1, On::Suites),
    metric("fj_vs_generic_geomean", "ratio", Better::Higher, 0.1, On::Suites),
    metric("fj_worst_vs_binary", "ratio", Better::Higher, 0.1, On::Suites),
    metric("p50_ms", "ms", Better::Lower, 0.1, On::Serve),
    metric("p99_ms", "ms", Better::Lower, 0.1, On::Serve),
    metric("qps", "1/s", Better::Higher, 0.1, On::Serve),
    metric("failed_share", "share", Better::Lower, 0.0, On::All),
    metric("peak_rss_mb", "MiB", Better::Lower, 0.1, On::All),
];

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: On,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, on }
}

/// `BENCHMARK.json`'s `per_layer` list, `(name, unit)`, reported with
/// `--trace 1`: first the end-to-end metrics outside [`CONTRACT`], then the
/// layers. A metric a workload does not define, or a layer
/// it does not exercise or cannot observe through the public calls it makes,
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fj_suite_s", "s"),
    ("fj_par_suite_s", "s"),
    ("binary_suite_s", "s"),
    ("generic_suite_s", "s"),
    ("fj_vs_binary_geomean", "ratio"),
    ("fj_vs_generic_geomean", "ratio"),
    ("fj_worst_vs_binary", "ratio"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("qps", "1/s"),
    ("failed_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("workloads.gen_s", "s"),
    ("workloads.input_rows", "count"),
    ("plan.stats_collect_ms", "ms"),
    ("query.parse_us", "us"),
    ("plan.optimize_us", "us"),
    ("plan.compile_us", "us"),
    ("prep.select_s", "s"),
    ("trie.build_s", "s"),
    ("trie.maps_built", "count"),
    ("trie.lazy_expansions", "count"),
    ("trie.eager_build_s", "s"),
    ("exec.join_s", "s"),
    ("exec.probes", "count"),
    ("exec.probe_hit_share", "share"),
    ("exec.output_tuples", "count"),
    ("exec.tuples_per_s", "1/s"),
    ("exec.par_speedup", "ratio"),
    ("exec.tasks_spawned", "count"),
    ("exec.tasks_stolen", "count"),
    ("exec.max_worker_share", "share"),
    ("sink.aggregate_s", "s"),
    ("sink.result_chunks", "count"),
    ("engine.other_s", "s"),
    ("engine.layer_gap_share", "share"),
    ("binary.build_s", "s"),
    ("binary.join_s", "s"),
    ("binary.intermediate_tuples", "count"),
    ("generic.build_s", "s"),
    ("generic.join_s", "s"),
    ("cache.trie_hit_share", "share"),
    ("cache.trie_misses", "count"),
    ("cache.trie_evictions", "count"),
    ("cache.trie_bytes_evicted", "count"),
    ("cache.trie_coalesced", "count"),
    ("cache.trie_resident_mb", "MiB"),
    ("cache.plan_hit_share", "share"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.overhead_p50_us", "us"),
    ("serve.overhead_p99_us", "us"),
    ("serve.tries_built_per_req", "count"),
    ("serve.prepare_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("protocol.codec_ns", "ns"),
    ("harness.trace_overhead_share", "share"),
    ("harness.spans", "count"),
    ("harness.samples", "count"),
];

/// The four workloads; `BENCHMARK.json` says why each exists.
pub const WORKLOADS: &[&str] = &["job_cold", "lsqb_cyclic", "serve_hot", "serve_churn"];

/// The contract's `run_seconds`: how long one run measures.
pub const RUN_SECONDS: u32 = 25;

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong: the first failed operations, and workload checks that
    /// did not hold (a trie miss on `serve_hot`); any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Checks on the harness's own attribution (the layer gap above 5%). The
    /// answers are still correct, so one run reports them and carries on;
    /// `run.sh` without `--trace` exits nonzero on any.
    pub warnings: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed beside the metrics: sample counts, sizes, cores.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The outcome of a run whose set-up failed: one operation, failed.
    pub fn setup_failed(error: String) -> Self {
        Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![format!("set-up failed: {error}")],
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `(name, unit, value)` of every end-to-end metric defined on `workload`
    /// that the run resolved (`fj_par_suite_s` is not, below 2 cores).
    pub fn end_to_end(&self, workload: &str) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .filter(|m| m.on.covers(workload))
            .filter_map(|m| Some((m.name, m.unit, *self.values.get(m.name)?)))
            .collect()
    }

    /// What the contract's result object holds: its `end_to_end` list without
    /// tracing, its `per_layer` list with it. What a run did not measure
    /// (its set-up failed, a metric is not defined on its workload) reads 0.
    pub fn contract(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.in_contract())
                .map(|m| (m.name, m.unit, self.values.get(m.name).copied().unwrap_or(0.0)))
                .collect()
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_partial_metric_is_listed_per_layer() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().filter(|m| m.in_contract()).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().filter(|m| !m.in_contract()) {
            assert!(PER_LAYER.contains(&(m.name, m.unit)), "{} is reported nowhere", m.name);
        }
        for name in CONTRACT {
            let metric = END_TO_END.iter().find(|m| m.name == name).expect("a listed metric");
            assert_eq!(metric.on, On::All, "{name} is not defined on every workload");
        }
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
