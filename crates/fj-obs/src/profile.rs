//! The per-plan-node query profiler's data model.
//!
//! The executor bumps a [`ProfileSheet`] — a flat array of per-node
//! accumulators, indexed by plan-node id — while it runs. Profiling is
//! enabled per execution; a *disabled* sheet is an empty vector, so it
//! allocates nothing and every bump is a bounds check that fails (the
//! zero-overhead off state a request that asks for no profile relies on).
//! Each worker owns its own sheet; sheets merge at pipeline end, and the
//! session pairs the merged actuals with the optimizer's per-node estimates
//! into a [`QueryProfile`].

use std::fmt::Write as _;
use std::time::Duration;

/// A plan node's estimate is *bust* when its actual output rows exceed this
/// factor times the optimizer's prepare-time estimate. One shared constant
/// so the `EXPLAIN ANALYZE` `!` markers, the `fj_exec_estimate_busts`
/// counter, and tests all agree on what counts as a bust. The factor is
/// deliberately loose: cardinality estimates from independence assumptions
/// are routinely off by 2–3×; a 4× overshoot is the static order having
/// planned against the wrong distribution.
pub const ESTIMATE_BUST_FACTOR: f64 = 4.0;

/// One plan node's accumulators. `#[repr(align(64))]` keeps each node's
/// counters on their own cache line so concurrent workers bumping adjacent
/// nodes in their private sheets never false-share after a sheet is handed
/// across threads.
#[repr(align(64))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeAcc {
    /// Cover entries iterated (plus product rows emitted at tail nodes).
    pub expansions: u64,
    /// Probe operations issued by this node.
    pub probes: u64,
    /// Probes that found a match.
    pub probe_hits: u64,
    /// Weighted tuples this node produced — bindings that survived every
    /// probe and continued into the next node, or (at the last node) were
    /// emitted as results. This is the node's *actual* cardinality, the
    /// number the optimizer's estimate is compared against.
    pub output_rows: u64,
    /// Coarse wall time attributed to this node, inclusive of the nodes it
    /// recursed into; summed across workers, so it can exceed wall clock.
    pub wall_nanos: u64,
}

impl NodeAcc {
    /// Accumulate another node record into this one.
    pub fn merge(&mut self, other: &NodeAcc) {
        self.expansions += other.expansions;
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.output_rows += other.output_rows;
        self.wall_nanos += other.wall_nanos;
    }
}

/// A per-worker flat accumulator array, indexed by plan-node id. An empty
/// sheet is *disabled*: it owns no allocation and every bump is a no-op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSheet {
    nodes: Vec<NodeAcc>,
}

impl ProfileSheet {
    /// A disabled sheet (no allocation; all bumps are no-ops).
    pub fn disabled() -> Self {
        ProfileSheet::default()
    }

    /// An enabled sheet with one accumulator per plan node.
    pub fn enabled(num_nodes: usize) -> Self {
        ProfileSheet { nodes: vec![NodeAcc::default(); num_nodes] }
    }

    /// Is this sheet recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// The per-node records (empty when disabled).
    pub fn nodes(&self) -> &[NodeAcc] {
        &self.nodes
    }

    /// Record `n` expansions at `node`.
    #[inline]
    pub fn add_expansions(&mut self, node: usize, n: u64) {
        if let Some(acc) = self.nodes.get_mut(node) {
            acc.expansions += n;
        }
    }

    /// Record one probe (and its outcome) at `node`.
    #[inline]
    pub fn add_probe(&mut self, node: usize, hit: bool) {
        if let Some(acc) = self.nodes.get_mut(node) {
            acc.probes += 1;
            acc.probe_hits += hit as u64;
        }
    }

    /// Record `weight` output rows at `node`.
    #[inline]
    pub fn add_output_rows(&mut self, node: usize, weight: u64) {
        if let Some(acc) = self.nodes.get_mut(node) {
            acc.output_rows += weight;
        }
    }

    /// Attribute wall time to `node`.
    #[inline]
    pub fn add_wall(&mut self, node: usize, elapsed: Duration) {
        if let Some(acc) = self.nodes.get_mut(node) {
            acc.wall_nanos += elapsed.as_nanos() as u64;
        }
    }

    /// Merge another worker's sheet into this one. A disabled `other` is a
    /// no-op; merging into a disabled `self` adopts `other`'s records.
    pub fn merge(&mut self, other: &ProfileSheet) {
        if other.nodes.is_empty() {
            return;
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), NodeAcc::default());
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.merge(theirs);
        }
    }
}

/// One plan node's profile: the executor's actuals next to the optimizer's
/// estimate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// Human-readable node label (the node's subatoms), filled by the layer
    /// that knows the plan shape.
    pub label: String,
    /// The optimizer's estimated cardinality after this node.
    pub estimated_rows: f64,
    /// Actual weighted tuples the node produced.
    pub output_rows: u64,
    /// Cover entries iterated at this node.
    pub expansions: u64,
    /// Probes issued by this node.
    pub probes: u64,
    /// Probes that matched.
    pub probe_hits: u64,
    /// Coarse wall time attributed to this node (inclusive; summed across
    /// workers).
    pub wall_nanos: u64,
}

impl NodeProfile {
    /// Fraction of this node's probes that matched; 1.0 for probe-free nodes
    /// (nothing was filtered).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            1.0
        } else {
            self.probe_hits as f64 / self.probes as f64
        }
    }

    /// Did this node bust its estimate — actual output rows more than
    /// [`ESTIMATE_BUST_FACTOR`]× the optimizer's prepare-time estimate?
    /// Estimates are floored at one row so an "estimated empty" node that
    /// produced a handful of rows does not flag.
    pub fn bust(&self) -> bool {
        self.output_rows as f64 > ESTIMATE_BUST_FACTOR * self.estimated_rows.max(1.0)
    }
}

/// One pipeline's per-node profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineProfile {
    /// Human-readable pipeline label.
    pub label: String,
    /// Per-node records, in plan-node order. Empty for a pipeline that did
    /// not run because its result was cached (the label says so): no
    /// actuals, so nothing to set against an estimate or to count as a bust.
    pub nodes: Vec<NodeProfile>,
}

/// A whole query's profile: one [`PipelineProfile`] per pipeline of the
/// plan, in dependency order — the last pipeline produced the query output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Filter conjuncts the session derived before binding the inputs, each
    /// with its source (`movie_keyword.movie_id = 7 <- title.id`): why an
    /// input the query text does not filter has three rows.
    pub derived: Vec<String>,
    /// Per-pipeline profiles in dependency order.
    pub pipelines: Vec<PipelineProfile>,
}

impl QueryProfile {
    /// Total probes across every node of every pipeline.
    pub fn total_probes(&self) -> u64 {
        self.pipelines.iter().flat_map(|p| &p.nodes).map(|n| n.probes).sum()
    }

    /// Total probe hits across every node of every pipeline.
    pub fn total_probe_hits(&self) -> u64 {
        self.pipelines.iter().flat_map(|p| &p.nodes).map(|n| n.probe_hits).sum()
    }

    /// The final pipeline's last node's output rows — the query's output
    /// cardinality (0 for an empty profile).
    pub fn output_rows(&self) -> u64 {
        self.pipelines
            .last()
            .and_then(|p| p.nodes.last())
            .map(|n| n.output_rows)
            .unwrap_or(0)
    }

    /// Number of nodes whose actuals bust their estimate (see
    /// [`NodeProfile::bust`]) — what the session folds into the
    /// `fj_exec_estimate_busts` counter, so the metric reconciles with the
    /// rendered `!` markers by construction.
    pub fn estimate_busts(&self) -> u64 {
        self.pipelines.iter().flat_map(|p| &p.nodes).filter(|n| n.bust()).count() as u64
    }

    /// Render the profile as an indented plan tree annotated with est/actual
    /// rows, probe hit rates and coarse per-node times — the body of
    /// `Session::explain_analyze` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for derived in &self.derived {
            writeln!(out, "derived: {derived}").expect("write to string");
        }
        for pipeline in &self.pipelines {
            writeln!(out, "{}", pipeline.label).expect("write to string");
            for (k, node) in pipeline.nodes.iter().enumerate() {
                let time_ms = node.wall_nanos as f64 / 1e6;
                // `!` flags a bust node: the actuals ran away from the
                // estimate by more than ESTIMATE_BUST_FACTOR — the signal
                // that the static order planned against the wrong
                // distribution.
                let bust = if node.bust() { " !" } else { "" };
                writeln!(
                    out,
                    "  node {k}: {}  est={:.1} actual={}{bust} expansions={} probes={} \
                     hit_rate={:.3} time={time_ms:.3}ms",
                    node.label,
                    node.estimated_rows,
                    node.output_rows,
                    node.expansions,
                    node.probes,
                    node.hit_rate(),
                )
                .expect("write to string");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sheet_is_a_no_op() {
        let mut sheet = ProfileSheet::disabled();
        assert!(!sheet.is_enabled());
        sheet.add_expansions(0, 10);
        sheet.add_probe(3, true);
        sheet.add_output_rows(1, 5);
        sheet.add_wall(0, Duration::from_millis(1));
        assert!(sheet.nodes().is_empty());
    }

    #[test]
    fn enabled_sheet_records_per_node() {
        let mut sheet = ProfileSheet::enabled(3);
        assert!(sheet.is_enabled());
        sheet.add_expansions(0, 2);
        sheet.add_probe(0, true);
        sheet.add_probe(0, false);
        sheet.add_output_rows(2, 7);
        // Out-of-range bumps are ignored, matching the disabled behaviour.
        sheet.add_expansions(9, 1);
        assert_eq!(sheet.nodes()[0].expansions, 2);
        assert_eq!(sheet.nodes()[0].probes, 2);
        assert_eq!(sheet.nodes()[0].probe_hits, 1);
        assert_eq!(sheet.nodes()[2].output_rows, 7);
    }

    #[test]
    fn merge_adopts_and_accumulates() {
        let mut total = ProfileSheet::disabled();
        let mut a = ProfileSheet::enabled(2);
        a.add_expansions(1, 3);
        total.merge(&a);
        assert_eq!(total.nodes()[1].expansions, 3);
        let mut b = ProfileSheet::enabled(2);
        b.add_expansions(1, 4);
        b.add_probe(0, true);
        total.merge(&b);
        assert_eq!(total.nodes()[1].expansions, 7);
        assert_eq!(total.nodes()[0].probe_hits, 1);
        // Merging a disabled sheet changes nothing.
        let before = total.clone();
        total.merge(&ProfileSheet::disabled());
        assert_eq!(total, before);
    }

    #[test]
    fn bust_detection_counts_and_marks() {
        let bust = NodeProfile { estimated_rows: 10.0, output_rows: 41, ..Default::default() };
        assert!(bust.bust(), "41 > 4 × 10");
        let fine = NodeProfile { estimated_rows: 10.0, output_rows: 40, ..Default::default() };
        assert!(!fine.bust(), "exactly at the factor is not a bust");
        // The estimate floor: an "estimated empty" node producing a few rows
        // is not a bust.
        let floored = NodeProfile { estimated_rows: 0.0, output_rows: 4, ..Default::default() };
        assert!(!floored.bust());
        let profile = QueryProfile {
            derived: Vec::new(),
            pipelines: vec![PipelineProfile {
                label: "pipeline 0 (final)".into(),
                nodes: vec![bust, fine, floored],
            }],
        };
        assert_eq!(profile.estimate_busts(), 1);
        let text = profile.render();
        assert!(text.contains("actual=41 !"), "{text}");
        assert!(!text.contains("actual=40 !"), "{text}");
    }

    #[test]
    fn node_accs_are_cache_line_sized() {
        assert_eq!(std::mem::align_of::<NodeAcc>(), 64);
        assert_eq!(std::mem::size_of::<NodeAcc>(), 64);
    }

    #[test]
    fn profile_render_and_totals() {
        let profile = QueryProfile {
            derived: vec!["S.y = 3 <- R.y".into()],
            pipelines: vec![PipelineProfile {
                label: "pipeline 0 (final)".into(),
                nodes: vec![
                    NodeProfile {
                        label: "[#0(x,y) #1(y)]".into(),
                        estimated_rows: 120.0,
                        output_rows: 100,
                        expansions: 150,
                        probes: 150,
                        probe_hits: 100,
                        wall_nanos: 2_000_000,
                    },
                    NodeProfile {
                        label: "[#2(z)]".into(),
                        estimated_rows: 80.0,
                        output_rows: 90,
                        expansions: 90,
                        probes: 0,
                        probe_hits: 0,
                        wall_nanos: 500_000,
                    },
                ],
            }],
        };
        assert_eq!(profile.total_probes(), 150);
        assert_eq!(profile.total_probe_hits(), 100);
        assert_eq!(profile.output_rows(), 90);
        let text = profile.render();
        assert!(text.starts_with("derived: S.y = 3 <- R.y\npipeline 0 (final)"), "{text}");
        assert!(text.contains("est=120.0 actual=100"), "{text}");
        assert!(text.contains("hit_rate=0.667"), "{text}");
        assert!(text.contains("node 1: [#2(z)]"), "{text}");
    }
}
