//! Catalog statistics and cardinality estimation.
//!
//! The paper relies on DuckDB's cost-based optimizer for binary plans; this
//! module provides the statistics and estimation machinery our stand-in
//! optimizer uses. Estimates follow the textbook System-R model:
//!
//! * base cardinality = row count × filter selectivity,
//! * per-variable distinct counts scaled by selectivity,
//! * join cardinality `|A ⋈ B| = |A|·|B| / Π_v max(d_A(v), d_B(v))` over the
//!   shared variables `v`.
//!
//! The [`EstimatorMode::AlwaysOne`] mode reproduces the paper's robustness
//! experiment (Section 5.4), which "hijacks DuckDB's optimizer ... by
//! modifying its cardinality estimator to always return 1".

use crate::binary_plan::PipeInput;
use crate::fj_plan::FreeJoinPlan;
use fj_query::{Atom, ConjunctiveQuery};
use fj_storage::{Catalog, Relation};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Statistics for one column of a relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Minimum value for integer columns.
    pub min: Option<i64>,
    /// Maximum value for integer columns.
    pub max: Option<i64>,
}

/// Statistics for one relation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of rows.
    pub rows: usize,
    /// Per-column statistics, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
    /// Column names in schema order, so positional atom variables can be
    /// resolved to their column statistics.
    pub column_order: Vec<String>,
}

impl TableStats {
    /// Scan one relation: the unit [`CatalogStats::collect`] is made of, for
    /// callers that keep statistics per relation version.
    pub fn collect(relation: &Relation) -> Self {
        let mut columns = BTreeMap::new();
        let mut column_order = Vec::with_capacity(relation.arity());
        for (idx, field) in relation.schema().fields().iter().enumerate() {
            let col = relation.column(idx);
            let (min, max) =
                col.int_min_max().map(|(a, b)| (Some(a), Some(b))).unwrap_or((None, None));
            columns.insert(
                field.name.clone(),
                ColumnStats { distinct: col.distinct_count(), min, max },
            );
            column_order.push(field.name.clone());
        }
        TableStats { rows: relation.num_rows(), columns, column_order }
    }

    /// Distinct count of a column, defaulting to the row count when the
    /// column is unknown (conservative).
    pub fn distinct(&self, column: &str) -> usize {
        self.columns.get(column).map(|c| c.distinct).unwrap_or(self.rows.max(1))
    }

    /// Distinct count of the column at schema position `pos`.
    pub fn distinct_at(&self, pos: usize) -> usize {
        self.column_order
            .get(pos)
            .map(|name| self.distinct(name))
            .unwrap_or(self.rows.max(1))
    }
}

/// Statistics for every relation in a catalog.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CatalogStats {
    /// Per-relation statistics, keyed by relation name.
    pub tables: BTreeMap<String, TableStats>,
}

impl CatalogStats {
    /// Scan the catalog and collect statistics for every relation. This is an
    /// O(data) pass; benchmarks collect statistics once per dataset, outside
    /// the timed region, mirroring how a database maintains statistics ahead
    /// of query optimization.
    pub fn collect(catalog: &Catalog) -> Self {
        let mut tables = BTreeMap::new();
        for name in catalog.relation_names() {
            let relation = catalog.get(name).expect("relation listed but missing");
            tables.insert(name.to_string(), TableStats::collect(&relation));
        }
        CatalogStats { tables }
    }

    /// Statistics for one relation; empty statistics if unknown.
    pub fn table(&self, name: &str) -> &TableStats {
        static UNKNOWN: TableStats =
            TableStats { rows: 0, columns: BTreeMap::new(), column_order: Vec::new() };
        self.tables.get(name).unwrap_or(&UNKNOWN)
    }
}

/// How the estimator behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EstimatorMode {
    /// Use collected statistics (the "good plan" configuration).
    #[default]
    Accurate,
    /// Always estimate cardinality 1, reproducing the paper's "bad
    /// cardinality estimate" configuration (Section 5.4).
    AlwaysOne,
}

/// A summary of an already-planned sub-join, tracked during optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPlanInfo {
    /// Estimated cardinality of the sub-join result.
    pub cardinality: f64,
    /// Estimated distinct count per variable bound by the sub-join.
    pub distinct: HashMap<String, f64>,
}

/// Cardinality estimator over catalog statistics.
#[derive(Debug, Clone)]
pub struct CardinalityEstimator<'a> {
    stats: &'a CatalogStats,
    mode: EstimatorMode,
}

impl<'a> CardinalityEstimator<'a> {
    /// Create an estimator.
    pub fn new(stats: &'a CatalogStats, mode: EstimatorMode) -> Self {
        CardinalityEstimator { stats, mode }
    }

    /// The estimator mode.
    pub fn mode(&self) -> EstimatorMode {
        self.mode
    }

    /// Estimate the cardinality of a single atom after its pushed-down
    /// filter.
    pub fn atom_cardinality(&self, atom: &Atom) -> f64 {
        if self.mode == EstimatorMode::AlwaysOne {
            return 1.0;
        }
        let table = self.stats.table(&atom.relation);
        let base = table.rows as f64;
        (base * atom.filter.selectivity()).max(1.0)
    }

    /// Build the [`SubPlanInfo`] of a single atom: cardinality plus distinct
    /// counts for each of its variables (scaled down by the filter, and never
    /// above the cardinality).
    pub fn atom_info(&self, query: &ConjunctiveQuery, atom_idx: usize) -> SubPlanInfo {
        let atom = &query.atoms[atom_idx];
        let card = self.atom_cardinality(atom);
        let table = self.stats.table(&atom.relation);
        let relation_rows = table.rows.max(1) as f64;
        let scale = (card / relation_rows).min(1.0);
        let mut distinct = HashMap::new();
        // Columns are matched to variables positionally via the table's
        // schema order.
        for (pos, var) in atom.vars.iter().enumerate() {
            let d = if self.mode == EstimatorMode::AlwaysOne {
                1.0
            } else {
                let col_distinct = table.distinct_at(pos) as f64;
                // Scaling distinct counts linearly with selectivity is crude
                // but standard; clamp to [1, card].
                (col_distinct * scale).clamp(1.0, card)
            };
            distinct.insert(var.clone(), d);
        }
        SubPlanInfo { cardinality: card, distinct }
    }

    /// The cardinality [`CardinalityEstimator::join`] estimates, without
    /// the per-variable distinct counts: all a search needs to cost a
    /// candidate it may well discard.
    pub fn join_cardinality(
        &self,
        left: &SubPlanInfo,
        right: &SubPlanInfo,
        shared_vars: &[String],
    ) -> f64 {
        if self.mode == EstimatorMode::AlwaysOne {
            return 1.0;
        }
        let mut cardinality = left.cardinality * right.cardinality;
        for v in shared_vars {
            let dl = left.distinct.get(v).copied().unwrap_or(left.cardinality).max(1.0);
            let dr = right.distinct.get(v).copied().unwrap_or(right.cardinality).max(1.0);
            cardinality /= dl.max(dr);
        }
        cardinality.max(1.0)
    }

    /// Estimate the join of two sub-plans that share `shared_vars`.
    pub fn join(
        &self,
        left: &SubPlanInfo,
        right: &SubPlanInfo,
        shared_vars: &[String],
    ) -> SubPlanInfo {
        if self.mode == EstimatorMode::AlwaysOne {
            let mut distinct = left.distinct.clone();
            for (v, d) in &right.distinct {
                distinct.entry(v.clone()).or_insert(*d);
            }
            for d in distinct.values_mut() {
                *d = 1.0;
            }
            return SubPlanInfo { cardinality: 1.0, distinct };
        }
        let cardinality = self.join_cardinality(left, right, shared_vars);
        let mut distinct = HashMap::new();
        for (v, d) in &left.distinct {
            let merged = match right.distinct.get(v) {
                Some(rd) => d.min(*rd),
                None => *d,
            };
            distinct.insert(v.clone(), merged.min(cardinality));
        }
        for (v, d) in &right.distinct {
            distinct.entry(v.clone()).or_insert(d.min(cardinality));
        }
        SubPlanInfo { cardinality, distinct }
    }

    /// Per-node cardinality estimates for one Free Join pipeline — the
    /// `est` column of `EXPLAIN ANALYZE`.
    ///
    /// Walks the plan nodes in order, joining each input's [`SubPlanInfo`]
    /// into a running estimate the first time one of its subatoms appears —
    /// on the variables that subatom exposes. A variable the input shares
    /// with the running join but binds in a *later* subatom (the `T(z)` of
    /// the triangle's split `T(x)` / `T(z)`, with `z` known from `S`) is an
    /// equality the plan has not checked yet: its selectivity is applied at
    /// the node that checks it, not at the node of the first subatom, whose
    /// estimate would otherwise be that of the whole cycle and flag the
    /// prefix's actual rows as a bust.
    /// The estimate for node `k` is the running join cardinality capped by
    /// the product of distinct counts of the variables bound through node
    /// `k` — the join of the *whole* inputs can't produce more distinct
    /// prefix bindings than that product allows. An input whose last
    /// subatom sits in node `k` or earlier counts with *all* its variables,
    /// named by the plan or not: a plan over pruned variable lists reaches
    /// that subatom with the rows the pruned variables tell apart folded into
    /// the weight, and the actuals count weighted rows. The last node's
    /// estimate is therefore the full join estimate, matching what the
    /// optimizer costed the pipeline at.
    ///
    /// `intermediates[j]` carries the previously computed final
    /// [`SubPlanInfo`] of pipeline `j`, for [`PipeInput::Intermediate`]
    /// inputs; pipelines are estimated in dependency order so these are
    /// always available. Returns the per-node estimates plus the pipeline's
    /// own final info, to feed later pipelines.
    pub fn pipeline_node_estimates(
        &self,
        query: &ConjunctiveQuery,
        inputs: &[PipeInput],
        plan: &FreeJoinPlan,
        intermediates: &[Option<SubPlanInfo>],
    ) -> (Vec<f64>, SubPlanInfo) {
        let unit = || SubPlanInfo { cardinality: 1.0, distinct: HashMap::new() };
        let input_info = |input: usize| match inputs.get(input) {
            Some(PipeInput::Atom(a)) => self.atom_info(query, *a),
            Some(PipeInput::Intermediate(j)) => {
                intermediates.get(*j).and_then(|i| i.clone()).unwrap_or_else(unit)
            }
            None => unit(),
        };
        let mut joined = vec![false; inputs.len()];
        // Equalities an input's first subatom left open: variables it shares
        // with the running join that only a later subatom of it binds, each
        // with the divisor its join would have applied.
        let mut open: Vec<Vec<(String, f64)>> = vec![Vec::new(); inputs.len()];
        let mut subatoms_left: Vec<usize> =
            plan.subatom_vars_per_input(inputs.len()).iter().map(Vec::len).collect();
        let mut acc: Option<SubPlanInfo> = None;
        let mut bound: BTreeSet<String> = BTreeSet::new();
        let mut estimates = Vec::with_capacity(plan.nodes.len());
        for node in &plan.nodes {
            for sub in &node.subatoms {
                if sub.input >= joined.len() {
                    continue;
                }
                subatoms_left[sub.input] -= 1;
                let finished = subatoms_left[sub.input] == 0;
                if let (true, Some(acc)) = (joined[sub.input], acc.as_mut()) {
                    open[sub.input].retain(|(v, divisor)| {
                        let closes = sub.vars.contains(v);
                        if closes {
                            acc.cardinality = (acc.cardinality / divisor).max(1.0);
                        }
                        !closes
                    });
                }
                if !finished && joined[sub.input] {
                    continue;
                }
                let info = input_info(sub.input);
                if finished {
                    bound.extend(info.distinct.keys().cloned());
                }
                if !joined[sub.input] {
                    joined[sub.input] = true;
                    acc = Some(match acc.take() {
                        None => info,
                        Some(left) => {
                            let (shared, later): (Vec<String>, Vec<String>) = info
                                .distinct
                                .keys()
                                .filter(|v| left.distinct.contains_key(*v))
                                .cloned()
                                .partition(|v| sub.vars.contains(v) || finished);
                            open[sub.input] = later
                                .into_iter()
                                .map(|v| {
                                    let divisor = left.distinct[&v].max(1.0).max(info.distinct[&v]);
                                    (v, divisor)
                                })
                                .collect();
                            self.join(&left, &info, &shared)
                        }
                    });
                }
            }
            bound.extend(node.vars());
            let info = acc.clone().unwrap_or_else(unit);
            let mut cap = 1.0f64;
            for v in &bound {
                cap *= info.distinct.get(v).copied().unwrap_or(info.cardinality).max(1.0);
                if cap >= info.cardinality {
                    cap = info.cardinality;
                    break;
                }
            }
            estimates.push(info.cardinality.min(cap).max(1.0));
        }
        (estimates, acc.unwrap_or_else(unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::Atom;
    use fj_storage::{Predicate, RelationBuilder, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        for i in 0..100i64 {
            r.push_ints(&[i % 10, i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["y", "z"]));
        for i in 0..50i64 {
            s.push_ints(&[i, i % 5]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        cat
    }

    #[test]
    fn collect_gathers_row_and_distinct_counts() {
        let stats = CatalogStats::collect(&catalog());
        let r = stats.table("R");
        assert_eq!(r.rows, 100);
        assert_eq!(r.distinct("x"), 10);
        assert_eq!(r.distinct("y"), 100);
        assert_eq!(r.columns["x"].min, Some(0));
        assert_eq!(r.columns["x"].max, Some(9));
        // Unknown tables/columns degrade gracefully.
        assert_eq!(stats.table("missing").rows, 0);
        assert_eq!(r.distinct("missing"), 100);
    }

    #[test]
    fn atom_cardinality_respects_filters_and_mode() {
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        let plain = Atom::new("R", vec!["x", "y"]);
        assert_eq!(est.atom_cardinality(&plain), 100.0);
        let filtered = Atom::new("R", vec!["x", "y"]).with_filter(Predicate::eq_const("x", 3i64));
        assert!(est.atom_cardinality(&filtered) < 100.0);
        assert!(est.atom_cardinality(&filtered) >= 1.0);

        let bad = CardinalityEstimator::new(&stats, EstimatorMode::AlwaysOne);
        assert_eq!(bad.atom_cardinality(&plain), 1.0);
        assert_eq!(bad.atom_cardinality(&filtered), 1.0);
    }

    #[test]
    fn join_estimate_divides_by_max_distinct() {
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        let left =
            SubPlanInfo { cardinality: 100.0, distinct: HashMap::from([("y".to_string(), 100.0)]) };
        let right =
            SubPlanInfo { cardinality: 50.0, distinct: HashMap::from([("y".to_string(), 50.0)]) };
        let joined = est.join(&left, &right, &["y".to_string()]);
        // 100 * 50 / max(100, 50) = 50.
        assert!((joined.cardinality - 50.0).abs() < 1e-9);
        assert!(joined.distinct["y"] <= 50.0);

        // Cartesian product when no shared variables.
        let cross = est.join(&left, &right, &[]);
        assert!((cross.cardinality - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_always_one_mode() {
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::AlwaysOne);
        let left =
            SubPlanInfo { cardinality: 1.0, distinct: HashMap::from([("y".to_string(), 1.0)]) };
        let right =
            SubPlanInfo { cardinality: 1.0, distinct: HashMap::from([("y".to_string(), 1.0)]) };
        let joined = est.join(&left, &right, &["y".to_string()]);
        assert_eq!(joined.cardinality, 1.0);
        assert_eq!(est.mode(), EstimatorMode::AlwaysOne);
    }

    #[test]
    fn atom_info_resolves_positional_variables() {
        let stats = CatalogStats::collect(&catalog());
        assert_eq!(stats.table("R").distinct_at(0), 10);
        assert_eq!(stats.table("R").distinct_at(1), 100);
        assert_eq!(stats.table("R").distinct_at(7), 100); // out of range -> rows

        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        let q = ConjunctiveQuery::new("q", vec![], vec![Atom::new("R", vec!["a", "b"])]);
        let info = est.atom_info(&q, 0);
        assert_eq!(info.cardinality, 100.0);
        // Variable "a" is bound to column x (10 distinct values), "b" to y.
        assert!((info.distinct["a"] - 10.0).abs() < 1e-9);
        assert!((info.distinct["b"] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_node_estimates_walk_the_plan() {
        use crate::fj_plan::{FjNode, FreeJoinPlan, Subatom};
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        let q = ConjunctiveQuery::new(
            "q",
            vec![],
            vec![Atom::new("R", vec!["x", "y"]), Atom::new("S", vec!["y", "z"])],
        );
        let inputs = [PipeInput::Atom(0), PipeInput::Atom(1)];
        // [[#0(x,y) #1(y)], [#1(z)]] — the factored R ⋈ S plan.
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![
                Subatom::new(0, vec!["x".into(), "y".into()]),
                Subatom::new(1, vec!["y".into()]),
            ]),
            FjNode::new(vec![Subatom::new(1, vec!["z".into()])]),
        ]);
        let (ests, info) = est.pipeline_node_estimates(&q, &inputs, &plan, &[]);
        assert_eq!(ests.len(), 2);
        // Both inputs join at node 0: |R ⋈ S| = 100·50 / max(100, 50) = 50,
        // already below the x,y distinct-product cap.
        assert!((ests[0] - 50.0).abs() < 1e-9, "{ests:?}");
        // The last node binds every variable, so its estimate is the full
        // join estimate — and matches the returned final info.
        assert!((ests[1] - 50.0).abs() < 1e-9, "{ests:?}");
        assert!((info.cardinality - 50.0).abs() < 1e-9);

        // The cap bites when a node binds only a low-distinct prefix:
        // [[#0(x)], [#0(y) #1(y)], [#1(z)]] — node 0 binds only x (10
        // distinct values), far below |R| = 100.
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![Subatom::new(0, vec!["x".into()])]),
            FjNode::new(vec![Subatom::new(0, vec!["y".into()]), Subatom::new(1, vec!["y".into()])]),
            FjNode::new(vec![Subatom::new(1, vec!["z".into()])]),
        ]);
        let (ests, _) = est.pipeline_node_estimates(&q, &inputs, &plan, &[]);
        assert!((ests[0] - 10.0).abs() < 1e-9, "{ests:?}");
        assert!((ests[2] - 50.0).abs() < 1e-9, "{ests:?}");

        // A plan over pruned variable lists: R is read through x alone, its
        // last (only) subatom folds the y's apart into the weight, so node 0
        // stands for all of R's 100 rows — not for x's 10 distinct values,
        // as it does above where R(y) is still to come.
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![Subatom::new(0, vec!["x".into()])])]);
        let (ests, _) = est.pipeline_node_estimates(&q, &inputs[..1], &plan, &[]);
        assert!((ests[0] - 100.0).abs() < 1e-9, "{ests:?}");

        // Intermediate inputs read from the supplied infos.
        let inter = [PipeInput::Intermediate(0)];
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![Subatom::new(0, vec!["y".into()])])]);
        let prior =
            SubPlanInfo { cardinality: 7.0, distinct: HashMap::from([("y".to_string(), 7.0)]) };
        let (ests, _) = est.pipeline_node_estimates(&q, &inter, &plan, &[Some(prior)]);
        assert!((ests[0] - 7.0).abs() < 1e-9, "{ests:?}");

        // AlwaysOne mode estimates 1 everywhere (the Section 5.4 signal an
        // EXPLAIN ANALYZE user would see as est=1 vs. large actuals).
        let bad = CardinalityEstimator::new(&stats, EstimatorMode::AlwaysOne);
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![
                Subatom::new(0, vec!["x".into(), "y".into()]),
                Subatom::new(1, vec!["y".into()]),
            ]),
            FjNode::new(vec![Subatom::new(1, vec!["z".into()])]),
        ]);
        let (ests, _) = bad.pipeline_node_estimates(&q, &inputs, &plan, &[]);
        assert!(ests.iter().all(|&e| e == 1.0), "{ests:?}");
    }

    #[test]
    fn split_inputs_close_their_open_equality_where_the_plan_checks_it() {
        use crate::fj_plan::{FjNode, FreeJoinPlan, Subatom};
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        // A triangle over R(x,y), S(y,z) and R again as T(z,x).
        let q = ConjunctiveQuery::new(
            "triangle",
            vec![],
            vec![
                Atom::new("R", vec!["x", "y"]),
                Atom::new("S", vec!["y", "z"]),
                Atom::with_alias("R", "T", vec!["z", "x"]),
            ],
        );
        let inputs = [PipeInput::Atom(0), PipeInput::Atom(1), PipeInput::Atom(2)];
        let sub = |input: usize, vars: &[&str]| {
            Subatom::new(input, vars.iter().map(|v| v.to_string()).collect())
        };
        let unsplit = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "y"]), sub(1, &["y"])]),
            FjNode::new(vec![sub(1, &["z"]), sub(2, &["z", "x"])]),
        ]);
        let split = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "y"]), sub(1, &["y"]), sub(2, &["x"])]),
            FjNode::new(vec![sub(1, &["z"]), sub(2, &["z"])]),
        ]);
        let (whole, whole_info) = est.pipeline_node_estimates(&q, &inputs, &unsplit, &[]);
        let (halves, halves_info) = est.pipeline_node_estimates(&q, &inputs, &split, &[]);
        // T(x) joins T on x alone: node 0 is R ⋈ S ⋈_x T — the 50 rows of
        // R ⋈ S times T's one row per x (T.x is R's key column), 50 · 100 /
        // 100 — not the closed cycle (5), which the actual row count of the
        // (x,y) prefix would "bust".
        assert!((whole[0] - 50.0).abs() < 1e-9, "{whole:?}");
        assert!((halves[0] - 50.0).abs() < 1e-9, "{halves:?}");
        assert!((whole[1] - 5.0).abs() < 1e-9, "{whole:?}");
        // T(z) closes the cycle where the plan checks z: the same final
        // estimate as the unsplit plan's, which joins T on (z,x) at once.
        assert!((halves[1] - whole[1]).abs() < 1e-9, "{halves:?} vs {whole:?}");
        assert!((halves_info.cardinality - whole_info.cardinality).abs() < 1e-9);
        assert!(halves[1] < halves[0]);
    }

    #[test]
    fn estimates_never_drop_below_one() {
        let stats = CatalogStats::collect(&catalog());
        let est = CardinalityEstimator::new(&stats, EstimatorMode::Accurate);
        let tiny =
            SubPlanInfo { cardinality: 1.0, distinct: HashMap::from([("y".to_string(), 1.0)]) };
        let big =
            SubPlanInfo { cardinality: 2.0, distinct: HashMap::from([("y".to_string(), 1000.0)]) };
        let joined = est.join(&tiny, &big, &["y".to_string()]);
        assert!(joined.cardinality >= 1.0);
    }
}
