//! Micro workloads: the paper's own running examples.
//!
//! * [`clover`] — the clover query Q♣ over the adversarial instance of
//!   Figure 3, where the first two joins explode to n² tuples that the third
//!   join discards. This is the instance the paper uses to motivate plan
//!   factorization (Section 4.1).
//! * [`skewed_triangle`] — the triangle query Q△ over a graph with a
//!   Zipf-skewed degree distribution, the canonical case where worst-case
//!   optimal joins beat binary plans.
//! * [`chain`] / [`star`] — acyclic shapes used by the ablation benches.

use crate::skew::{seeded_rng, Zipf};
use crate::suite::{NamedQuery, Workload};
use fj_query::{Aggregate, Atom, ConjunctiveQuery, QueryBuilder};
use fj_storage::{Catalog, RelationBuilder, Schema};
use rand::Rng;

/// The paper's clover instance (Figure 3) with parameter `n`:
///
/// * `R = {(x0,a0)} ∪ {(x1,a_i^l), (x2,a_i^r)}`
/// * `S = {(x0,b0)} ∪ {(x2,b_i^l), (x3,b_i^r)}`
/// * `T = {(x0,c0)} ∪ {(x3,c_i^l), (x1,c_i^r)}`
///
/// The only output tuple of `Q♣(x,a,b,c) :- R(x,a), S(x,b), T(x,c)` is
/// `(x0, a0, b0, c0)`, but the naive binary plan materializes n² pairs.
pub fn clover(n: i64) -> Workload {
    let (x0, x1, x2, x3) = (0i64, 1, 2, 3);
    let mut catalog = Catalog::new();

    let spec: [(&str, i64, i64, i64); 3] =
        [("R", x0, x1, x2), ("S", x0, x2, x3), ("T", x0, x3, x1)];
    for (idx, (name, hub, left, right)) in spec.into_iter().enumerate() {
        let value_base = 1000 * (idx as i64 + 1);
        let col = ["a", "b", "c"][idx];
        let mut b = RelationBuilder::new(name, Schema::all_int(&["x", col]));
        b.push_ints(&[hub, value_base]).unwrap();
        for i in 1..=n {
            b.push_ints(&[left, value_base + i]).unwrap();
            b.push_ints(&[right, value_base + n + i]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }

    let query = QueryBuilder::new("clover")
        .atom("R", &["x", "a"])
        .atom("S", &["x", "b"])
        .atom("T", &["x", "c"])
        .count()
        .build();
    Workload::new(format!("clover n={n}"), catalog, vec![NamedQuery::new("clover", query)])
}

/// The triangle query over a random graph with `nodes` vertices,
/// `edges_per_node` average out-degree and Zipf-skewed destination choice
/// (`theta`). All three atoms read the same edge relation under different
/// aliases, exercising the paper's self-join renaming.
pub fn skewed_triangle(nodes: usize, edges_per_node: usize, theta: f64, seed: u64) -> Workload {
    let mut rng = seeded_rng("triangle", seed);
    let zipf = Zipf::new(nodes, theta);
    let mut catalog = Catalog::new();
    let mut edge = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
    for src in 0..nodes {
        for _ in 0..edges_per_node {
            let dst = zipf.sample(&mut rng);
            if dst != src {
                edge.push_ints(&[src as i64, dst as i64]).unwrap();
            }
        }
    }
    catalog.add(edge.finish()).unwrap();

    let query = ConjunctiveQuery::new(
        "triangle",
        vec![],
        vec![
            Atom::with_alias("edge", "e1", vec!["x", "y"]),
            Atom::with_alias("edge", "e2", vec!["y", "z"]),
            Atom::with_alias("edge", "e3", vec!["z", "x"]),
        ],
    )
    .with_aggregate(Aggregate::Count);
    Workload::new(
        format!("triangle nodes={nodes} epn={edges_per_node} theta={theta}"),
        catalog,
        vec![NamedQuery::new("triangle", query)],
    )
}

/// A chain query `R1(v0,v1) ⋈ R2(v1,v2) ⋈ ... ⋈ Rk(v_{k-1},v_k)` over `k`
/// relations with `rows` rows each and join keys drawn uniformly from a
/// domain of `domain` values.
pub fn chain(k: usize, rows: usize, domain: i64, seed: u64) -> Workload {
    assert!(k >= 1, "chain needs at least one relation");
    let mut catalog = Catalog::new();
    let mut atoms = Vec::with_capacity(k);
    for i in 0..k {
        let mut rng = seeded_rng(&format!("chain-{i}"), seed);
        let name = format!("C{i}");
        let cols = [format!("v{i}"), format!("v{}", i + 1)];
        let mut b =
            RelationBuilder::new(&name, Schema::all_int(&[cols[0].as_str(), cols[1].as_str()]));
        for _ in 0..rows {
            b.push_ints(&[rng.random_range(0..domain), rng.random_range(0..domain)])
                .unwrap();
        }
        catalog.add(b.finish()).unwrap();
        atoms.push(Atom {
            alias: name.clone(),
            relation: name,
            vars: cols.to_vec(),
            filter: fj_storage::Predicate::True,
        });
    }
    let query = ConjunctiveQuery::new("chain", vec![], atoms).with_aggregate(Aggregate::Count);
    Workload::new(
        format!("chain k={k} rows={rows}"),
        catalog,
        vec![NamedQuery::new("chain", query)],
    )
}

/// A star query `Hub(x, a1), Spoke1(x, b1), ..., Spoke_k(x, b_k)` with a
/// Zipf-skewed hub attribute — the generalization of the clover query that
/// drives the factorized-output experiments.
pub fn star(spokes: usize, rows: usize, hub_domain: usize, theta: f64, seed: u64) -> Workload {
    assert!(spokes >= 1, "star needs at least one spoke");
    let mut catalog = Catalog::new();
    let zipf = Zipf::new(hub_domain, theta);
    let mut atoms = Vec::new();

    let mut hub_rng = seeded_rng("star-hub", seed);
    let mut hub = RelationBuilder::new("hub", Schema::all_int(&["x", "h"]));
    for i in 0..rows {
        hub.push_ints(&[zipf.sample(&mut hub_rng) as i64, i as i64]).unwrap();
    }
    catalog.add(hub.finish()).unwrap();
    atoms.push(Atom::new("hub", vec!["x", "h"]));

    for s in 0..spokes {
        let mut rng = seeded_rng(&format!("star-spoke-{s}"), seed);
        let name = format!("spoke{s}");
        let col = format!("s{s}");
        let mut b = RelationBuilder::new(&name, Schema::all_int(&["x", col.as_str()]));
        for i in 0..rows {
            b.push_ints(&[zipf.sample(&mut rng) as i64, (1000 * (s + 1) + i) as i64])
                .unwrap();
        }
        catalog.add(b.finish()).unwrap();
        atoms.push(Atom {
            alias: name.clone(),
            relation: name,
            vars: vec!["x".to_string(), col],
            filter: fj_storage::Predicate::True,
        });
    }

    let query = ConjunctiveQuery::new("star", vec![], atoms).with_aggregate(Aggregate::Count);
    Workload::new(
        format!("star spokes={spokes} rows={rows} theta={theta}"),
        catalog,
        vec![NamedQuery::new("star", query)],
    )
}

/// A star query whose join key is deliberately hot: key `0` appears in
/// `hot_share` of every relation's rows (90% by default in the benches), so
/// a single root binding owns essentially all of the output — the adversary
/// for root-only parallelism, where whichever worker draws key `0` does the
/// whole join alone unless the scheduler re-splits the expansions under it.
/// The remaining rows spread uniformly over a small cold domain so the cold
/// keys still join. Deterministic for a given seed.
pub fn skewed_star(spokes: usize, rows: usize, hot_share: f64, seed: u64) -> Workload {
    assert!(spokes >= 1, "skewed_star needs at least one spoke");
    assert!((0.0..=1.0).contains(&hot_share), "hot_share is a fraction");
    let hot_rows = ((rows as f64) * hot_share) as usize;
    // A cold domain of ~rows/8 keys keeps cold keys joining a handful of
    // rows each, so the cold tail is real but negligible next to key 0.
    let cold_domain = (rows / 8).max(1) as i64;
    let mut catalog = Catalog::new();
    let mut atoms = Vec::new();

    let mut hub_rng = seeded_rng("skewed-star-hub", seed);
    let mut hub = RelationBuilder::new("hub", Schema::all_int(&["x", "h"]));
    for i in 0..rows {
        let key = if i < hot_rows { 0 } else { hub_rng.random_range(1..cold_domain + 1) };
        hub.push_ints(&[key, i as i64]).unwrap();
    }
    catalog.add(hub.finish()).unwrap();
    atoms.push(Atom::new("hub", vec!["x", "h"]));

    for s in 0..spokes {
        let mut rng = seeded_rng(&format!("skewed-star-spoke-{s}"), seed);
        let name = format!("spoke{s}");
        let col = format!("s{s}");
        let mut b = RelationBuilder::new(&name, Schema::all_int(&["x", col.as_str()]));
        for i in 0..rows {
            let key = if i < hot_rows { 0 } else { rng.random_range(1..cold_domain + 1) };
            b.push_ints(&[key, (1000 * (s + 1) + i) as i64]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
        atoms.push(Atom {
            alias: name.clone(),
            relation: name,
            vars: vec!["x".to_string(), col],
            filter: fj_storage::Predicate::True,
        });
    }

    let query =
        ConjunctiveQuery::new("skewed_star", vec![], atoms).with_aggregate(Aggregate::Count);
    Workload::new(
        format!("skewed_star spokes={spokes} rows={rows} hot={hot_share}"),
        catalog,
        vec![NamedQuery::new("skewed_star", query)],
    )
}

/// The adversary of a fixed probe order: a chain-star query
///
/// ```text
/// Q(x,y,w) :- hub(x,y), anchor(x), mid(y), mid2(y), mid3(y), sel(y,w)
/// ```
///
/// whose per-binding cardinalities are anti-correlated with the static
/// statistics. The cost-based optimizer orders the probes `anchor, mid,
/// mid2, mid3, sel` — each `mid*` is duplicate-free with more distinct
/// `y` values than the accumulated left side, so its estimated join
/// multiplier is below `sel`'s (whose few hot `y` keys each carry
/// `sel_fanout` rows). At run time the correlation flips: every `mid*`
/// matches every binding (each probe is a lookup into a huge hash map
/// that pays a cache miss per binding) while `sel` rejects everything
/// except `PLANTED` planted keys from a tiny, cache-resident map. An
/// executor that follows the plan order (the binary join) probes all three
/// huge `mid*` maps once per binding; Free Join sees `sel`'s smaller bound
/// (`|sel| < |mid| < |mid2| < |mid3|`), probes it first, and skips every
/// `mid*` lookup for every rejected binding.
///
/// `bindings` is the hub row count (rounded up to a multiple of the hub's
/// x-domain); the `seed` permutes insertion order only, so the instance —
/// and the query's 16-tuple output — is the same for every seed.
pub fn skew_flip(bindings: usize, seed: u64) -> Workload {
    // Hub x-domain: small enough that the anchor map stays cache-resident.
    let x_domain = (bindings / 32).max(8);
    let b = bindings.div_ceil(x_domain) * x_domain;
    // 90% of the x-domain passes the anchor probe.
    let anchor_rows = (x_domain * 9).div_ceil(10);
    // Each mid* covers every hub y (plus a dead tail) so its probe always
    // hits; sel spreads over few hot keys, so |sel| < |mid*| while its
    // estimated multiplier (rows / few distincts) is the largest of all.
    // Three always-matching maps triple the probe work a static order
    // wastes per rejected binding.
    let mids =
        [("mid", b + b.div_ceil(20)), ("mid2", b + b.div_ceil(12)), ("mid3", b + b.div_ceil(8))];
    let sel_fanout = 64;
    let sel_hot_keys = (b / 64).max(4); // ~1.0 * b rows, all decoys
    let planted: [usize; PLANTED] = [1, x_domain + 1, 2 * x_domain + 1, 3 * x_domain + 1];

    let mut rng = seeded_rng("skew-flip", seed);
    let mut catalog = Catalog::new();

    // hub(x, y): y unique per row, x uniform over the domain. A seeded
    // rotation permutes which x each y lands on without changing the
    // multiset of (x, y) degrees.
    let rotation = rng.random_range(0..x_domain as i64);
    let mut hub = RelationBuilder::new("hub", Schema::all_int(&["x", "y"]));
    for y in 0..b {
        let x = if planted.contains(&y) {
            1 // planted bindings must pass the anchor probe
        } else {
            (y as i64 + rotation) % x_domain as i64
        };
        hub.push_ints(&[x, y as i64]).unwrap();
    }
    catalog.add(hub.finish()).unwrap();

    let mut anchor = RelationBuilder::new("anchor", Schema::all_int(&["x"]));
    for x in 0..anchor_rows {
        anchor.push_ints(&[x as i64]).unwrap();
    }
    catalog.add(anchor.finish()).unwrap();

    for (name, rows) in mids {
        let mut mid = RelationBuilder::new(name, Schema::all_int(&["y"]));
        for y in 0..rows {
            mid.push_ints(&[y as i64]).unwrap();
        }
        catalog.add(mid.finish()).unwrap();
    }

    // sel(y, w): decoy keys live in a range disjoint from every hub y, so
    // only the planted keys ever match; 4 w's per planted key -> 16 output
    // tuples at any scale.
    let mut sel = RelationBuilder::new("sel", Schema::all_int(&["y", "w"]));
    for k in 0..sel_hot_keys {
        let y = (2 * b + k) as i64;
        for w in 0..sel_fanout {
            sel.push_ints(&[y, w as i64]).unwrap();
        }
    }
    for (i, &y) in planted.iter().enumerate() {
        for w in 0..PLANTED {
            sel.push_ints(&[y as i64, (sel_fanout * (i + 1) + w) as i64]).unwrap();
        }
    }
    catalog.add(sel.finish()).unwrap();

    let query = QueryBuilder::new("skew_flip")
        .atom("hub", &["x", "y"])
        .atom("anchor", &["x"])
        .atom("mid", &["y"])
        .atom("mid2", &["y"])
        .atom("mid3", &["y"])
        .atom("sel", &["y", "w"])
        .count()
        .build();
    Workload::new(
        format!("skew_flip bindings={b}"),
        catalog,
        vec![NamedQuery::new("skew_flip", query)],
    )
}

/// Number of planted matches in [`skew_flip`] (each with the same number
/// of `w` values, so the query returns `PLANTED * PLANTED` tuples).
pub const PLANTED: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clover_instance_matches_paper_shape() {
        let n = 10;
        let w = clover(n);
        w.validate().unwrap();
        assert_eq!(w.catalog.get("R").unwrap().num_rows() as i64, 2 * n + 1);
        assert_eq!(w.catalog.get("S").unwrap().num_rows() as i64, 2 * n + 1);
        assert_eq!(w.catalog.get("T").unwrap().num_rows() as i64, 2 * n + 1);
        assert!(!w.queries[0].cyclic, "the clover query is acyclic");
    }

    #[test]
    fn skewed_triangle_generates_connected_query() {
        let w = skewed_triangle(100, 4, 1.0, 7);
        w.validate().unwrap();
        assert!(w.queries[0].cyclic);
        assert!(w.catalog.get("edge").unwrap().num_rows() > 100);
        // Determinism.
        let w2 = skewed_triangle(100, 4, 1.0, 7);
        assert_eq!(
            w.catalog.get("edge").unwrap().canonical_rows(),
            w2.catalog.get("edge").unwrap().canonical_rows()
        );
    }

    #[test]
    fn chain_and_star_are_valid_and_acyclic() {
        let c = chain(5, 50, 20, 11);
        c.validate().unwrap();
        assert!(!c.queries[0].cyclic);
        assert_eq!(c.queries[0].query.num_atoms(), 5);

        let s = star(4, 60, 10, 0.8, 13);
        s.validate().unwrap();
        assert!(!s.queries[0].cyclic);
        assert_eq!(s.queries[0].query.num_atoms(), 5);
    }

    #[test]
    fn skewed_star_is_hot_and_deterministic() {
        let w = skewed_star(2, 100, 0.9, 7);
        w.validate().unwrap();
        assert_eq!(w.queries[0].query.num_atoms(), 3);
        // Key 0 owns ~90% of every relation.
        for rel in ["hub", "spoke0", "spoke1"] {
            let rows = w.catalog.get(rel).unwrap().canonical_rows();
            let hot = rows.iter().filter(|r| r[0] == fj_storage::Value::Int(0)).count();
            assert_eq!(hot, 90, "{rel} hot-key share");
        }
        let w2 = skewed_star(2, 100, 0.9, 7);
        assert_eq!(
            w.catalog.get("hub").unwrap().canonical_rows(),
            w2.catalog.get("hub").unwrap().canonical_rows()
        );
    }

    #[test]
    fn skew_flip_shape_and_determinism() {
        let w = skew_flip(2048, 7);
        w.validate().unwrap();
        assert!(!w.queries[0].cyclic, "skew_flip is an acyclic chain-star");
        assert_eq!(w.queries[0].query.num_atoms(), 6);
        let b = w.catalog.get("hub").unwrap().num_rows();
        assert!(b >= 2048, "hub rows round up to a multiple of the x-domain");
        // The static statistics order the mid* maps before sel (estimated
        // multiplier), while the construction bounds order sel before every
        // mid* (row count): |anchor| < b <= |sel| < |mid| < |mid2| < |mid3|.
        let anchor = w.catalog.get("anchor").unwrap().num_rows();
        let mid = w.catalog.get("mid").unwrap().num_rows();
        let mid2 = w.catalog.get("mid2").unwrap().num_rows();
        let mid3 = w.catalog.get("mid3").unwrap().num_rows();
        let sel = w.catalog.get("sel").unwrap().num_rows();
        assert!(anchor < b / 8, "anchor stays tiny: {anchor}");
        assert!(
            b <= sel && sel < mid && mid < mid2 && mid2 < mid3,
            "bound flip requires b <= |sel| < |mid| < |mid2| < |mid3|"
        );
        // Planted keys appear in sel with PLANTED w's each.
        let sel_rows = w.catalog.get("sel").unwrap().canonical_rows();
        for y in [1, 2048 / 32 + 1] {
            let hits = sel_rows.iter().filter(|r| r[0] == fj_storage::Value::Int(y as i64)).count();
            assert_eq!(hits, PLANTED, "planted key {y} carries {PLANTED} w's");
        }
        // Same seed, same instance.
        let w2 = skew_flip(2048, 7);
        for rel in ["hub", "anchor", "mid", "mid2", "mid3", "sel"] {
            assert_eq!(
                w.catalog.get(rel).unwrap().canonical_rows(),
                w2.catalog.get(rel).unwrap().canonical_rows(),
                "{rel} must be deterministic for a fixed seed"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = skewed_triangle(50, 3, 1.0, 1);
        let b = skewed_triangle(50, 3, 1.0, 2);
        assert_ne!(
            a.catalog.get("edge").unwrap().canonical_rows(),
            b.catalog.get("edge").unwrap().canonical_rows()
        );
    }
}
