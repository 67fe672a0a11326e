//! A synthetic, IMDB-shaped workload standing in for the Join Order
//! Benchmark (JOB).
//!
//! The real JOB runs 113 acyclic queries (average 8 joins) over the IMDB
//! snapshot, which cannot be redistributed here. This module generates a
//! schema with the same shape — one large fact table per IMDB "link" table
//! (cast_info, movie_companies, movie_info, movie_keyword, ...), dimension
//! tables (name, company_name, keyword, info_type, ...), and Zipf-skewed
//! many-to-many foreign keys so that a handful of "blockbuster" movies appear
//! in a large fraction of the fact rows — and a suite of acyclic multi-join
//! queries mirroring JOB's families.
//!
//! The suite deliberately includes `q13`-style queries whose first joins are
//! all many-to-many on `movie_id`: the paper's headline case, where the
//! binary plan explodes an intermediate that Free Join never materializes.

use crate::skew::{seeded_rng, Zipf};
use crate::suite::{NamedQuery, Workload};
use fj_query::{ConjunctiveQuery, QueryBuilder};
use fj_storage::{Catalog, CmpOp, Predicate, RelationBuilder, Schema};
use rand::Rng;

/// Size and skew parameters for the JOB-like generator.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Number of movies (the `title` table).
    pub movies: usize,
    /// Number of people (the `name` table).
    pub people: usize,
    /// Number of companies.
    pub companies: usize,
    /// Number of keywords.
    pub keywords: usize,
    /// Average cast entries per movie.
    pub cast_per_movie: usize,
    /// Zipf exponent for movie popularity (higher = more skew).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            movies: 2_000,
            people: 4_000,
            companies: 200,
            keywords: 500,
            cast_per_movie: 8,
            skew: 1.0,
            seed: 42,
        }
    }
}

impl JobConfig {
    /// A small configuration for unit and integration tests.
    pub fn tiny() -> Self {
        JobConfig {
            movies: 120,
            people: 200,
            companies: 20,
            keywords: 40,
            cast_per_movie: 4,
            skew: 0.9,
            seed: 7,
        }
    }

    /// A configuration scaled so the whole suite runs in minutes on a laptop
    /// (the base of the benchmark's JOB-like workloads and of the
    /// `job_like` / `robustness` examples). The shape (skew, relative
    /// table sizes) matches [`JobConfig::default`]; only the absolute scale
    /// changes.
    pub fn benchmark() -> Self {
        JobConfig {
            movies: 2_000,
            people: 4_000,
            companies: 150,
            keywords: 400,
            cast_per_movie: 6,
            ..JobConfig::default()
        }
    }
}

/// Number of info types, mirroring IMDB's `info_type` table size.
const INFO_TYPES: i64 = 20;
/// Number of title kinds (movie, tv series, ...).
const KIND_TYPES: i64 = 7;
/// Number of cast role types (actor, director, ...).
const ROLE_TYPES: i64 = 12;
/// Number of company types (production, distribution, ...).
const COMPANY_TYPES: i64 = 4;
/// Number of country codes used by company_name.
const COUNTRIES: i64 = 40;
/// Number of keyword categories.
const KEYWORD_CATEGORIES: i64 = 15;

/// Generate the JOB-like dataset.
pub fn generate_catalog(config: &JobConfig) -> Catalog {
    let mut catalog = Catalog::new();
    let movie_zipf = Zipf::new(config.movies, config.skew);
    let person_zipf = Zipf::new(config.people, config.skew * 0.8);
    let company_zipf = Zipf::new(config.companies, config.skew);
    let keyword_zipf = Zipf::new(config.keywords, config.skew);

    // title(id, kind_id, production_year)
    {
        let mut rng = seeded_rng("title", config.seed);
        let mut b =
            RelationBuilder::new("title", Schema::all_int(&["id", "kind_id", "production_year"]));
        for id in 0..config.movies {
            b.push_ints(&[
                id as i64,
                rng.random_range(0..KIND_TYPES),
                rng.random_range(1950..2023),
            ])
            .unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    // name(id, gender)
    {
        let mut rng = seeded_rng("name", config.seed);
        let mut b = RelationBuilder::new("name", Schema::all_int(&["id", "gender"]));
        for id in 0..config.people {
            b.push_ints(&[id as i64, rng.random_range(0..3)]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    // company_name(id, country_code)
    {
        let mut rng = seeded_rng("company_name", config.seed);
        let mut b = RelationBuilder::new("company_name", Schema::all_int(&["id", "country_code"]));
        for id in 0..config.companies {
            b.push_ints(&[id as i64, rng.random_range(0..COUNTRIES)]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    // keyword(id, category)
    {
        let mut rng = seeded_rng("keyword", config.seed);
        let mut b = RelationBuilder::new("keyword", Schema::all_int(&["id", "category"]));
        for id in 0..config.keywords {
            b.push_ints(&[id as i64, rng.random_range(0..KEYWORD_CATEGORIES)]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    // Small dimension tables: info_type, kind_type, role_type, company_type.
    for (name, size) in [
        ("info_type", INFO_TYPES),
        ("kind_type", KIND_TYPES),
        ("role_type", ROLE_TYPES),
        ("company_type", COMPANY_TYPES),
    ] {
        let mut b = RelationBuilder::new(name, Schema::all_int(&["id", "kind"]));
        for id in 0..size {
            b.push_ints(&[id, id % 3]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    // The fact ("link") tables. Like IMDB's link tables they contain no
    // duplicate rows: the generator draws Zipf-skewed candidates and keeps
    // only previously-unseen ones, so a handful of popular movies still
    // dominate the row counts without inflating bag multiplicities.
    // cast_info(person_id, movie_id, role_id) — the largest fact table.
    {
        let mut rng = seeded_rng("cast_info", config.seed);
        let rows = config.movies * config.cast_per_movie;
        let mut b = RelationBuilder::new(
            "cast_info",
            Schema::all_int(&["person_id", "movie_id", "role_id"]),
        );
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while b.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let row = [
                person_zipf.sample(&mut rng) as i64,
                movie_zipf.sample(&mut rng) as i64,
                rng.random_range(0..ROLE_TYPES),
            ];
            if seen.insert(row) {
                b.push_ints(&row).unwrap();
            }
        }
        catalog.add(b.finish()).unwrap();
    }
    // movie_companies(movie_id, company_id, company_type_id)
    {
        let mut rng = seeded_rng("movie_companies", config.seed);
        let rows = config.movies * 2;
        let mut b = RelationBuilder::new(
            "movie_companies",
            Schema::all_int(&["movie_id", "company_id", "company_type_id"]),
        );
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while b.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let row = [
                movie_zipf.sample(&mut rng) as i64,
                company_zipf.sample(&mut rng) as i64,
                rng.random_range(0..COMPANY_TYPES),
            ];
            if seen.insert(row) {
                b.push_ints(&row).unwrap();
            }
        }
        catalog.add(b.finish()).unwrap();
    }
    // movie_info(movie_id, info_type_id, info)
    {
        let mut rng = seeded_rng("movie_info", config.seed);
        let rows = config.movies * 4;
        let mut b = RelationBuilder::new(
            "movie_info",
            Schema::all_int(&["movie_id", "info_type_id", "info"]),
        );
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while b.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let row = [
                movie_zipf.sample(&mut rng) as i64,
                rng.random_range(0..INFO_TYPES),
                rng.random_range(0..1000),
            ];
            if seen.insert(row) {
                b.push_ints(&row).unwrap();
            }
        }
        catalog.add(b.finish()).unwrap();
    }
    // movie_info_idx(movie_id, info_type_id, info)
    {
        let mut rng = seeded_rng("movie_info_idx", config.seed);
        let rows = config.movies * 2;
        let mut b = RelationBuilder::new(
            "movie_info_idx",
            Schema::all_int(&["movie_id", "info_type_id", "info"]),
        );
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while b.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let row = [
                movie_zipf.sample(&mut rng) as i64,
                rng.random_range(0..INFO_TYPES),
                rng.random_range(0..100),
            ];
            if seen.insert(row) {
                b.push_ints(&row).unwrap();
            }
        }
        catalog.add(b.finish()).unwrap();
    }
    // movie_keyword(movie_id, keyword_id)
    {
        let mut rng = seeded_rng("movie_keyword", config.seed);
        let rows = config.movies * 3;
        let mut b =
            RelationBuilder::new("movie_keyword", Schema::all_int(&["movie_id", "keyword_id"]));
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while b.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let row = [movie_zipf.sample(&mut rng) as i64, keyword_zipf.sample(&mut rng) as i64];
            if seen.insert(row) {
                b.push_ints(&row).unwrap();
            }
        }
        catalog.add(b.finish()).unwrap();
    }
    catalog
}

/// A filter on `production_year` used to generate query variants.
fn year_filter(op: CmpOp, year: i64) -> Predicate {
    Predicate::cmp_const("production_year", op, year)
}

/// Build the JOB-like query suite. Each query family has 2–3 variants
/// (differing filter constants), named `q<family><variant>_like`.
pub fn queries() -> Vec<NamedQuery> {
    let mut out: Vec<NamedQuery> = Vec::new();
    let mut push = |name: &str, q: ConjunctiveQuery| out.push(NamedQuery::new(name, q));

    // Family 1: title ⋈ movie_companies ⋈ company_type ⋈ movie_info_idx ⋈ info_type.
    for (variant, year, ct) in [("a", 2000, 1i64), ("b", 2010, 0), ("c", 1990, 2)] {
        let q = QueryBuilder::new(format!("q1{variant}_like"))
            .atom_where("title", &["t", "kind", "year"], year_filter(CmpOp::Gt, year))
            .atom("movie_companies", &["t", "company", "ctype"])
            .atom_where("company_type", &["ctype", "ctkind"], Predicate::eq_const("kind", ct))
            .atom("movie_info_idx", &["t", "itype", "info"])
            .atom("info_type", &["itype", "itkind"])
            .count()
            .build();
        push(&format!("q1{variant}_like"), q);
    }

    // Family 2: title ⋈ movie_companies ⋈ company_name ⋈ movie_keyword ⋈ keyword.
    for (variant, country) in [("a", 5i64), ("b", 12), ("c", 25)] {
        let q = QueryBuilder::new(format!("q2{variant}_like"))
            .atom("title", &["t", "kind", "year"])
            .atom("movie_companies", &["t", "company", "ctype"])
            .atom_where(
                "company_name",
                &["company", "country"],
                Predicate::cmp_const("country_code", CmpOp::Lt, country),
            )
            .atom("movie_keyword", &["t", "kw"])
            .atom("keyword", &["kw", "category"])
            .count()
            .build();
        push(&format!("q2{variant}_like"), q);
    }

    // Family 3: title ⋈ movie_keyword ⋈ keyword ⋈ movie_info, category filter.
    for (variant, category, year) in [("a", 3i64, 1995), ("b", 7, 2005), ("c", 11, 2015)] {
        let q = QueryBuilder::new(format!("q3{variant}_like"))
            .atom_where("title", &["t", "kind", "year"], year_filter(CmpOp::Gt, year))
            .atom("movie_keyword", &["t", "kw"])
            .atom_where("keyword", &["kw", "cat"], Predicate::eq_const("category", category))
            .atom("movie_info", &["t", "itype", "info"])
            .count()
            .build();
        push(&format!("q3{variant}_like"), q);
    }

    // Family 4: title ⋈ movie_info_idx ⋈ info_type ⋈ movie_keyword ⋈ keyword.
    for (variant, itype) in [("a", 2i64), ("b", 9)] {
        let q = QueryBuilder::new(format!("q4{variant}_like"))
            .atom("title", &["t", "kind", "year"])
            .atom_where(
                "movie_info_idx",
                &["t", "itype", "info"],
                Predicate::eq_const("info_type_id", itype),
            )
            .atom("info_type", &["itype", "itkind"])
            .atom("movie_keyword", &["t", "kw"])
            .atom("keyword", &["kw", "cat"])
            .count()
            .build();
        push(&format!("q4{variant}_like"), q);
    }

    // Family 6: cast_info ⋈ title ⋈ movie_keyword ⋈ keyword ⋈ name.
    for (variant, category, gender) in [("a", 1i64, 0i64), ("b", 6, 1)] {
        let q = QueryBuilder::new(format!("q6{variant}_like"))
            .atom("cast_info", &["p", "t", "role"])
            .atom("title", &["t", "kind", "year"])
            .atom("movie_keyword", &["t", "kw"])
            .atom_where("keyword", &["kw", "cat"], Predicate::eq_const("category", category))
            .atom_where("name", &["p", "gender"], Predicate::eq_const("gender", gender))
            .count()
            .build();
        push(&format!("q6{variant}_like"), q);
    }

    // Family 8: cast_info ⋈ title ⋈ movie_companies ⋈ company_name ⋈ role_type ⋈ name.
    for (variant, role, country) in [("a", 1i64, 10i64), ("b", 4, 20)] {
        let q = QueryBuilder::new(format!("q8{variant}_like"))
            .atom_where("cast_info", &["p", "t", "role"], Predicate::eq_const("role_id", role))
            .atom("title", &["t", "kind", "year"])
            .atom("movie_companies", &["t", "company", "ctype"])
            .atom_where(
                "company_name",
                &["company", "country"],
                Predicate::cmp_const("country_code", CmpOp::Lt, country),
            )
            .atom("role_type", &["role", "rkind"])
            .atom("name", &["p", "gender"])
            .count()
            .build();
        push(&format!("q8{variant}_like"), q);
    }

    // Family 10: cast_info ⋈ title ⋈ movie_companies ⋈ company_name ⋈ company_type ⋈ kind_type.
    for (variant, ct) in [("a", 0i64), ("b", 2)] {
        let q = QueryBuilder::new(format!("q10{variant}_like"))
            .atom("cast_info", &["p", "t", "role"])
            .atom("title", &["t", "kind", "year"])
            .atom("kind_type", &["kind", "kkind"])
            .atom("movie_companies", &["t", "company", "ctype"])
            .atom("company_name", &["company", "country"])
            .atom_where("company_type", &["ctype", "ctkind"], Predicate::eq_const("kind", ct))
            .count()
            .build();
        push(&format!("q10{variant}_like"), q);
    }

    // Family 13 (the paper's headline case): the first joins are all
    // many-to-many on the movie id — cast_info, movie_info, movie_keyword and
    // movie_companies all fan out of `title`, like the clover query.
    for (variant, category, itype, year) in
        [("a", 2i64, 5i64, 1980), ("b", 8, 11, 2000), ("c", 12, 16, 2010)]
    {
        let q = QueryBuilder::new(format!("q13{variant}_like"))
            .atom("cast_info", &["p", "t", "role"])
            .atom("movie_info", &["t", "itype", "info"])
            .atom("movie_keyword", &["t", "kw"])
            .atom_where("title", &["t", "kind", "year"], year_filter(CmpOp::Gt, year))
            .atom_where("keyword", &["kw", "cat"], Predicate::eq_const("category", category))
            .atom_where("info_type", &["itype", "itkind"], Predicate::eq_const("id", itype))
            .count()
            .build();
        push(&format!("q13{variant}_like"), q);
    }

    // Family 17: cast_info ⋈ movie_keyword ⋈ keyword ⋈ name ⋈ title.
    for (variant, gender, category) in [("a", 0i64, 4i64), ("b", 1, 9)] {
        let q = QueryBuilder::new(format!("q17{variant}_like"))
            .atom("cast_info", &["p", "t", "role"])
            .atom("movie_keyword", &["t", "kw"])
            .atom_where("keyword", &["kw", "cat"], Predicate::eq_const("category", category))
            .atom_where("name", &["p", "gender"], Predicate::eq_const("gender", gender))
            .atom("title", &["t", "kind", "year"])
            .count()
            .build();
        push(&format!("q17{variant}_like"), q);
    }

    // Family 20: a longer chain through both company and keyword dimensions.
    for (variant, country, category) in [("a", 8i64, 5i64), ("b", 15, 10)] {
        let q = QueryBuilder::new(format!("q20{variant}_like"))
            .atom("title", &["t", "kind", "year"])
            .atom("kind_type", &["kind", "kkind"])
            .atom("movie_companies", &["t", "company", "ctype"])
            .atom_where(
                "company_name",
                &["company", "country"],
                Predicate::cmp_const("country_code", CmpOp::Lt, country),
            )
            .atom("movie_keyword", &["t", "kw"])
            .atom_where("keyword", &["kw", "cat"], Predicate::eq_const("category", category))
            .atom("movie_info_idx", &["t", "itype", "info"])
            .atom("info_type", &["itype", "itkind"])
            .count()
            .build();
        push(&format!("q20{variant}_like"), q);
    }

    out
}

/// Generate the full JOB-like workload (catalog plus query suite).
pub fn workload(config: &JobConfig) -> Workload {
    Workload::new(
        format!("job-like movies={} skew={}", config.movies, config.skew),
        generate_catalog(config),
        queries(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_tables_with_expected_sizes() {
        let config = JobConfig::tiny();
        let cat = generate_catalog(&config);
        assert_eq!(cat.get("title").unwrap().num_rows(), config.movies);
        assert_eq!(cat.get("name").unwrap().num_rows(), config.people);
        assert_eq!(cat.get("cast_info").unwrap().num_rows(), config.movies * config.cast_per_movie);
        assert_eq!(cat.get("movie_keyword").unwrap().num_rows(), config.movies * 3);
        for dim in
            ["info_type", "kind_type", "role_type", "company_type", "company_name", "keyword"]
        {
            assert!(!cat.get(dim).unwrap().is_empty(), "{dim} is empty");
        }
    }

    #[test]
    fn all_queries_validate_and_are_acyclic() {
        let w = workload(&JobConfig::tiny());
        w.validate().unwrap();
        assert!(w.queries.len() >= 20, "expected a substantial suite, got {}", w.queries.len());
        for q in &w.queries {
            assert!(!q.cyclic, "JOB queries are acyclic but {} is cyclic", q.name);
            assert!(q.query.num_atoms() >= 4, "{} has too few joins", q.name);
        }
    }

    #[test]
    fn movie_popularity_is_skewed() {
        let cat = generate_catalog(&JobConfig::tiny());
        let cast = cat.get("cast_info").unwrap();
        let movie_col = cast.column_by_name("movie_id").unwrap();
        let mut counts = std::collections::HashMap::new();
        for v in movie_col.iter() {
            *counts.entry(v).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let avg = cast.num_rows() / counts.len();
        assert!(max > 3 * avg, "expected a skewed movie distribution (max {max}, avg {avg})");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_catalog(&JobConfig::tiny());
        let b = generate_catalog(&JobConfig::tiny());
        assert_eq!(
            a.get("cast_info").unwrap().canonical_rows(),
            b.get("cast_info").unwrap().canonical_rows()
        );
    }

    #[test]
    fn q13_like_queries_join_fact_tables_on_the_movie_id() {
        let suite = queries();
        let q13 = suite.iter().find(|q| q.name == "q13a_like").unwrap();
        // The three big fact tables all bind variable `t`.
        let t_atoms = q13.query.atoms_with_var("t");
        assert!(t_atoms.len() >= 4);
    }
}
