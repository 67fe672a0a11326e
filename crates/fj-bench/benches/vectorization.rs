//! Figure 18: the impact of vectorized execution — batch sizes 1 (no
//! vectorization), 10, 100 and 1000 — plus the result-side counterpart:
//! the chunked (columnar, batched) sink boundary against a per-tuple
//! adapter on an output-heavy query.

use criterion::{criterion_group, criterion_main, Criterion};
use fj_bench::{execute, plan_query, Engine};
use fj_plan::EstimatorMode;
use fj_query::{OutputBuilder, ResultChunk};
use fj_storage::Value;
use fj_workloads::{job, micro};
use free_join::compile::compile;
use free_join::sink::{OutputSink, Sink};
use free_join::{binary2fj, execute_pipeline, factor, prepare_inputs, FreeJoinOptions, InputTrie};
use std::sync::Arc;
use std::time::Duration;

const QUERIES: &[&str] =
    &["q1a_like", "q3a_like", "q6a_like", "q10a_like", "q13a_like", "q17a_like"];

fn bench(c: &mut Criterion) {
    let workload = job::workload(&job::JobConfig::benchmark());
    let mut group = c.benchmark_group("fig18_vectorization");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for name in QUERIES {
        let named = workload.query(name).expect("query exists");
        let (plan, _) = plan_query(&workload.catalog, &named.query, EstimatorMode::Accurate);
        for batch in [1usize, 10, 100, 1000] {
            let engine = Engine::FreeJoin(FreeJoinOptions::default().with_batch_size(batch));
            group.bench_function(format!("{name}/batch{batch}"), |b| {
                b.iter(|| execute(&workload.catalog, &named.query, &plan, &engine))
            });
        }
    }
    group.finish();
}

/// A per-tuple reference sink: full-width chunks, replayed entry by entry
/// through `push_weighted` — the tuple-at-a-time boundary the chunked
/// pipeline replaced.
struct PerTupleSink {
    builder: OutputBuilder,
}

impl Sink for PerTupleSink {
    fn push_chunk(&mut self, chunk: &ResultChunk) {
        for i in 0..chunk.len() {
            let row = chunk.row(i);
            self.builder.push_weighted(&row, chunk.weights()[i]);
        }
    }

    fn push(&mut self, tuple: &[Value], _bound_prefix: usize, weight: u64) {
        self.builder.push_weighted(tuple, weight);
    }

    fn projected_slots(&self) -> Option<Vec<usize>> {
        None
    }

    fn tuples(&self) -> u64 {
        self.builder.tuples()
    }
}

/// The chunked sink boundary against the per-tuple adapter on the
/// output-heavy star query (~900k result tuples): the cost difference is
/// almost entirely the result pipeline, since the probe side is identical.
fn bench_chunked_sink(c: &mut Criterion) {
    let workload = micro::star(3, 400, 100, 0.6, 23);
    let named = &workload.queries[0];
    let prepared = prepare_inputs(&workload.catalog, &named.query).expect("star prepares");
    let input_vars: Vec<Vec<String>> = prepared.atoms.iter().map(|a| a.vars.clone()).collect();
    let mut plan = binary2fj(&input_vars);
    factor(&mut plan);
    let options = FreeJoinOptions::default().with_num_threads(1);
    let compiled = compile(&plan, &input_vars).expect("star compiles");
    let tries: Vec<Arc<InputTrie>> = prepared
        .atoms
        .iter()
        .zip(&compiled.schemas)
        .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
        .collect();
    let builder = OutputBuilder::try_new(
        &named.query.head,
        named.query.aggregate.clone(),
        &compiled.binding_order,
    )
    .expect("star output builder");

    let mut group = c.benchmark_group("chunked_sink");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    group.bench_function("star/chunked", |b| {
        b.iter(|| {
            let mut sink = OutputSink::new(builder.clone());
            execute_pipeline(&tries, &compiled, &options, &mut sink);
            sink.finish().cardinality()
        })
    });
    group.bench_function("star/per_tuple", |b| {
        b.iter(|| {
            let mut sink = PerTupleSink { builder: builder.clone() };
            execute_pipeline(&tries, &compiled, &options, &mut sink);
            sink.builder.finish().cardinality()
        })
    });
    group.finish();
}

criterion_group!(benches, bench, bench_chunked_sink);
criterion_main!(benches);
