//! Result sinks: where the join phase sends its output, one
//! [`ResultChunk`] at a time.
//!
//! The final pipeline of a query feeds an [`OutputSink`] (which applies the
//! query's aggregate); earlier pipelines of a bushy plan feed a
//! [`MaterializeSink`] whose rows become an intermediate relation. Both
//! consume **column-major chunks** ([`fj_query::ResultChunk`]) rather than
//! individual tuples: the executor appends bindings into a per-worker
//! [`ChunkBuffer`] and crosses the (virtual) sink boundary once per ~1024
//! result tuples, so the per-tuple virtual call, bounds-checked slice copy
//! and heap row of the old tuple-at-a-time boundary are gone from the hot
//! path. A thin per-tuple adapter ([`Sink::push`]) remains for tests and
//! simple callers.

use crate::cancel::CancelToken;
use fj_query::{OutputBuilder, QueryOutput, ResultChunk};
use fj_storage::{Row, Value};

/// A consumer of join results.
///
/// The hot path is [`Sink::push_chunk`]: the executor's [`ChunkBuffer`]
/// gathers result tuples column-wise — already projected onto
/// [`Sink::projected_slots`] — and hands over a full chunk at a time. The
/// chunk's weights column carries bag-semantics multiplicities — including
/// the rows told apart only by variables the plan compiler pruned: an entry
/// with weight `w` stands for `w` full result tuples.
pub trait Sink {
    /// Consume one chunk of results. The chunk's columns are exactly
    /// [`Sink::projected_slots`], in order; entries never have weight 0.
    fn push_chunk(&mut self, chunk: &ResultChunk);

    /// Per-tuple adapter, kept for tests and simple callers: push one result
    /// tuple laid out in the pipeline's binding order, with `bound_prefix`
    /// valid slots (the tuple length — the executor only emits fully bound
    /// tuples) and a multiplicity.
    fn push(&mut self, tuple: &[Value], bound_prefix: usize, weight: u64);

    /// The binding-order slots this sink consumes, in the column order its
    /// chunks must carry; `None` means every slot, in binding order. A
    /// counting sink returns `Some([])` — its chunks carry only weights, so
    /// the executor copies no values at all.
    fn projected_slots(&self) -> Option<Vec<usize>>;

    /// Number of tuples pushed so far (with multiplicity) — chunk-weight
    /// metadata, never a row count.
    fn tuples(&self) -> u64;
}

/// The executor-side half of the chunked result pipeline: a reusable
/// column-major buffer that appends bindings straight out of the binding
/// tuple (projected onto the sink's slots — zero copies for a counting
/// sink) and flushes to [`Sink::push_chunk`] on capacity.
///
/// One buffer exists per worker; the work-stealing executor flushes it at
/// every task boundary so each per-task sink holds exactly its task's
/// results and the deterministic path-key-order merge is preserved.
#[derive(Debug)]
pub struct ChunkBuffer {
    chunk: ResultChunk,
    /// Projection over the binding order; `None` = identity (all slots).
    slots: Option<Vec<usize>>,
    /// Chunks flushed so far.
    flushed: u64,
    /// Memory-budget meter: every flush charges an estimate of the chunk's
    /// materialized size against this token, so `max_result_bytes` trips the
    /// shared cancel flag mid-query. The disabled token costs one `Option`
    /// check per flush (not per tuple).
    meter: CancelToken,
}

impl ChunkBuffer {
    /// A buffer shaped for `sink`'s projection over a `num_slots`-wide
    /// binding order.
    pub fn for_sink(sink: &dyn Sink, num_slots: usize) -> Self {
        Self::for_sink_metered(sink, num_slots, CancelToken::disabled())
    }

    /// Like [`ChunkBuffer::for_sink`] but charging flushed bytes against
    /// `meter`'s result-byte budget.
    pub fn for_sink_metered(sink: &dyn Sink, num_slots: usize, meter: CancelToken) -> Self {
        let slots = sink.projected_slots();
        let width = slots.as_ref().map_or(num_slots, Vec::len);
        ChunkBuffer { chunk: ResultChunk::new(width), slots, flushed: 0, meter }
    }

    /// Append one result tuple (weight 0 entries are dropped), flushing to
    /// the sink when the chunk fills.
    #[inline]
    pub fn push(&mut self, sink: &mut dyn Sink, tuple: &[Value], weight: u64) {
        match &self.slots {
            None => self.chunk.push(tuple, weight),
            Some(slots) => self.chunk.push_projected(tuple, slots, weight),
        }
        if self.chunk.is_full() {
            self.flush(sink);
        }
    }

    /// Hand any buffered entries to the sink. Call at the end of a pipeline
    /// (or task) so no result stays behind in the buffer.
    pub fn flush(&mut self, sink: &mut dyn Sink) {
        if !self.chunk.is_empty() {
            if !self.meter.is_disabled() {
                // Estimate of the chunk's resident size: each entry holds
                // `width` 16-byte values plus an 8-byte weight.
                let width = self.chunk.num_columns() as u64;
                let bytes = (self.chunk.len() as u64) * (width * 16 + 8);
                self.meter.charge_bytes(bytes);
            }
            sink.push_chunk(&self.chunk);
            self.chunk.clear();
            self.flushed += 1;
        }
    }

    /// Chunks flushed so far.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }
}

/// Sink applying the query aggregate via [`OutputBuilder`].
#[derive(Debug)]
pub struct OutputSink {
    builder: OutputBuilder,
}

impl OutputSink {
    /// Wrap an output builder.
    pub fn new(builder: OutputBuilder) -> Self {
        OutputSink { builder }
    }

    /// Finish and produce the query output.
    pub fn finish(self) -> QueryOutput {
        self.builder.finish()
    }

    /// Absorb another sink's partial results (see [`OutputBuilder::merge`]).
    /// The parallel executor gives every task a clone of an empty sink and
    /// merges them in path-key order; materialized results merge chunk-wise.
    pub fn merge(&mut self, other: OutputSink) {
        self.builder.merge(other.builder);
    }

    /// Chunks this sink's builder received (including merged-in sinks).
    pub fn chunks_received(&self) -> u64 {
        self.builder.chunks_received()
    }
}

impl Sink for OutputSink {
    fn push_chunk(&mut self, chunk: &ResultChunk) {
        self.builder.push_chunk(chunk);
    }

    fn push(&mut self, tuple: &[Value], _bound_prefix: usize, weight: u64) {
        self.builder.push_weighted(tuple, weight);
    }

    fn projected_slots(&self) -> Option<Vec<usize>> {
        Some(self.builder.positions().to_vec())
    }

    fn tuples(&self) -> u64 {
        self.builder.tuples()
    }
}

/// Sink materializing full result rows (used for bushy-plan intermediates).
///
/// The paper notes its materialization strategy is deliberately simple:
/// "for each intermediate that we need to materialize, we store the tuples
/// containing all base-table attributes in a simple vector". This sink keeps
/// that spirit but stores the tuples as **column-major chunks** with a
/// weights column: a weighted tuple allocates its shared values once at push
/// time, and rows (with duplicates expanded) materialize only at the public
/// [`MaterializeSink::into_rows`] boundary.
#[derive(Debug, Default)]
pub struct MaterializeSink {
    /// Stored chunks in emission order (every slot of the binding order).
    chunks: Vec<ResultChunk>,
    /// Running tuple total (with multiplicity).
    total: u64,
    /// Chunks received through `push_chunk`.
    received: u64,
}

impl MaterializeSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized rows, with weighted entries expanded into their
    /// duplicates — the only place this sink builds row vectors.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::with_capacity(usize::try_from(self.total).unwrap_or(0));
        for chunk in &self.chunks {
            chunk.expand_into(&mut rows);
        }
        rows
    }

    /// Absorb another sink's chunks (appended after this sink's). The
    /// parallel executor merges per-task sinks in path-key order.
    pub fn merge(&mut self, other: MaterializeSink) {
        self.chunks.extend(other.chunks);
        self.total += other.total;
        self.received += other.received;
    }

    /// Number of rows materialized (with multiplicity).
    pub fn len(&self) -> usize {
        usize::try_from(self.total).unwrap_or(usize::MAX)
    }

    /// True when nothing was materialized.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Chunks this sink received (including merged-in sinks).
    pub fn chunks_received(&self) -> u64 {
        self.received
    }

    /// The stored chunk with room for one more `width`-column entry.
    fn chunk_with_room(&mut self, width: usize) -> &mut ResultChunk {
        let needs_new = match self.chunks.last() {
            None => true,
            Some(c) => c.is_full() || c.num_columns() != width,
        };
        if needs_new {
            self.chunks.push(ResultChunk::new(width));
        }
        self.chunks.last_mut().expect("a chunk was just ensured")
    }
}

impl Sink for MaterializeSink {
    fn push_chunk(&mut self, chunk: &ResultChunk) {
        if chunk.is_empty() {
            return;
        }
        self.received += 1;
        self.total += chunk.total_weight();
        self.chunks.push(chunk.clone());
    }

    fn push(&mut self, tuple: &[Value], _bound_prefix: usize, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        self.chunk_with_room(tuple.len()).push(tuple, weight);
    }

    fn projected_slots(&self) -> Option<Vec<usize>> {
        None // intermediates keep every bound variable
    }

    fn tuples(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::Aggregate;

    fn binding() -> Vec<String> {
        ["x", "y"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn output_sink_counting_projects_no_columns() {
        let b = OutputBuilder::new(&binding(), Aggregate::Count, &binding());
        let mut sink = OutputSink::new(b);
        assert_eq!(sink.projected_slots(), Some(vec![]), "counting sinks need no columns");
        sink.push(&[Value::Int(1), Value::Int(2)], 2, 5);
        assert_eq!(sink.tuples(), 5);
        assert_eq!(sink.finish(), QueryOutput::count(5));
    }

    #[test]
    fn output_sink_group_count_projects_the_group_vars() {
        let b = OutputBuilder::new(&binding(), Aggregate::group_count(&["y"]), &binding());
        let sink = OutputSink::new(b);
        assert_eq!(sink.projected_slots(), Some(vec![1]));
    }

    #[test]
    fn sinks_merge_partial_results() {
        let b = OutputBuilder::new(&binding(), Aggregate::Count, &binding());
        let mut a = OutputSink::new(b.clone());
        let mut c = OutputSink::new(b);
        a.push(&[Value::Int(1), Value::Int(2)], 2, 3);
        c.push(&[Value::Int(1), Value::Int(2)], 2, 4);
        a.merge(c);
        assert_eq!(a.finish(), QueryOutput::count(7));

        let mut m1 = MaterializeSink::new();
        let mut m2 = MaterializeSink::new();
        m1.push(&[Value::Int(1)], 1, 1);
        m2.push(&[Value::Int(2)], 1, 2);
        m1.merge(m2);
        assert_eq!(m1.len(), 3);
        assert_eq!(
            m1.into_rows(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn materialize_sink_collects_weighted_rows() {
        let mut sink = MaterializeSink::new();
        assert!(sink.is_empty());
        sink.push(&[Value::Int(1)], 1, 1);
        sink.push(&[Value::Int(2)], 1, 3);
        sink.push(&[Value::Int(3)], 1, 0);
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.tuples(), 4);
        let rows = sink.into_rows();
        assert_eq!(rows[0], vec![Value::Int(1)]);
        assert_eq!(rows[3], vec![Value::Int(2)]);
    }

    #[test]
    fn materialize_sink_stores_weighted_tuples_once() {
        let mut sink = MaterializeSink::new();
        sink.push(&[Value::Int(7)], 1, 1_000);
        assert_eq!(sink.chunks.len(), 1, "one chunk");
        assert_eq!(sink.chunks[0].len(), 1, "one stored entry for 1000 duplicates");
        assert_eq!(sink.tuples(), 1_000);
        assert_eq!(sink.into_rows().len(), 1_000);
    }

    #[test]
    fn chunk_buffer_projects_flushes_on_capacity_and_counts() {
        use fj_query::CHUNK_CAPACITY;
        let b = OutputBuilder::new(&binding(), Aggregate::group_count(&["y"]), &binding());
        let mut sink = OutputSink::new(b);
        let mut buf = ChunkBuffer::for_sink(&sink, 2);
        // Exactly one capacity's worth: the buffer flushes itself once, and
        // a trailing flush finds nothing left (the boundary case).
        for i in 0..CHUNK_CAPACITY {
            buf.push(&mut sink, &[Value::Int(i as i64), Value::Int(1)], 1);
        }
        assert_eq!(buf.flushed(), 1, "flush at exactly chunk capacity");
        buf.flush(&mut sink);
        assert_eq!(buf.flushed(), 1, "an empty buffer does not flush");
        assert_eq!(sink.tuples(), CHUNK_CAPACITY as u64);
        assert_eq!(sink.chunks_received(), 1);
        // One entry past the boundary needs a second, partial chunk.
        buf.push(&mut sink, &[Value::Int(-1), Value::Int(1)], 2);
        buf.flush(&mut sink);
        assert_eq!(buf.flushed(), 2);
        assert_eq!(sink.tuples(), CHUNK_CAPACITY as u64 + 2);
    }

    #[test]
    fn chunk_buffer_identity_projection_keeps_every_slot() {
        let mut sink = MaterializeSink::new();
        let mut buf = ChunkBuffer::for_sink(&sink, 3);
        buf.push(&mut sink, &[Value::Int(1), Value::Int(2), Value::Int(3)], 1);
        buf.flush(&mut sink);
        assert_eq!(sink.into_rows(), vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]]);
    }
}
