//! Where the join phase sends its output: an [`OutputBuilder`], one
//! [`ResultChunk`] at a time.
//!
//! Every pipeline of every engine ends in an [`OutputBuilder`]. The final
//! pipeline's builder applies the query's head and aggregate; an earlier pipeline of
//! a bushy plan uses `Aggregate::Materialize` over its whole binding order,
//! so its rows become the intermediate relation — the paper keeps it that
//! simple: "for each intermediate that we need to materialize, we store the
//! tuples containing all base-table attributes in a simple vector"
//! (Section 5). The builder consumes **column-major chunks**
//! ([`fj_query::ResultChunk`]) rather than individual tuples: the executor
//! appends bindings into a per-worker [`ChunkBuffer`], already projected
//! onto [`OutputBuilder::positions`], and hands the builder one chunk per
//! ~1024 result tuples, so no per-tuple copy or heap row is paid on the hot
//! path.

use crate::cancel::CancelToken;
use crate::error::{EngineError, EngineResult};
use fj_query::{Aggregate, ConjunctiveQuery, OutputBuilder, ResultChunk};
use fj_storage::Value;

/// The empty builder one pipeline emits into, over its binding `order`: the
/// query's head and aggregate for the root pipeline, every variable of the
/// binding order as a row for an intermediate.
pub fn pipeline_builder(
    query: &ConjunctiveQuery,
    order: &[String],
    is_root: bool,
) -> EngineResult<OutputBuilder> {
    if is_root {
        OutputBuilder::try_new(&query.head, query.aggregate.clone(), order)
    } else {
        OutputBuilder::try_new(order, Aggregate::Materialize, order)
    }
    .map_err(EngineError::Query)
}

/// The executor-side half of the chunked result pipeline: a reusable
/// column-major buffer that appends bindings straight out of the binding
/// tuple (projected onto the builder's positions — zero copies for a
/// counting builder) and flushes into the [`OutputBuilder`] it owns on
/// capacity.
///
/// One buffer exists per worker task; the work-stealing executor finishes
/// it at every task boundary so each per-task builder holds exactly its
/// task's results and the deterministic path-key-order merge is preserved.
#[derive(Debug)]
pub struct ChunkBuffer {
    builder: OutputBuilder,
    chunk: ResultChunk,
    /// Memory-budget meter: every flush charges an estimate of the chunk's
    /// materialized size against this token, so a byte budget trips the
    /// shared cancel flag mid-query. The disabled token costs one `Option`
    /// check per flush (not per tuple).
    meter: CancelToken,
}

impl ChunkBuffer {
    /// A buffer feeding `builder`, shaped for its projection, charging
    /// flushed bytes against `meter`'s result-byte budget.
    pub fn new(builder: OutputBuilder, meter: CancelToken) -> Self {
        let chunk = ResultChunk::new(builder.positions().len());
        ChunkBuffer { builder, chunk, meter }
    }

    /// Append one full binding-order result tuple (weight 0 entries are
    /// dropped), flushing into the builder when the chunk fills.
    #[inline]
    pub fn push(&mut self, tuple: &[Value], weight: u64) {
        self.chunk.push_projected(tuple, self.builder.positions(), weight);
        if self.chunk.is_full() {
            self.flush();
        }
    }

    /// Hand any buffered entries to the builder.
    fn flush(&mut self) {
        if !self.chunk.is_empty() {
            if !self.meter.is_disabled() {
                // Estimate of the chunk's resident size: each entry holds
                // `width` 16-byte values plus an 8-byte weight.
                let width = self.chunk.num_columns() as u64;
                let bytes = (self.chunk.len() as u64) * (width * 16 + 8);
                self.meter.charge_bytes(bytes);
            }
            self.builder.push_chunk(&self.chunk);
            self.chunk.clear();
        }
    }

    /// Flush what is left and hand the builder back. Call at the end of a
    /// pipeline (or task) so no result stays behind in the buffer.
    pub fn finish(mut self) -> OutputBuilder {
        self.flush();
        self.builder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{QueryOutput, CHUNK_CAPACITY};

    fn binding() -> Vec<String> {
        ["x", "y"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn chunk_buffer_projects_flushes_on_capacity_and_counts() {
        let b = OutputBuilder::new(&binding(), Aggregate::group_count(&["y"]), &binding());
        let mut buf = ChunkBuffer::new(b, CancelToken::disabled());
        assert_eq!(buf.chunk.num_columns(), 1, "only the group variable is copied");
        // Exactly one capacity's worth: the buffer flushes itself once (the
        // boundary case).
        for i in 0..CHUNK_CAPACITY {
            buf.push(&[Value::Int(i as i64), Value::Int(1)], 1);
        }
        assert_eq!(buf.builder.chunks_received(), 1, "flush at exactly chunk capacity");
        // One entry past the boundary needs a second, partial chunk.
        buf.push(&[Value::Int(-1), Value::Int(1)], 2);
        assert_eq!(buf.builder.chunks_received(), 1);
        let builder = buf.finish();
        assert_eq!(builder.chunks_received(), 2);
        assert_eq!(builder.tuples(), CHUNK_CAPACITY as u64 + 2);
    }

    #[test]
    fn chunk_buffer_finish_on_an_empty_buffer_flushes_nothing() {
        let b = OutputBuilder::new(&binding(), Aggregate::Count, &binding());
        let buf = ChunkBuffer::new(b, CancelToken::disabled());
        assert_eq!(buf.chunk.num_columns(), 0, "counting builders need no columns");
        let builder = buf.finish();
        assert_eq!(builder.chunks_received(), 0);
        assert_eq!(builder.finish(), QueryOutput::count(0));
    }

    #[test]
    fn chunk_buffer_materializing_the_binding_order_keeps_every_slot() {
        let order: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let b = OutputBuilder::new(&order, Aggregate::Materialize, &order);
        let mut buf = ChunkBuffer::new(b, CancelToken::disabled());
        buf.push(&[Value::Int(1), Value::Int(2), Value::Int(3)], 1);
        buf.push(&[Value::Int(4), Value::Int(5), Value::Int(6)], 0);
        assert_eq!(
            buf.finish().finish(),
            QueryOutput::rows(order, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]])
        );
    }

    #[test]
    fn chunk_buffer_charges_flushed_bytes_to_its_meter() {
        let b = OutputBuilder::new(&binding(), Aggregate::Materialize, &binding());
        let meter = CancelToken::with_limits(None, 1);
        let mut buf = ChunkBuffer::new(b, meter.clone());
        buf.push(&[Value::Int(1), Value::Int(2)], 1);
        assert_eq!(meter.charged_bytes(), 0, "nothing is charged before a flush");
        buf.finish();
        assert_eq!(meter.charged_bytes(), 2 * 16 + 8, "two values and a weight");
        assert_eq!(meter.fired(), Some(fj_query::CancelReason::MemoryBudget));
    }
}
