//! The harness's own span recorder. Spans wrap the public calls the harness
//! makes into the system under test; nothing is recorded inside the program.
//! They stay in memory during the run and are written once, at exit, as
//! Chrome trace-event JSON (`B`/`E` pairs, one `tid` per harness thread).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `op` is shared by every span of one operation (one query
/// execution, one wire request); `depth` is its nesting level under the
/// operation's root span, which is how a parent is identified on one thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub op: u64,
    pub depth: u8,
    /// The interval was not measured around a call of its own but cut out
    /// of its parent with a duration the parent call returned.
    pub derived: bool,
}

/// The spans of one harness thread, in the order they were opened.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    recording_s: f64,
}

impl Tracer {
    /// `epoch` is shared by the tracers of a run so their clocks line up.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer { epoch, tid, spans: Vec::new(), recording_s: 0.0 }
    }

    /// Record the spans of one operation through `f`, and charge the time
    /// that takes to the tracer: spans are recorded after the call they
    /// describe returned, so this is all that tracing costs the run.
    pub fn record(&mut self, f: impl FnOnce(&mut Tracer)) {
        let start = Instant::now();
        f(self);
        self.recording_s += start.elapsed().as_secs_f64();
    }

    /// Seconds spent recording spans so far.
    pub fn recording_s(&self) -> f64 {
        self.recording_s
    }

    pub fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a span measured around a call.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant, op: u64, depth: u8) {
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span { name, start_us, end_us, op, depth, derived: false });
    }

    /// Split the interval `[start, end]` of a parent span into consecutive
    /// child spans of the given durations (seconds), as returned by the
    /// parent call; what is left over is recorded under `rest`. Durations are
    /// clamped so the children never leave the parent.
    pub fn split(
        &mut self,
        start: Instant,
        end: Instant,
        parts: &[(&'static str, f64)],
        rest: &'static str,
        op: u64,
        depth: u8,
    ) {
        let end_us = self.micros(end);
        let mut at = self.micros(start);
        for &(name, seconds) in parts {
            let stop = (at + seconds * 1e6).min(end_us);
            self.spans
                .push(Span { name, start_us: at, end_us: stop, op, depth, derived: true });
            at = stop;
        }
        self.spans
            .push(Span { name: rest, start_us: at, end_us, op, depth, derived: true });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Render the tracers of a run as one Chrome trace-event document. Within a
/// thread, spans were recorded parent-after-children for measured calls, so
/// events are re-ordered here by (start, depth) to give viewers properly
/// nested `B`/`E` pairs with non-decreasing timestamps.
pub fn chrome_json(workload: &str, tracers: &[Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for tracer in tracers {
        let mut order: Vec<&Span> = tracer.spans.iter().collect();
        order.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.depth.cmp(&b.depth)));
        // Open spans, innermost last; a span closes before any later span
        // that starts at or after its end and is not nested in it.
        let mut open: Vec<&Span> = Vec::new();
        let mut emit = |ph: char, span: &Span, ts: f64, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"workload\":\"{workload}\",\"op\":{},\"derived\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                tracer.tid,
                span.op,
                span.derived
            );
        };
        for span in order {
            while let Some(top) = open.last() {
                if top.depth >= span.depth {
                    emit('E', top, top.end_us.min(span.start_us), &mut out);
                    open.pop();
                } else {
                    break;
                }
            }
            emit('B', span, span.start_us, &mut out);
            open.push(span);
        }
        while let Some(top) = open.pop() {
            emit('E', top, top.end_us, &mut out);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn split_children_stay_inside_the_parent_and_rest_takes_the_remainder() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0);
        let start = epoch + Duration::from_micros(100);
        let end = epoch + Duration::from_micros(200);
        t.split(start, end, &[("a.x", 30e-6), ("b.y", 500e-6)], "c.rest", 1, 2);
        let s = &t.spans;
        assert_eq!((s[0].start_us.round(), s[0].end_us.round()), (100.0, 130.0));
        assert_eq!((s[1].start_us.round(), s[1].end_us.round()), (130.0, 200.0));
        assert_eq!((s[2].start_us.round(), s[2].end_us.round()), (200.0, 200.0));
    }

    #[test]
    fn chrome_json_nests_and_balances() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 3);
        let at = |us| epoch + Duration::from_micros(us);
        // Children first, then the parent, as the harness records them.
        t.span("plan.optimize", at(10), at(20), 1, 1);
        t.span("engine.execute", at(20), at(90), 1, 1);
        t.span("op.freejoin", at(10), at(90), 1, 0);
        t.span("op.binary", at(95), at(120), 2, 0);
        let json = chrome_json("w", &[t]);
        let phases: Vec<char> = json
            .match_indices("\"ph\":\"")
            .map(|(i, m)| json[i + m.len()..].chars().next().unwrap())
            .collect();
        assert_eq!(phases, vec!['B', 'B', 'E', 'B', 'E', 'E', 'B', 'E']);
        assert!(json.contains("\"cat\":\"plan\""));
        assert!(json.contains("\"tid\":3"));
    }
}
