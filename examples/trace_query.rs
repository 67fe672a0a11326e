//! Span tracing end to end on the skewed star: execute with per-task
//! tracing at 4 workers and a small split threshold, print the canonical
//! span tree, and write the Chrome trace JSON (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) to the path given as
//! the first argument (default `trace_query.json`).
//!
//! Doubles as a CI gate: the process exits nonzero unless the trace
//! reconciles with the engine's `ExecStats` — task spans cover at least
//! `tasks_spawned`, steal instants equal `tasks_stolen` exactly — and a
//! run is observed whose steal instants land on at least two distinct
//! workers (steal schedules are nondeterministic, so the example loops
//! executions until one qualifies). The emitted JSON is then validated by
//! `ci/check_trace_format.py`.
//!
//! ```text
//! cargo run --release --example trace_query trace.json
//! python3 ci/check_trace_format.py trace.json
//! ```

use freejoin::obs::{TraceCat, TraceKind};
use freejoin::prelude::*;
use freejoin::workloads::micro;
use std::sync::Arc;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "trace_query.json".to_string());

    // The workload the work-stealing scheduler exists for: one hot key
    // owning ~90% of the output, so splits and steals actually happen.
    let workload = micro::skewed_star(2, 120, 0.9, 29);
    let named = &workload.queries[0];
    // Dead-variable pruning off: pruned, the count is one probe per hub key
    // and leaves the scheduler nothing to split.
    let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(
        FreeJoinOptions::default()
            .with_num_threads(4)
            .with_split_threshold(8)
            .with_factorized_output(false),
    );
    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();

    let mut failures = Vec::new();
    let mut chosen = None;
    for attempt in 1..=50 {
        let request = ExecRequest { trace: true, ..ExecRequest::default() };
        let ExecReport { output: out, stats, trace, .. } =
            prepared.execute(&workload.catalog, &request).unwrap();
        let trace = trace.expect("the request asked for a trace");

        // Exact reconciliation is only defined on drop-free traces: ring
        // overflow discards the oldest events, and whether a skewed
        // schedule overflows one worker's ring is itself schedule-
        // dependent. Such an attempt neither passes nor fails — retry.
        if trace.dropped_events() > 0 {
            continue;
        }
        // Reconciliation gates, checked on every drop-free attempt: the
        // trace is not a sample of the schedule, it IS the schedule.
        if let Err(e) = trace.validate_nesting() {
            failures.push(format!("attempt {attempt}: unbalanced span nesting: {e}"));
        }
        let task_spans = trace.count(TraceKind::Begin, TraceCat::Task);
        if task_spans < stats.tasks_spawned {
            failures.push(format!(
                "attempt {attempt}: {task_spans} task spans < {} tasks spawned",
                stats.tasks_spawned
            ));
        }
        let steal_instants = trace.count(TraceKind::Instant, TraceCat::Steal);
        if steal_instants != stats.tasks_stolen {
            failures.push(format!(
                "attempt {attempt}: {steal_instants} steal instants != {} tasks stolen",
                stats.tasks_stolen
            ));
        }
        if !failures.is_empty() {
            break;
        }

        // Acceptance: steals observed on >= 2 distinct workers, so the
        // exported timeline provably shows cross-worker migration.
        let stealers = trace.workers_with_instant(TraceCat::Steal);
        if stealers.len() >= 2 {
            println!(
                "attempt {attempt}: {} tasks spawned, {} stolen by workers {stealers:?}, \
                 {} output tuples",
                stats.tasks_spawned,
                stats.tasks_stolen,
                out.cardinality()
            );
            chosen = Some(trace);
            break;
        }
    }

    if failures.is_empty() && chosen.is_none() {
        failures
            .push("no run in 50 attempts had steal instants on >= 2 distinct workers".to_string());
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }

    let trace = chosen.expect("checked above");
    println!("canonical span tree:\n{}", trace.span_tree());
    let json = trace.to_chrome_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("FAIL: writing {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "ok: {} events ({} dropped) written to {out_path}",
        trace.total_events(),
        trace.dropped_events()
    );
}
