//! The benchmark's inputs are a function of `--seed` alone, its counts
//! repeat exactly, and its contract file lists what its tables name.

use fj_perfbench::metrics::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use fj_perfbench::serve::{Schedule, ServeSpec};
use fj_perfbench::sut::{generate, Dataset};
use fj_perfbench::{run_workload, RunArgs};
use std::path::PathBuf;

/// Small enough that a whole traced run takes well under a second.
const SCALE: f64 = 0.04;

fn args(workload: &str, seed: u64, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        scale: SCALE,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}")),
    }
}

#[test]
fn the_same_seed_gives_byte_identical_catalogs_and_schedules() {
    for dataset in [Dataset::Job, Dataset::Lsqb] {
        let a = generate(dataset, SCALE, 7);
        let b = generate(dataset, SCALE, 7);
        let c = generate(dataset, SCALE, 8);
        assert_eq!(a.digest(), b.digest(), "{dataset:?}: same seed, different catalogs");
        assert_ne!(a.digest(), c.digest(), "{dataset:?}: the seed does not reach the catalog");
        assert_eq!(a.input_rows, c.input_rows, "{dataset:?}: the seed changed the instance's size");
    }
    for churn in [false, true] {
        let spec = ServeSpec { churn };
        let take = |seed, client| Schedule::new(&spec, seed, client).take(1000).collect::<Vec<_>>();
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1), "the two clients share one schedule");
        assert_ne!(take(7, 0), take(8, 0), "the seed does not reach the schedule");
    }
}

#[test]
fn serial_counts_repeat_exactly_and_another_seed_fails_nothing() {
    const COUNTS: [&str; 3] = ["exec.probes", "exec.output_tuples", "trie.maps_built"];
    for workload in ["job_cold", "lsqb_cyclic"] {
        let first = run_workload(&args(workload, 7, true)).unwrap();
        let again = run_workload(&args(workload, 7, true)).unwrap();
        let other = run_workload(&args(workload, 8, true)).unwrap();
        for run in [&first, &again, &other] {
            assert_eq!(run.failed, 0, "{workload}: {:?}", run.problems);
            assert!(run.attempted > 0);
        }
        for name in COUNTS {
            assert!(first.values[name] > 0.0, "{workload}: {name} was not counted");
            assert_eq!(
                first.values[name], again.values[name],
                "{workload}: {name} does not repeat"
            );
        }
        // The seed permutes rows; it does not change what the queries return.
        assert_eq!(first.values["exec.output_tuples"], other.values["exec.output_tuples"]);
    }
}

#[test]
fn serve_workloads_answer_every_request_on_either_seed() {
    for workload in ["serve_hot", "serve_churn"] {
        for seed in [7, 8] {
            let run = run_workload(&args(workload, seed, false)).unwrap();
            assert_eq!(run.failed, 0, "{workload} seed {seed}: {:?}", run.problems);
            assert!(run.attempted > 0 && run.values["p50_ms"] > 0.0);
        }
    }
}

/// The entries of one list of `BENCHMARK.json`, one per line in the file.
fn entries<'a>(file: &'a str, list: &str) -> Vec<&'a str> {
    let start = file.find(&format!("\"{list}\": [")).unwrap_or_else(|| panic!("no {list} list"));
    let rest = &file[start..];
    let body = &rest[..rest.find(']').expect("the list closes")];
    body.lines()
        .skip(1)
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_tables_name() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    assert!(file.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));

    let workloads = entries(&file, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, name) in workloads.iter().zip(WORKLOADS) {
        assert!(entry.starts_with(&format!("{{\"name\": \"{name}\", \"why\": ")), "{entry}");
    }

    let bounded: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .map(|m| {
            let better = if m.better == Better::Lower { "lower" } else { "higher" };
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    assert_eq!(entries(&file, "end_to_end"), bounded);

    // A per-layer entry has no bound, and its direction lives in the file only.
    let layers = entries(&file, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, (name, unit)) in layers.iter().zip(PER_LAYER) {
        let stem = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(entry.starts_with(&stem) && !entry.contains("bound"), "{entry}");
    }
}
