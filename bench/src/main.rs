//! Command line of the benchmark; see `bench/run.sh` and README.md.
//!
//! * `--workload W --seed S --seconds T --trace 0|1`: one run in this
//!   process. Prints `metric`/`info` lines and, last, the result object.
//! * without `--trace`: every workload (or the one named), each in a process
//!   of its own, untraced then traced; writes `<out>/results.json`.
//! * `--aa N`: the A/A check over two sets of N untraced runs.

use fj_perfbench::metrics::{Better, EndToEnd, END_TO_END, RUN_SECONDS, WORKLOADS};
use fj_perfbench::stats::{median, quartiles};
use fj_perfbench::{cores, run_workload, RunArgs};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    scale: f64,
    out_dir: PathBuf,
    aa: Option<usize>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        scale: 1.0,
        out_dir: PathBuf::from("bench/out"),
        aa: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--all" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => cli.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--scale" => cli.scale = value.parse().map_err(|_| bad("a number"))?,
            "--out" => cli.out_dir = PathBuf::from(value),
            "--aa" => cli.aa = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; the workloads are {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// A number as JSON: every digit measured; a non-finite value (only a failed
/// run can produce one) as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<S: AsRef<str>>(metrics: &[(S, S, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            name.as_ref(),
            json_number(*value),
            unit.as_ref()
        );
    }
    out.push('}');
    out
}

/// One run in this process, printed the way the contract asks.
fn single_run(cli: &Cli, workload: &str, trace: bool) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        scale: cli.scale,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = match run_workload(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for (key, value) in &outcome.info {
        println!("info {workload} {key} {value}");
    }
    println!("info {workload} attempted {}", outcome.attempted);
    println!("info {workload} failed {}", outcome.failed);
    for problem in outcome.problems.iter().take(8) {
        println!("problem {workload} {problem}");
    }
    for warning in &outcome.warnings {
        println!("warning {workload} {warning}");
    }
    // Every metric by name: the end-to-end metrics defined on this workload,
    // and with tracing the per-layer list. The result object holds what the
    // contract lists for this kind of run.
    let reported = outcome.contract(trace);
    let printed = if trace { reported.clone() } else { outcome.end_to_end(workload) };
    for (name, unit, value) in &printed {
        println!("metric {workload} {name} {} {unit}", json_number(*value));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&reported)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed, parsed back from its `metric`/`info` lines and
/// its result object.
#[derive(Default)]
struct ChildRun {
    ok: bool,
    metrics: Vec<(String, String, f64)>,
    info: Vec<(String, String)>,
}

/// Run one workload in a process of its own (so that `peak_rss_mb` is the
/// workload's), echoing what it prints.
fn child_run(cli: &Cli, workload: &str, seed: u64, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--scale", &cli.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end.
    let output = command.output().expect("the benchmark binary starts");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun { ok: output.status.success(), ..ChildRun::default() };
    for line in text.lines() {
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["metric", _, name, value, unit] => {
                if let Ok(v) = value.parse::<f64>() {
                    run.metrics.push((name.to_string(), unit.to_string(), v));
                }
            }
            ["info", _, key, rest @ ..] => run.info.push((key.to_string(), rest.join(" "))),
            ["warning", ..] => run.ok = false,
            _ => {}
        }
    }
    run
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// Every selected workload, untraced then traced, into `results.json`.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in selected(cli) {
        let plain = child_run(cli, workload, cli.seed, false);
        let traced = child_run(cli, workload, cli.seed, true);
        ok &= plain.ok && traced.ok;
        let info: Vec<String> = plain
            .info
            .iter()
            .chain(traced.info.iter().filter(|(k, _)| !plain.info.iter().any(|(p, _)| p == k)))
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "/").replace('"', "'")))
            .collect();
        entries.push(format!(
            "    {{\"name\": \"{workload}\", \"correct\": {},\n     \"end_to_end\": {},\n     \
             \"per_layer\": {},\n     \"info\": {{{}}}}}",
            plain.ok && traced.ok,
            metrics_json(&plain.metrics),
            metrics_json(&traced.metrics),
            info.join(", ")
        ));
    }
    let results = format!(
        "{{\n  \"seed\": {}, \"scale\": {}, \"seconds\": {}, \"cores\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"correct\": {ok},\n  \"claim\": null\n}}\n",
        cli.seed,
        cli.scale,
        cli.seconds,
        cores(),
        entries.join(",\n")
    );
    let path = cli.out_dir.join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(&cli.out_dir).and_then(|()| std::fs::write(&path, &results))
    {
        eprintln!("could not write {}: {e}", path.display());
        ok = false;
    }
    println!(
        "{{\"results\": \"{}\", \"workloads\": {}, \"correct\": {ok}, \"claim\": null}}",
        path.display(),
        entries.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `values` of one set: median, and the quartile distance as a share of it.
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let m = median(values);
    let spread = if values.len() >= 2 && m != 0.0 {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / m
    } else {
        0.0
    };
    (m, spread)
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when better.
/// `failed_share` has an absolute bound of 0: any failure is that much worse.
fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.bound == 0.0 {
        return b;
    }
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The A/A check: sets A and B of `n` untraced runs each, interleaved, every
/// run on another seed.
fn run_aa(cli: &Cli, n: usize) -> ExitCode {
    let mut sets: [BTreeMap<(String, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    let mut unresolved = 0usize;
    for i in 0..n {
        for (set, values) in sets.iter_mut().enumerate() {
            let seed = cli.seed + (2 * i + set) as u64;
            for workload in selected(cli) {
                let run = child_run(cli, workload, seed, false);
                ok &= run.ok;
                for (name, _, value) in run.metrics {
                    values.entry((name, workload)).or_default().push(value);
                }
            }
        }
    }
    println!(
        "\n{:<22} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "median A", "median B", "worse", "spreadA", "spreadB", "bound"
    );
    for metric in END_TO_END {
        for workload in selected(cli).into_iter().filter(|w| metric.on.covers(w)) {
            let key = (metric.name.to_string(), workload);
            let (Some(a), Some(b)) = (sets[0].get(&key), sets[1].get(&key)) else {
                println!("{:<22} {:<12} not measured", metric.name, workload);
                continue;
            };
            let ((ma, sa), (mb, sb)) = (median_and_spread(a), median_and_spread(b));
            let worse = worse_by(metric, ma, mb).max(worse_by(metric, mb, ma));
            let wide = sa.max(sb) > metric.bound;
            let verdict = if worse > metric.bound {
                ok = false;
                "FAIL"
            } else if wide {
                unresolved += 1;
                "unresolved"
            } else {
                "pass"
            };
            println!(
                "{:<22} {:<12} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                metric.name,
                workload,
                ma,
                mb,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                metric.bound * 100.0
            );
        }
    }
    println!(
        "{{\"aa_runs_per_set\": {n}, \"cores\": {}, \"agree\": {ok}, \"unresolved\": {unresolved}, \"claim\": null}}",
        cores()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.aa {
        return run_aa(&cli, n.max(1));
    }
    match (cli.trace, &cli.workload) {
        (Some(trace), Some(workload)) => single_run(&cli, workload, trace),
        (Some(_), None) => {
            eprintln!("--trace needs --workload");
            ExitCode::from(2)
        }
        (None, _) => run_all(&cli),
    }
}
