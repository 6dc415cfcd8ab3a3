//! `agree`: does the benchmark repeat? Two interleaved sets of runs of
//! this very build (A B A B …), one fresh process per run, run as
//! `BENCHMARK.json` says, and for every end-to-end metric × workload both
//! medians, their relative difference and the spread within each set,
//! next to the metric's bound. Two traced runs check that every exact
//! per-layer count repeats.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::host::quantile;
use crate::workloads::{Workload, DEFAULT_SEED};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Units of per-layer metrics that are counts, not host time.
const EXACT_UNITS: [&str; 3] = ["count", "bytes", "us"];

/// The `NAME=value` pairs `command` opens with, if it runs under `env`.
fn command_env(command: &Value) -> Vec<(String, String)> {
    let words = command.as_array().expect("command");
    let mut words = words.iter().map(|w| w.as_str().expect("command word"));
    if words.next() != Some("env") {
        return Vec::new();
    }
    words
        .map_while(|word| word.split_once('='))
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

/// Runs this build once in a fresh process; returns its metrics, or
/// `None` if it failed a digest check or died.
fn run_once(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    env: &[(String, String)],
) -> Option<BTreeMap<String, (f64, String)>> {
    let output = crate::run_command(workload, seed, seconds, traced)
        .envs(env.iter().map(|(name, value)| (name, value)))
        .output()
        .expect("start a benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return None;
    }
    let metrics = result["metrics"].as_object()?;
    Some(
        metrics
            .iter()
            .map(|(name, m)| {
                let value = m["value"].as_f64().expect("metric value");
                let unit = m["unit"].as_str().expect("metric unit").to_string();
                (name.clone(), (value, unit))
            })
            .collect(),
    )
}

/// Interquartile range as a share of the median.
fn spread(values: &mut [f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / quantile(values, 0.5)
}

pub fn agree(runs: usize) -> ExitCode {
    let benchmark: Value = std::fs::read_to_string(BENCHMARK_JSON)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .expect("BENCHMARK.json beside benchmark/");
    let seconds = benchmark["run_seconds"].as_f64().expect("run_seconds");
    let end_to_end = benchmark["end_to_end"].as_array().expect("end_to_end");
    let env = command_env(&benchmark["command"]);

    let mut ok = true;
    let mut every_run = String::new();
    println!(
        "| workload | metric | median A | median B | B − A | spread A | spread B | bound | within |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        // sets[set][metric] = one value per run; run i of either set
        // takes seed i + 1, as the driver gives every run another seed.
        let mut sets = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..runs {
            for set in &mut sets {
                let Some(metrics) = run_once(workload, run as u64 + 1, seconds, false, &env) else {
                    eprintln!("{}: run {run} failed", workload.name());
                    return ExitCode::FAILURE;
                };
                for (name, (value, _)) in metrics {
                    set.entry(name).or_insert_with(Vec::new).push(value);
                }
            }
        }
        let [a, b] = &mut sets;
        for metric in end_to_end {
            let name = metric["name"].as_str().expect("metric name");
            let bound = metric["bound"].as_f64().expect("metric bound");
            let (a, b) = (
                a.get_mut(name).expect("metric"),
                b.get_mut(name).expect("metric"),
            );
            every_run += &format!("{} {name}: A {a:?} B {b:?}\n", workload.name());
            let (median_a, median_b) = (quantile(a, 0.5), quantile(b, 0.5));
            // Both sets are this build, so B reading better than A is as
            // much a disagreement as B reading worse.
            let differ = (median_b - median_a) / median_a;
            let (spread_a, spread_b) = (spread(a), spread(b));
            // Two sets of one build should differ by less than half of
            // what would reject a change. A set that spreads wider than
            // the bound cannot tell such a change from the host, however
            // well the medians agree: the row is unresolved.
            let within = if differ.abs() > bound {
                "NO"
            } else if spread_a.max(spread_b) > bound {
                "unresolved"
            } else if differ.abs() > bound / 2.0 {
                "over half"
            } else {
                "yes"
            };
            ok &= within == "yes";
            println!(
                "| {} | {name} | {median_a:.6e} | {median_b:.6e} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {within} |",
                workload.name(),
                differ * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0
            );
        }
    }

    println!("\nevery run, in run order:\n{every_run}");
    let first = run_once(Workload::GraphBuild, DEFAULT_SEED, seconds, true, &env);
    let second = run_once(Workload::GraphBuild, DEFAULT_SEED, seconds, true, &env);
    let (Some(first), Some(second)) = (first, second) else {
        eprintln!("a traced run failed");
        return ExitCode::FAILURE;
    };
    let mut exact = 0;
    for (name, (value, unit)) in &first {
        if EXACT_UNITS.contains(&unit.as_str()) {
            exact += 1;
            if second[name].0 != *value {
                println!(
                    "exact count {name} differs: {value} then {}",
                    second[name].0
                );
                ok = false;
            }
        }
    }
    println!("\n{exact} exact per-layer counts compared across two traced runs");
    println!("{}", if ok { "agree: ok" } else { "agree: NOT ok" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
