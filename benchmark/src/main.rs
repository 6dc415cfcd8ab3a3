//! The repo benchmark. Every timing is host time; every simulated
//! statistic must repeat bit for bit.
//!
//! ```sh
//! # `BENCHMARK.json` runs it under `env MALLOC_MMAP_THRESHOLD_=… MALLOC_TRIM_THRESHOLD_=…`
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <graph_build|usage_replay|edge_fanout|live_sessions|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- agree [--runs N]
//! ```

#![forbid(unsafe_code)]

mod agree;
mod host;
mod layers;
mod report;
mod run;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::{Workload, DEFAULT_SEED, RUN_SECONDS};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
       benchmark agree [--runs N]
workloads: graph_build usage_replay edge_fanout live_sessions";

struct Args {
    agree: bool,
    /// `None` stands for `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        agree: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        runs: 5,
    };
    let mut workload_given = false;
    while let Some(flag) = argv.next() {
        if flag == "agree" {
            args.agree = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(bad)?),
                }
            }
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => args.runs = value.parse().ok().filter(|n| *n >= 2).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.agree && !workload_given {
        return Err("no --workload given".into());
    }
    Ok(args)
}

/// One end-to-end or traced run of this build in a process of its own:
/// `VmHWM` never goes down, so no two runs may share one.
fn run_command(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own path"));
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    command
}

/// What this process's environment says to glibc's allocator. The command
/// in `BENCHMARK.json` pins both; a run started without them measures
/// glibc's self-adjusting defaults, which the README shows depend on the
/// seed.
fn allocator_settings() -> String {
    ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"]
        .map(|name| match std::env::var(name) {
            Ok(value) => format!("{name}={value}"),
            Err(_) => format!("{name} unset"),
        })
        .join(", ")
}

fn main() -> ExitCode {
    let started = host::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.agree {
        return agree::agree(args.runs);
    }
    if args.workload.is_some() || args.traced {
        println!("allocator: {}", allocator_settings());
    }
    let report = match (args.workload, args.traced) {
        // A traced run drives every layer whatever the workload, so one
        // does for all four.
        (None, true) => layers::traced("all", args.seed),
        (Some(workload), true) => layers::traced(workload.name(), args.seed),
        (Some(workload), false) => run::end_to_end(started, workload, args.seed, args.seconds),
        (None, false) => {
            let mut worst = 0;
            for workload in Workload::ALL {
                let status = run_command(workload, args.seed, args.seconds, false)
                    .status()
                    .expect("start another run of this program");
                worst = worst.max(status.code().map_or(1, |code| code as u8));
            }
            return ExitCode::from(worst);
        }
    };
    report.print();
    if report.check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
