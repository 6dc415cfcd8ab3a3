//! The end-to-end run: one workload in one process, one thread, one
//! client in a closed loop — set-up with its untimed warm-up (several
//! times over, for a steadier `setup_s`), then identical timed repetitions
//! of the body for as long as the run measures.

use std::time::Instant;

use crate::host::{now, peak_rss_bytes, quantile, secs_since, HostProbe};
use crate::report::{Check, Metric, Report};
use crate::workloads::Workload;

/// Fewest timed repetitions, however short the measuring time asked for.
const MIN_REPS: usize = 3;

/// `started` is the clock read at process start; `seconds` is how long
/// the timed repetitions go on (the one in progress when the time is up
/// is finished and counted).
pub fn end_to_end(started: Instant, workload: Workload, seed: u64, seconds: f64) -> Report {
    let probe = HostProbe::new();
    let probe_before = probe.seconds();
    let mut check = Check::new(seed);

    // The first pass is timed from process start; a later one from where
    // the pass before it, body dropped, left off.
    let mut setups = Vec::new();
    let mut pass_start = started;
    let mut body = loop {
        let mut body = workload.set_up(seed);
        for _ in 0..workload.warm_ups() {
            check.verify_output(workload, &body());
        }
        setups.push(secs_since(pass_start));
        if setups.len() == workload.set_up_passes() {
            break body;
        }
        drop(body);
        pass_start = now();
    };

    let mut reps = Vec::new();
    let mut units = 0;
    let measuring = now();
    while reps.len() < MIN_REPS || secs_since(measuring) < seconds {
        let start = now();
        let output = body();
        reps.push(secs_since(start));
        units = output.units();
        check.verify_output(workload, &output);
    }
    drop(body);
    let probe_after = probe.seconds();

    let list = |times: &[f64]| -> String {
        let times: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
        times.join(" ")
    };
    println!(
        "{}: seed {seed:#x}, {} repetitions of {units} {}",
        workload.name(),
        reps.len(),
        workload.unit()
    );
    println!("set-up passes in order (s): {}", list(&setups));
    println!("repetition times in order (s): {}", list(&reps));
    // The host's contention only ever adds time, and on this kind of host
    // it comes and goes within seconds, so the fastest repetition and the
    // fastest set-up pass are the steadiest estimates of the program's own
    // speed; the rest is printed to tell how busy the host was.
    let lower_quartile = quantile(&mut reps, 0.25);
    let median = quantile(&mut reps, 0.5);
    let fastest = reps[0];
    println!(
        "repetition time: fastest {fastest:.4} s, lower quartile {lower_quartile:.4} s, median {median:.4} s, slowest {:.4} s",
        reps[reps.len() - 1]
    );
    println!("host_probe_s: {probe_before:.4} before, {probe_after:.4} after");
    Report {
        check,
        metrics: vec![
            Metric {
                name: "units_per_s",
                value: units as f64 / fastest,
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_bytes",
                value: peak_rss_bytes() as f64,
                unit: "bytes",
            },
            Metric {
                name: "setup_s",
                value: setups.iter().copied().fold(f64::INFINITY, f64::min),
                unit: "s",
            },
        ],
    }
}
