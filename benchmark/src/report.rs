//! What a run reports: named metrics with units, the digest checks it
//! made, and the one-line JSON result the driver reads.

use std::fmt::Write as _;

use crate::workloads::{Output, Workload, DEFAULT_SEED};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counts digest checks. At [`DEFAULT_SEED`] every output must match its
/// workload's pin; at any other seed the first output of a workload sets
/// what the later ones must match.
pub struct Check {
    expected: [Option<(u64, u64)>; Workload::ALL.len()],
    pub pinned: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    pub fn new(seed: u64) -> Check {
        let pinned = seed == DEFAULT_SEED;
        Check {
            expected: Workload::ALL.map(|w| pinned.then(|| w.pin())),
            pinned,
            attempted: 0,
            failed: 0,
        }
    }

    /// One operation: `workload` produced `(digest, units)`.
    pub fn verify(&mut self, workload: Workload, digest: u64, units: u64) {
        self.attempted += 1;
        let expected = self.expected[workload as usize].get_or_insert((digest, units));
        if *expected != (digest, units) {
            self.failed += 1;
            eprintln!(
                "{}: digest {digest:#018x} over {units} units, expected {:#018x} over {}",
                workload.name(),
                expected.0,
                expected.1
            );
        }
    }

    pub fn verify_output(&mut self, workload: Workload, output: &Output) {
        self.verify(workload, output.digest(), output.units());
    }
}

pub struct Report {
    pub check: Check,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Prints every metric by name with its unit, then the result line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<44} {:>20} {}", m.name, m.value, m.unit);
        }
        println!(
            "digest checks: {} attempted, {} failed, pinned: {}",
            self.check.attempted, self.check.failed, self.check.pinned
        );
        println!("{}", self.result_line());
    }

    fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.check.failed == 0,
            self.check.attempted,
            self.check.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not a number", m.name);
            let comma = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}
