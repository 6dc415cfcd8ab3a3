//! Re-run the paper's measurement campaign end to end: generate the
//! (scaled) Periscope and Meerkat ground truth, crawl both with the
//! §3.1 apparatus, and print the Table 1 the crawler measured — outage
//! and all.
//!
//! ```sh
//! cargo run -p livescope-examples --release --bin crawler_campaign
//! ```

use livescope_core::usage::{run, UsageConfig};
use livescope_crawler::coverage::{run_coverage, CoverageConfig};
use livescope_sim::SimDuration;
use livescope_telemetry::Telemetry;

fn main() {
    // 1. Calibrate the crawler like the paper did: confirm that an
    //    effective global-list refresh of 0.5 s already captures all
    //    broadcasts before committing to the production 0.25 s.
    println!("crawler calibration (synthetic live service):");
    for accounts in [1usize, 10, 20] {
        let report = run_coverage(
            &CoverageConfig {
                accounts,
                account_refresh: SimDuration::from_secs(5),
                ..CoverageConfig::paper_production()
            },
            &Telemetry::disabled(),
        );
        println!(
            "  {accounts:>2} accounts (refresh every {:.2}s): coverage {:>6.2}%, \
             mean discovery latency {:.1}s",
            5.0 / accounts as f64,
            report.coverage * 100.0,
            report.mean_discovery_latency_s
        );
    }

    // 2. The full three-month + one-month campaigns.
    println!("\nrunning the Periscope (97-day) and Meerkat (34-day) campaigns…");
    let report = run(&UsageConfig::default());
    println!("{}", report.tab1());
    println!(
        "Periscope crawler outage (Aug 7-9): {} broadcasts lost ({:.1}% of ground truth)",
        report.periscope.missed,
        report.periscope.missed as f64
            / (report.periscope.broadcasts() + report.periscope.missed) as f64
            * 100.0
    );
    let hls = report.periscope.hls_broadcasts as f64 / report.periscope.broadcasts() as f64;
    println!(
        "broadcasts with at least one HLS viewer: {:.2}% (paper: 5.77%)",
        hls * 100.0
    );
}
