//! `livescope` — every paper artifact and every bench/observability tool
//! of this repo as one executable:
//!
//! ```sh
//! cargo run --release -p livescope-bench -- fig11        # one artifact
//! cargo run --release -p livescope-bench -- all          # all 25 of them
//! ```
//!
//! [`COMMANDS`] is the whole interface: a subcommand is a row of that
//! table. Artifacts land under `LIVESCOPE_RESULTS` (default `results/`).
//! Any unknown subcommand, unknown `--flag`, stray positional or
//! missing/invalid value prints a usage line on stderr and exits 2
//! before any work starts.

mod args;
mod cmd {
    pub mod artifacts;
    pub mod bench_replay;
    pub mod fig14;
    pub mod obs_report;
}

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use args::{Args, UsageError};
use cmd::artifacts as a;
use livescope_bench::{hex, round_to};
use Run::{All, Artifact, Tool};

enum Run {
    /// A paper artifact: takes no arguments, prints its rendering and
    /// writes its sidecar files under the results directory.
    Artifact(fn(&Path)),
    /// Every [`Artifact`] in the table, in table order.
    All,
    /// A tool with flags of its own: its usage line, and an entry point
    /// that must `finish` its [`Args`] before starting any work.
    Tool(
        &'static str,
        fn(Args, &Path) -> Result<ExitCode, UsageError>,
    ),
}

/// Every subcommand: name, one-line description, entry point.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Run)] = &[
    ("all", "every paper artifact below, tab1 … opt_polling", All),
    ("tab1", "Table 1 — dataset scale of the Periscope (3-month) and Meerkat (1-month) campaigns", Artifact(a::tab1)),
    ("tab2", "Table 2 — social-graph structure of Periscope vs Facebook vs Twitter", Artifact(a::tab2)),
    ("fig1", "Fig 1 — number of daily broadcasts over the study window", Artifact(a::fig1)),
    ("fig2", "Fig 2 — number of daily active users (viewers and broadcasters)", Artifact(a::fig2)),
    ("fig3", "Fig 3 — CDF of broadcast length", Artifact(a::fig3)),
    ("fig4", "Fig 4 — CDF of total viewers per broadcast", Artifact(a::fig4)),
    ("fig5", "Fig 5 — CDFs of comments and hearts per broadcast", Artifact(a::fig5)),
    ("fig6", "Fig 6 — distribution of broadcast views and creations over users", Artifact(a::fig6)),
    ("fig7", "Fig 7 — broadcaster followers vs viewers per broadcast", Artifact(a::fig7)),
    ("fig8", "Fig 8 — the Periscope CDN infrastructure diagram, rendered from the live system", Artifact(a::fig8)),
    ("fig9", "Fig 9 — Wowza and Fastly server locations and the co-location facts", Artifact(a::fig9)),
    ("fig10", "Fig 10 — the numbered end-to-end delay timeline (①–⑰), from one instrumented run", Artifact(a::fig10)),
    ("fig11", "Fig 11 — end-to-end delay breakdown, RTMP vs HLS (§4.3 experiment, 10× averaged)", Artifact(a::fig11)),
    ("fig12", "Fig 12 — CDF of mean polling delay per broadcast at 2/3/4 s intervals, 16,013 traces", Artifact(a::fig12)),
    ("fig13", "Fig 13 — CDF of within-broadcast polling-delay standard deviation", Artifact(a::fig13)),
    ("fig14", "Fig 14 — server cost of RTMP vs HLS fan-out, 100–500 viewers", Artifact(cmd::fig14::fig14)),
    ("fig15", "Fig 15 — Wowza-to-Fastly replication delay by datacenter distance, with the gateway gap", Artifact(a::fig15)),
    ("fig16", "Fig 16 — RTMP client buffering: stalling and delay at pre-buffer 0 / 0.5 / 1 s", Artifact(a::fig16)),
    ("fig17", "Fig 17 — HLS client buffering at pre-buffer 0 / 3 / 6 / 9 s and the §6 P=6 s claim", Artifact(a::fig17)),
    ("fig18", "Fig 18 / §7 — stream hijack and the signing defense at both edges, policy-cost sweep", Artifact(a::fig18)),
    ("crawler_coverage", "§3.1 crawler calibration — coverage and discovery latency vs effective refresh rate", Artifact(a::crawler_coverage)),
    ("chunk_tradeoff", "§5.2 — the chunk-size scalability/latency tradeoff through the full Fig 11 pipeline", Artifact(a::chunk_tradeoff)),
    ("interactivity", "§1 interactivity — delayed hearts / missed votes through the measured delays", Artifact(a::interactivity)),
    ("ext_overlay", "Extension (§8) — overlay multicast vs RTMP and HLS on origin cost and delay", Artifact(a::ext_overlay)),
    ("opt_polling", "Optimization study — adaptive chunk-cadence polling vs the fixed intervals of Figs 12–13", Artifact(a::opt_polling)),
    ("bench_replay", "streaming-replay scale sweep (BENCH_replay.json)",
        Tool("[OUT.json]", cmd::bench_replay::run)),
    ("obs_report", "causal observability report over the canonical workloads or a trace",
        Tool("[--json] ([--workload breakdown|celebrity] [--capture PATH] | TRACE.jsonl)", cmd::obs_report::run)),
];

/// One bench document as a line of JSON.
pub fn json_line(doc: &impl serde::Serialize) -> String {
    serde_json::to_string(doc).expect("document renders") + "\n"
}

pub fn write_doc(out: &str, doc: &impl serde::Serialize) {
    std::fs::write(out, json_line(doc)).expect("write bench file");
    println!("wrote {out}");
}

/// Runs subcommand `name`; `Err` carries the usage text to print.
fn dispatch(name: &str, args: Args, results: &Path) -> Result<ExitCode, String> {
    let Some((_, _, run)) = COMMANDS.iter().find(|(n, ..)| *n == name) else {
        let rows = COMMANDS
            .iter()
            .map(|(n, about, _)| format!("\n  {n:<18} {about}"));
        return Err(format!(
            "<command> [args]\n\ncommands:{}",
            rows.collect::<String>()
        ));
    };
    let artifacts: Vec<fn(&Path)> = match run {
        Tool(usage, tool) => {
            return tool(args, results).map_err(|UsageError| format!("{name} {usage}"));
        }
        Artifact(artifact) => vec![*artifact],
        All => COMMANDS
            .iter()
            .filter_map(|(.., run)| match run {
                Artifact(artifact) => Some(*artifact),
                _ => None,
            })
            .collect(),
    };
    args.finish().map_err(|UsageError| name.to_string())?;
    for artifact in artifacts {
        artifact(results);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let results = std::env::var_os("LIVESCOPE_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    dispatch(&name, Args::new(argv), &results).unwrap_or_else(|usage| {
        eprintln!("usage: livescope {usage}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_command(name: &str) -> bool {
        COMMANDS.iter().filter(|(n, ..)| *n == name).count() == 1
    }

    #[test]
    fn every_surviving_former_binary_is_exactly_one_subcommand() {
        let former = "bench_replay chunk_tradeoff crawler_coverage \
                      ext_overlay fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
                      fig13 fig14 fig15 fig16 fig17 fig18 interactivity obs_report opt_polling \
                      tab1 tab2";
        assert_eq!(former.split_whitespace().count(), 27);
        for name in former.split_whitespace().chain(["all"]) {
            assert!(is_command(name), "{name} is not one row of COMMANDS");
        }
        assert_eq!(
            COMMANDS.len(),
            28,
            "a row beyond the former binaries and `all`"
        );
        // Retired: its gate is the `OBS_report.json` pin test in `obs.rs`.
        assert!(!is_command("bench_check"), "bench_check is a command again");
        let artifacts = COMMANDS.iter().filter(|c| matches!(c.2, Artifact(_)));
        assert_eq!(artifacts.count(), 25, "`all` is the 25 paper artifacts");
    }

    /// DESIGN.md §3 names a regeneration target per experiment as
    /// `` `-- <id>` ``; each must be a subcommand, so the index cannot
    /// drift from the table.
    #[test]
    fn every_id_in_the_design_index_is_a_subcommand() {
        let design = include_str!("../../../DESIGN.md");
        let ids: Vec<&str> = design
            .lines()
            .filter(|line| line.starts_with('|'))
            .flat_map(|line| line.split("`-- ").skip(1))
            .filter_map(|rest| rest.split('`').next())
            .collect();
        assert!(ids.len() > 20, "index table not found: {ids:?}");
        for id in ids {
            assert!(is_command(id), "DESIGN.md names `-- {id}`, not in COMMANDS");
        }
    }

    /// Flag hygiene everywhere: a bogus flag on any subcommand is a
    /// usage error, and nothing was run to get there (a command that
    /// started work would have created the results directory or taken
    /// the `OUT.json`-shaped positional for a file to write).
    #[test]
    fn every_subcommand_rejects_an_unknown_flag_before_any_work() {
        let dir = std::env::temp_dir().join(format!("livescope-hygiene-{}", std::process::id()));
        let out = dir.join("out.json").display().to_string();
        for name in COMMANDS.iter().map(|(n, ..)| *n).chain(["no_such"]) {
            for line in [
                vec!["--no-such-flag".to_string()],
                vec![out.clone(), "--help".into()],
            ] {
                assert!(dispatch(name, Args::new(line), &dir).is_err(), "{name} ran");
            }
        }
        // The retired run shapes are unknown flags like any other.
        for (name, flag) in [
            ("bench_replay", "--smoke"),
            ("bench_replay", "--workers"),
            ("bench_replay", "--graph-only"),
        ] {
            let line = vec![flag.to_string(), out.clone()];
            let usage = dispatch(name, Args::new(line), &dir).expect_err("retired flag ran");
            assert_eq!(usage, format!("{name} [OUT.json]"));
        }
        assert!(!dir.exists(), "a rejected command line left files behind");
    }
}
