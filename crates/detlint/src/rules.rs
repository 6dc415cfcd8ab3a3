//! The rules detlint checks, and the finding type they produce.
//!
//! Every other part of the determinism contract (a livescope trace is a
//! pure function of `(config, seed)`) is enforced by the compiler: the
//! workspace lint table and `clippy.toml` ban hash containers, clock
//! reads, ambient RNG, shared mutable state, `unsafe`, `todo!` and
//! `unimplemented!` by type. What is left here needs the scope tree to
//! see: whether an `.emit(…)` call sits inside a scheduler handler.

/// One rule violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Rule id (kebab-case, stable — used by `detlint::allow(...)`).
    pub rule: &'static str,
    /// Path of the offending file, as scanned.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Static description of a rule, for `--list-rules` / `--explain`.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// Every rule detlint knows.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "direct-trace-emit",
        summary: "trace sink written directly inside a scheduler handler",
        explain: "\
Inside a ShardedScheduler handler (a closure or fn taking an `EventCtx`),
trace events must go through `ctx.emit(…)`: the EventCtx buffers them
per-shard so the epoch barrier can merge lanes into one deterministic
stream. Calling `.emit(…)` on a captured telemetry handle writes the
global sink mid-epoch — interleaving depends on lane timing and the
trace stops being byte-stable. Span events are no exception: a `Span`
builds its open and close as TraceEvents, which take the same route.

Fix: build the TraceEvent and pass it to the handler's EventCtx
parameter. Every simulation runs on ShardedScheduler, so every event body
and ticker callback is a handler; only code outside them (setup,
teardown, plain methods) may emit on a telemetry handle directly.

Suppress (needs a reason):
    // detlint::allow(direct-trace-emit) — <why this sink is lane-local>",
    },
    RuleInfo {
        name: "missing-reason",
        summary: "a detlint::allow(...) directive without a reason",
        explain: "\
Suppressions are part of the determinism contract's audit trail: every
`// detlint::allow(<rule>)` must carry ` \u{2014} <reason>` after the
closing parenthesis so reviews can judge it. A bare directive still
suppresses the underlying finding but is itself reported, so the gate
stays red until a reason is written. A directive naming a rule detlint
does not know is reported the same way.

Fix: append \u{201c} \u{2014} <reason>\u{201d} (an ASCII \u{201c}- reason\u{201d} also works).",
    },
];

/// Looks up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_file;

    #[test]
    fn hazards_in_comments_are_ignored() {
        let src = "fn f() { s.schedule(Box::new(move |ctx, pop: &mut Pop| {\n\
                   // pop.telemetry.emit(ev) would bypass the EventCtx\n\
                   let doc = \"pop.telemetry.emit(ev)\";\n\
                   ctx.emit(ev);\n\
                   })); }\n";
        assert!(analyze_file("src/x.rs", src).is_empty());
    }

    #[test]
    fn every_rule_has_info() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(names, ["direct-trace-emit", "missing-reason"]);
        for name in names {
            assert!(rule_info(name).is_some(), "{name} missing from RULES");
        }
    }
}
