//! The determinism & safety rules, evaluated over lexed token streams.
//!
//! Every rule exists to defend one property: a livescope trace is a pure
//! function of `(config, seed)`. Hash-order iteration, wall-clock reads,
//! and ambient RNG are the three ways that property silently breaks;
//! `unsafe` and `todo!`/`unimplemented!` are the safety hazards the
//! workspace bans outright.

use crate::lexer::{Tok, TokKind};

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

/// Every rule detlint knows, in evaluation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iter",
        summary: "iteration over a HashMap/HashSet observes hash order",
        explain: "\
Iterating, draining, or extending-from a HashMap/HashSet visits entries in
hash order, which varies across std versions, platforms, and (with a
randomized hasher) runs. Any event sequence, trace line, or float
accumulation derived from that order breaks the byte-reproducible-trace
contract (DESIGN.md \u{00a7}8).

Fix: use BTreeMap/BTreeSet when the collection is ever iterated, or
collect into a Vec and sort it immediately (`let mut v: Vec<_> =
m.keys().collect(); v.sort();` is recognized and allowed).

Suppress (needs a reason):
    // detlint::allow(hash-iter) — <why order cannot leak into results>",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "wall-clock read (Instant::now / SystemTime) in sim code",
        explain: "\
Simulation code must tell time with SimTime only. `Instant::now()`,
`SystemTime`, and friends smuggle host wall-clock into results, so two
runs of the same (config, seed) diverge. The only sanctioned uses are the
`profile`-feature-gated event profiler (code under
`#[cfg(feature = \"profile\")]` is exempt) and the bench binaries
(exempted by path in detlint.toml).

Fix: thread `SimTime` from the scheduler; for performance measurement use
the `profile` feature or a bench.

Suppress (needs a reason):
    // detlint::allow(wall-clock) — <why this cannot affect a trace>",
    },
    RuleInfo {
        name: "ambient-rng",
        summary: "ambient RNG (thread_rng / from_entropy / rand::random)",
        explain: "\
`thread_rng()`, `SeedableRng::from_entropy()`, and `rand::random()` seed
from the OS, so results change every run. All livescope randomness must
flow from the scenario seed through `RngPool::stream_seed` /
`SmallRng::seed_from_u64` so every experiment is replayable.

Fix: accept a seed (or an `&mut SmallRng`) from the caller.

Suppress (needs a reason):
    // detlint::allow(ambient-rng) — <why reproducibility is not needed>",
    },
    RuleInfo {
        name: "unordered-float-sum",
        summary: "f32/f64 sum over a hash-ordered source",
        explain: "\
Float addition is not associative: summing the same values in a different
order gives a different result in the last bits, which is enough to break
byte-identical traces and flaky-compare figures. Summing `.values()` of a
HashMap is the canonical instance — the order is arbitrary.

Fix: iterate a BTreeMap/BTreeSet, or collect and sort before summing.
(Integer sums are order-independent, but hash iteration is still flagged
by hash-iter; prefer ordered containers either way.)

Suppress (needs a reason):
    // detlint::allow(unordered-float-sum) — <why the sum never lands in
    a trace or figure>",
    },
    RuleInfo {
        name: "unsafe-code",
        summary: "`unsafe` is banned; crate roots must forbid it",
        explain: "\
The workspace is 100% safe Rust (vendor/ excepted, by allowlist). Beyond
flagging any `unsafe` token, the rule requires every crate root (lib.rs,
main.rs, bin/bench/example/test roots) to carry
`#![forbid(unsafe_code)]`, so the compiler enforces the ban even for code
detlint never sees.

Fix: add `#![forbid(unsafe_code)]` at the top of the crate root; rewrite
the unsafe block in safe Rust.

Suppress (needs a reason):
    // detlint::allow(unsafe-code) — <safety argument and reviewer>",
    },
    RuleInfo {
        name: "todo-panic",
        summary: "todo!/unimplemented! in non-test code",
        explain: "\
`todo!()` and `unimplemented!()` in reachable non-test code turn a
forgotten branch into a runtime abort mid-experiment. Test code
(`#[cfg(test)]` modules, `#[test]` fns, integration-test roots) may use
them while a suite is under construction.

Fix: implement the branch, or return a proper error.

Suppress (needs a reason):
    // detlint::allow(todo-panic) — <tracking issue / why unreachable>",
    },
    RuleInfo {
        name: "shared-mutable-state",
        summary: "interior mutability / static mut in shard-executed code",
        explain: "\
Shard-executed code (crates/sim, crates/cdn, crates/core — or any file
carrying `// detlint::scope(shard)`) runs inside ShardedScheduler lanes
and merges its effects through the \u{00a7}9 epoch-barrier contract. `static
mut`, `RefCell`/`Cell`, `Mutex`/`RwLock`, and `Ordering::Relaxed` atomics
all smuggle state *around* that contract: whichever lane touches the
shared cell first wins, so the merged trace depends on lane scheduling.

Fix: own the state inside the shard struct and mutate it through `&mut`
(the scheduler hands each lane exclusive access); cross-shard aggregation
belongs in a `merge` impl, not a shared cell.

Suppress (needs a reason):
    // detlint::allow(shared-mutable-state) — <why no lane can observe
    another's writes>",
    },
    RuleInfo {
        name: "direct-trace-emit",
        summary: "trace sink written directly inside a scheduler handler",
        explain: "\
Inside a ShardedScheduler handler (a closure or fn taking an `EventCtx`),
trace events must go through `ctx.emit(…)`: the EventCtx buffers them
per-shard so the epoch barrier can merge lanes into one deterministic
stream. Calling `.emit(…)` on a captured telemetry handle, or
`.span_open(…)`/`.span_close(…)` on a tracer, writes the global sink
mid-epoch — interleaving depends on lane timing and the trace stops
being byte-stable.

Fix: build the TraceEvent and pass it to the handler's EventCtx
parameter. Every simulation runs on ShardedScheduler, so every event body
and ticker callback is a handler; only code outside them (setup,
teardown, plain methods) may emit on a telemetry handle directly.

Suppress (needs a reason):
    // detlint::allow(direct-trace-emit) — <why this sink is lane-local>",
    },
    RuleInfo {
        name: "span-balance",
        summary: "span opens/closes don't pair, or ids drift from span.rs",
        explain: "\
Causal spans (DESIGN.md \u{00a7}11) only reconstruct if every `SpanOpen` has a
matching `SpanClose` with the same id. detlint inventories every emission
site across the scan set and checks (a) cross-file: each SpanKind opened
somewhere is closed somewhere and vice versa; (b) per-site: the `id:`
field is built by the registry helper for that kind
(`viewer_session_span` for ViewerSession, …) — or by `span_id(kind, …)`
with the same kind — with exactly the identity-field count the
`crates/telemetry/src/span.rs` registry defines. A mismatched helper or
arity means the open and close hash to different ids and the span never
closes in analysis.

Fix: use the registry helper for the event's kind, passing its documented
identity fields; if the registry itself changed, update span.rs, its
pinned-id tests, and detlint's SPAN_REGISTRY together.

Suppress (needs a reason):
    // detlint::allow(span-balance) — <why the id is correct anyway>",
    },
    RuleInfo {
        name: "section-discipline",
        summary: "a profile Section stamp is dropped immediately",
        explain: "\
`Section::begin()` returns a SectionStamp that must survive until the
matching `.end(stamp)`: `let _ = sec.begin()` or a bare `sec.begin();`
drops it on the same line, so the section records zero time (or, for
RAII-style stamps, closes before the work runs) and the \u{00a7}10 profile
report silently under-counts.

Fix: bind the stamp to a named local (`let stamp = sec.begin();`) and
pass it to `.end(stamp)`; returning the stamp or feeding it straight
into `.end(…)` is fine.

Suppress (needs a reason):
    // detlint::allow(section-discipline) — <why dropping the stamp is
    intended>",
    },
    RuleInfo {
        name: "unordered-float-merge",
        summary: "float accumulation over hash order inside a merge impl",
        explain: "\
`merge`/`fold` impls of mergeable accumulators (StreamingCampaign,
QuantileSketch, ObsReport, OnlineStats) combine per-shard partials into
the numbers that land in figures. Float addition is not associative, so
folding `+=`/`sum()` while iterating a HashMap/HashSet makes the merged
value depend on hash order — the one place the workspace can least
afford it, because shard merges happen on every epoch barrier.

Fix: keep mergeable state in BTreeMap/Vec, or collect and sort the keys
before folding.

Suppress (needs a reason):
    // detlint::allow(unordered-float-merge) — <why the fold is
    order-independent>",
    },
    RuleInfo {
        name: "stale-allowlist",
        summary: "a detlint.toml allowlist entry that suppresses nothing",
        explain: "\
Every detlint.toml entry is a standing hole in the gate, so entries must
pay rent: an entry whose path prefix matches no scanned file, or that
names a rule it never actually suppresses a finding for, is dead weight
that will silently excuse future regressions. The allowlist audit (part
of every workspace scan; explicit paths bypass the allowlist and with it
the audit) reports each such entry as a finding at its line in
detlint.toml.

Fix: delete the stale entry (or the stale rule name inside it), and
re-add it with a reason when the hazard it excused returns.

Suppress: not possible — stale-allowlist findings point at detlint.toml,
which has no code comments. The only remedy is pruning.",
    },
    RuleInfo {
        name: "missing-reason",
        summary: "a detlint::allow(...) directive without a reason",
        explain: "\
Suppressions are part of the determinism contract's audit trail: every
`// detlint::allow(<rule>)` must carry ` \u{2014} <reason>` after the
closing parenthesis so reviews can judge it. A bare directive still
suppresses the underlying finding but is itself reported, so the gate
stays red until a reason is written.

Fix: append \u{201c} \u{2014} <reason>\u{201d} (an ASCII \u{201c}- reason\u{201d} also works).",
    },
];

/// Looks up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Iteration-producing methods on hash containers.
pub(crate) const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Idents that mark a statement as order-restoring (the
/// "immediately-sorted collect" escape hatch).
const ORDER_RESTORING: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

pub(crate) fn ident(tokens: &[Tok], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

pub(crate) fn punct(tokens: &[Tok], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Does `ident :: ident :: …` starting at `i` spell exactly `segs`
/// (e.g. `["Instant", "now"]` matches `Instant::now` and the tail of
/// `std::time::Instant::now`)?
pub(crate) fn matches_path(tokens: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut at = i;
    for (k, seg) in segs.iter().enumerate() {
        if ident(tokens, at) != Some(seg) {
            return false;
        }
        at += 1;
        if k + 1 < segs.len() {
            if punct(tokens, at) != Some(':') || punct(tokens, at + 1) != Some(':') {
                return false;
            }
            at += 2;
        }
    }
    true
}

/// Index of the next `;` at or after `i` (no nesting awareness — a `;`
/// inside a closure ends the window early, which only makes the
/// sorted-collect escape more conservative).
pub(crate) fn statement_end(tokens: &[Tok], i: usize) -> usize {
    let mut at = i;
    while at < tokens.len() {
        if punct(tokens, at) == Some(';') {
            return at;
        }
        at += 1;
    }
    tokens.len()
}

/// Index just past the previous `;`/`{`/`}` before `i` — the statement's
/// first token, so escape scans see a `let x: BTreeMap<_, _> = …` type
/// annotation that precedes the hazard.
pub(crate) fn statement_start(tokens: &[Tok], i: usize) -> usize {
    let mut at = i;
    while at > 0 {
        if matches!(punct(tokens, at - 1), Some(';') | Some('{') | Some('}')) {
            return at;
        }
        at -= 1;
    }
    0
}

fn span_has_ident(tokens: &[Tok], from: usize, to: usize, names: &[&str]) -> bool {
    (from..to.min(tokens.len())).any(|k| ident(tokens, k).is_some_and(|s| names.contains(&s)))
}

/// Attribute kinds the rules care about.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrKind {
    /// `#[cfg(feature = "profile")]` (possibly inside any/all).
    ProfileGated,
    /// `#[cfg(test)]` or `#[test]`.
    TestOnly,
    Other,
}

/// `(start, end)` token-index ranges (inclusive) covered by an attribute.
pub struct GuardedRange {
    pub kind: AttrKind,
    pub start: usize,
    pub end: usize,
}

/// Finds every outer attribute and the token range of the item or
/// statement it gates: up to the matching `}` of the first brace opened
/// at attribute depth, or the first `;` before any such brace.
pub fn guarded_ranges(tokens: &[Tok]) -> Vec<GuardedRange> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if punct(tokens, i) == Some('#') && punct(tokens, i + 1) == Some('[') {
            // Scan the attribute body to its closing `]`.
            let mut depth = 1usize;
            let mut at = i + 2;
            let mut profile = false;
            let mut is_cfg_test = false;
            let mut is_test =
                matches!(ident(tokens, i + 2), Some("test")) && punct(tokens, i + 3) == Some(']');
            let mut saw_cfg = false;
            let mut saw_feature = false;
            let mut saw_not = false;
            while at < tokens.len() && depth > 0 {
                match &tokens[at].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    TokKind::Ident(s) if s == "cfg" => saw_cfg = true,
                    TokKind::Ident(s) if s == "feature" => saw_feature = true,
                    TokKind::Ident(s) if s == "not" => saw_not = true,
                    TokKind::Ident(s) if s == "test" && saw_cfg && !saw_not => {
                        is_cfg_test = true;
                    }
                    TokKind::Str(s) if s == "profile" && saw_cfg && saw_feature && !saw_not => {
                        profile = true;
                    }
                    _ => {}
                }
                at += 1;
            }
            if is_cfg_test {
                is_test = true;
            }
            // `at` now sits just past `]`. Skip stacked attributes so the
            // guard covers the eventual item.
            let mut item_start = at;
            while punct(tokens, item_start) == Some('#')
                && punct(tokens, item_start + 1) == Some('[')
            {
                let mut d = 1usize;
                let mut k = item_start + 2;
                while k < tokens.len() && d > 0 {
                    match punct(tokens, k) {
                        Some('[') => d += 1,
                        Some(']') => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                item_start = k;
            }
            // Range end: matching `}` of the first `{`, or a bare `;`.
            let mut brace = 0isize;
            let mut end = tokens.len().saturating_sub(1);
            let mut k = item_start;
            while k < tokens.len() {
                match punct(tokens, k) {
                    Some('{') => brace += 1,
                    Some('}') => {
                        brace -= 1;
                        if brace == 0 {
                            end = k;
                            break;
                        }
                    }
                    Some(';') if brace == 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let kind = if profile {
                AttrKind::ProfileGated
            } else if is_test {
                AttrKind::TestOnly
            } else {
                AttrKind::Other
            };
            if kind != AttrKind::Other {
                ranges.push(GuardedRange {
                    kind,
                    start: i,
                    end,
                });
            }
            i = at;
        } else {
            i += 1;
        }
    }
    ranges
}

fn in_range(ranges: &[GuardedRange], kind: AttrKind, i: usize) -> bool {
    ranges
        .iter()
        .any(|r| r.kind == kind && r.start <= i && i <= r.end)
}

/// Collects identifiers bound to hash-ordered containers in this file:
/// `let` bindings (typed or constructed), struct/enum fields, and fn or
/// closure parameters whose type mentions HashMap/HashSet.
pub(crate) fn hash_bindings(tokens: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut register = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    let hashy = |s: &str| s == "HashMap" || s == "HashSet";
    let mut i = 0;
    while i < tokens.len() {
        // `let [mut] name = <rhs>` where the rhs head constructs a hash
        // container (`HashMap::new()`, `std::collections::HashSet::from(..)`).
        if ident(tokens, i) == Some("let") {
            let mut at = i + 1;
            if ident(tokens, at) == Some("mut") {
                at += 1;
            }
            if let Some(name) = ident(tokens, at) {
                let name = name.to_string();
                let after = at + 1;
                if punct(tokens, after) == Some('=') {
                    // Untyped: look at the expression head (idents/`::`
                    // run before the first `(` or `;`).
                    let mut k = after + 1;
                    while k < tokens.len() {
                        match &tokens[k].kind {
                            TokKind::Ident(s) if hashy(s) => {
                                register(&name);
                                break;
                            }
                            TokKind::Ident(_) | TokKind::Punct(':') => k += 1,
                            _ => break,
                        }
                    }
                }
                // Typed `let name: …` falls through to the generic
                // `ident :` scan below, which also handles it.
            }
        }
        // `name : <type…>` — struct field, fn param, closure param, or
        // typed let. Scan the type span (to `,` `;` `{` `)` `=` at outer
        // depth) for HashMap/HashSet.
        if let Some(name) = ident(tokens, i) {
            // Exclude path segments (`std::collections`) and `::` turbofish.
            let is_decl = punct(tokens, i + 1) == Some(':')
                && punct(tokens, i + 2) != Some(':')
                && punct(tokens, i.wrapping_sub(1)) != Some(':');
            if is_decl {
                let name = name.to_string();
                let mut angle = 0isize;
                let mut paren = 0isize;
                let mut k = i + 2;
                while k < tokens.len() {
                    match &tokens[k].kind {
                        TokKind::Ident(s) if hashy(s) => {
                            register(&name);
                            break;
                        }
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => {
                            if angle == 0 {
                                break; // fn return arrow or closing generics
                            }
                            angle -= 1;
                        }
                        TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => {
                            if paren == 0 {
                                break;
                            }
                            paren -= 1;
                        }
                        TokKind::Punct(',')
                        | TokKind::Punct(';')
                        | TokKind::Punct('{')
                        | TokKind::Punct('=')
                            if angle == 0 && paren == 0 =>
                        {
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    names
}

/// Context detlint computes per file before rule evaluation.
pub struct FileContext<'a> {
    pub path: &'a str,
    pub tokens: &'a [Tok],
    /// This file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub requires_forbid: bool,
}

/// Runs every rule over one file. Suppression directives are applied by
/// the caller (`livescope_detlint::scan`), not here.
pub fn check_file(ctx: &FileContext) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    let mut emit = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    };
    let ranges = guarded_ranges(tokens);
    let bindings = hash_bindings(tokens);
    let is_test_path = ctx.path.split(['/', '\\']).any(|c| c == "tests");

    // --- unsafe-code: the forbid attribute requirement -------------------
    if ctx.requires_forbid {
        let has_forbid = tokens.windows(8).any(|w| {
            punct(w, 0) == Some('#')
                && punct(w, 1) == Some('!')
                && punct(w, 2) == Some('[')
                && ident(w, 3) == Some("forbid")
                && punct(w, 4) == Some('(')
                && ident(w, 5) == Some("unsafe_code")
                && punct(w, 6) == Some(')')
                && punct(w, 7) == Some(']')
        });
        if !has_forbid {
            emit(
                "unsafe-code",
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    let mut hash_hits: Vec<(u32, &'static str, String)> = Vec::new();
    let mut record_hash_hit = |tokens: &[Tok], i: usize, line: u32, name: &str, via: &str| {
        // The sorted-collect escape: the statement containing the
        // iteration either mentions an order-restoring ident itself
        // (including in a `let x: BTreeMap<…> = …` annotation), or
        // collects and the *next* statement sorts the result.
        let start = statement_start(tokens, i);
        let end = statement_end(tokens, i);
        if span_has_ident(tokens, start, end, ORDER_RESTORING) {
            return;
        }
        if span_has_ident(tokens, start, end, &["collect"]) {
            let next_end = statement_end(tokens, end + 1);
            if span_has_ident(tokens, end + 1, next_end, ORDER_RESTORING) {
                return;
            }
        }
        // Float sums over hash order are the sharper finding.
        let mut float_sum = false;
        for k in i..end.min(tokens.len()) {
            if ident(tokens, k) == Some("sum")
                && punct(tokens, k + 1) == Some(':')
                && punct(tokens, k + 2) == Some(':')
                && punct(tokens, k + 3) == Some('<')
                && matches!(ident(tokens, k + 4), Some("f64") | Some("f32"))
            {
                float_sum = true;
                break;
            }
        }
        let (rule, what): (&'static str, &str) = if float_sum {
            ("unordered-float-sum", "float sum over hash order")
        } else {
            ("hash-iter", "hash-order iteration")
        };
        if !hash_hits.iter().any(|(l, r, _)| *l == line && *r == rule) {
            hash_hits.push((
                    line,
                    rule,
                    format!("{what}: `{name}` is a HashMap/HashSet and `{via}` observes its order (use BTreeMap/BTreeSet or sort after collect)"),
                ));
        }
    };

    let mut i = 0;
    while i < tokens.len() {
        let line = tokens[i].line;
        match ident(tokens, i) {
            // --- wall-clock ---------------------------------------------
            Some("Instant")
                if matches_path(tokens, i, &["Instant", "now"])
                    && !in_range(&ranges, AttrKind::ProfileGated, i) =>
            {
                emit(
                    "wall-clock",
                    line,
                    "`Instant::now()` reads the host clock; use SimTime (or gate under the `profile` feature)".to_string(),
                );
            }
            Some("SystemTime") if !in_range(&ranges, AttrKind::ProfileGated, i) => {
                emit(
                    "wall-clock",
                    line,
                    "`SystemTime` reads the host clock; use SimTime".to_string(),
                );
            }
            Some("Utc") | Some("Local") | Some("Date")
                if punct(tokens, i + 1) == Some(':')
                    && punct(tokens, i + 2) == Some(':')
                    && ident(tokens, i + 3) == Some("now")
                    && !in_range(&ranges, AttrKind::ProfileGated, i) =>
            {
                // `Utc::now` / `Local::now` / `Date::now`.
                emit(
                    "wall-clock",
                    line,
                    "wall-clock date read; use SimTime".to_string(),
                );
            }
            // --- ambient-rng --------------------------------------------
            Some("thread_rng") => emit(
                "ambient-rng",
                line,
                "`thread_rng()` is OS-seeded; derive a SmallRng from the scenario seed".to_string(),
            ),
            Some("from_entropy") => emit(
                "ambient-rng",
                line,
                "`from_entropy()` is OS-seeded; use `seed_from_u64` with a pool-derived seed"
                    .to_string(),
            ),
            Some("rand") if matches_path(tokens, i, &["rand", "random"]) => emit(
                "ambient-rng",
                line,
                "`rand::random()` is OS-seeded; use a seeded SmallRng".to_string(),
            ),
            // --- todo-panic ---------------------------------------------
            Some(m @ ("todo" | "unimplemented"))
                if punct(tokens, i + 1) == Some('!')
                    && !is_test_path
                    && !in_range(&ranges, AttrKind::TestOnly, i) =>
            {
                emit(
                    "todo-panic",
                    line,
                    format!(
                        "`{m}!` in non-test code aborts at runtime; implement or return an error"
                    ),
                );
            }
            // --- unsafe-code --------------------------------------------
            Some("unsafe") => emit(
                "unsafe-code",
                line,
                "`unsafe` is banned in this workspace (see detlint --explain unsafe-code)"
                    .to_string(),
            ),
            // --- hash-iter / unordered-float-sum ------------------------
            Some(name) if bindings.iter().any(|b| b == name) => {
                // `name.iter()`-style method chains.
                if punct(tokens, i + 1) == Some('.') {
                    if let Some(m) = ident(tokens, i + 2) {
                        if HASH_ITER_METHODS.contains(&m) && punct(tokens, i + 3) == Some('(') {
                            let m = m.to_string();
                            record_hash_hit(tokens, i, line, name, &m);
                        }
                    }
                }
                // `for x in &name {` / `for x in name {`.
                if punct(tokens, i + 1) == Some('{') {
                    let mut back = i;
                    while back > 0
                        && (punct(tokens, back - 1) == Some('&')
                            || ident(tokens, back - 1) == Some("mut"))
                    {
                        back -= 1;
                    }
                    if back > 0 && ident(tokens, back - 1) == Some("in") {
                        record_hash_hit(tokens, i, line, name, "for … in");
                    }
                }
            }
            // `consumer.extend(<expr containing a hash binding>)`.
            Some("extend") if punct(tokens, i + 1) == Some('(') => {
                let mut depth = 0isize;
                let mut k = i + 1;
                while k < tokens.len() {
                    match punct(tokens, k) {
                        Some('(') => depth += 1,
                        Some(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if let Some(arg) = ident(tokens, k) {
                                // Direct `extend(&map)` — a chained
                                // `extend(map.iter())` is already caught
                                // by the method rule above.
                                if bindings.iter().any(|b| b == arg)
                                    && punct(tokens, k + 1) != Some('.')
                                {
                                    let arg = arg.to_string();
                                    record_hash_hit(tokens, k, tokens[k].line, &arg, "extend");
                                    break;
                                }
                            }
                        }
                    }
                    k += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    for (line, rule, message) in hash_hits {
        findings.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        check_file(&FileContext {
            path: "src/sample.rs",
            tokens: &lexed.tokens,
            requires_forbid: false,
        })
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        check(src).into_iter().map(|f| f.rule).collect()
    }

    // --- hash-iter ------------------------------------------------------

    #[test]
    fn hash_iter_flags_values_on_let_binding() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() { use_(v); } }";
        assert_eq!(rules_of(src), vec!["hash-iter"]);
    }

    #[test]
    fn hash_iter_flags_for_over_borrowed_field() {
        let src =
            "struct S { forwards: HashMap<u16, u64> } fn f(s: &S) { for kv in &forwards { } }";
        // Field names are registered file-wide; `&forwards` iterates one.
        assert_eq!(rules_of(src), vec!["hash-iter"]);
    }

    #[test]
    fn hash_iter_flags_drain_and_extend_from() {
        let src = "fn f() {\n  let mut s = HashSet::new();\n  let mut v = Vec::new();\n  v.extend(&s);\n  s.drain();\n}";
        assert_eq!(rules_of(src), vec!["hash-iter", "hash-iter"]);
    }

    #[test]
    fn hash_iter_allows_sorted_collect() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); \
                   let mut v: Vec<_> = m.keys().copied().collect(); v.sort_unstable(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn hash_iter_allows_collect_into_btree() {
        let src = "fn f(m: &HashMap<u32, u32>) { let b: BTreeMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn hash_iter_ignores_lookups_and_btree() {
        let src = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); m.insert(1, 2); \
                   let _ = m.get(&1); let b: BTreeMap<u32, u32> = BTreeMap::new(); \
                   for v in b.values() { use_(v); } }";
        assert!(rules_of(src).is_empty());
    }

    // --- unordered-float-sum -------------------------------------------

    #[test]
    fn float_sum_over_hash_values_is_the_sharper_finding() {
        let src = "fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }";
        assert_eq!(rules_of(src), vec!["unordered-float-sum"]);
    }

    #[test]
    fn float_sum_over_vec_is_fine() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(rules_of(src).is_empty());
    }

    // --- wall-clock -----------------------------------------------------

    #[test]
    fn wall_clock_flags_instant_and_system_time() {
        let src = "fn f() { let t = std::time::Instant::now(); let s = SystemTime::now(); }";
        assert_eq!(rules_of(src), vec!["wall-clock", "wall-clock"]);
    }

    #[test]
    fn wall_clock_exempts_profile_gated_code() {
        let src = "fn f() { #[cfg(feature = \"profile\")] let t = std::time::Instant::now(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn wall_clock_in_strings_is_not_flagged() {
        let src = "fn f() { let s = \"Instant::now()\"; }";
        assert!(rules_of(src).is_empty());
    }

    // --- ambient-rng ----------------------------------------------------

    #[test]
    fn ambient_rng_flags_thread_rng_and_from_entropy() {
        let src = "fn f() { let mut r = thread_rng(); let s = SmallRng::from_entropy(); }";
        assert_eq!(rules_of(src), vec!["ambient-rng", "ambient-rng"]);
    }

    #[test]
    fn seeded_rng_is_fine() {
        let src = "fn f(seed: u64) { let mut r = SmallRng::seed_from_u64(seed); }";
        assert!(rules_of(src).is_empty());
    }

    // --- todo-panic -----------------------------------------------------

    #[test]
    fn todo_flagged_outside_tests() {
        let src = "fn f() { todo!(\"later\") }";
        assert_eq!(rules_of(src), vec!["todo-panic"]);
    }

    #[test]
    fn todo_allowed_in_cfg_test_mod_and_test_fn() {
        let src = "#[cfg(test)] mod tests { fn helper() { todo!() } } \
                   #[test] fn t() { unimplemented!() }";
        assert!(rules_of(src).is_empty());
    }

    // --- unsafe-code ----------------------------------------------------

    #[test]
    fn unsafe_token_is_flagged() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(rules_of(src), vec!["unsafe-code"]);
    }

    #[test]
    fn crate_root_without_forbid_is_flagged() {
        let lexed = lex("pub fn f() {}\n");
        let findings = check_file(&FileContext {
            path: "crates/x/src/lib.rs",
            tokens: &lexed.tokens,
            requires_forbid: true,
        });
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unsafe-code");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn crate_root_with_forbid_is_clean() {
        let lexed = lex("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n");
        let findings = check_file(&FileContext {
            path: "crates/x/src/lib.rs",
            tokens: &lexed.tokens,
            requires_forbid: true,
        });
        assert!(findings.is_empty());
    }

    // --- misc engine behavior ------------------------------------------

    #[test]
    fn hazards_in_comments_are_ignored() {
        let src = "// Instant::now() and thread_rng() and unsafe\nfn f() {}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn every_rule_has_info() {
        for name in [
            "hash-iter",
            "wall-clock",
            "ambient-rng",
            "unordered-float-sum",
            "unsafe-code",
            "todo-panic",
            "shared-mutable-state",
            "direct-trace-emit",
            "span-balance",
            "section-discipline",
            "unordered-float-merge",
            "stale-allowlist",
            "missing-reason",
        ] {
            assert!(rule_info(name).is_some(), "{name} missing from RULES");
        }
    }
}
