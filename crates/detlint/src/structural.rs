//! Structural (scope-aware) rules — detlint's second phase, over the
//! [`crate::scope::ScopeTree`].
//!
//! These are the merge-contract rules (`crates/detlint/DESIGN.md`): each one
//! defends an invariant of the shard merge contract (DESIGN.md §9) that a
//! flat token scan cannot express, because the hazard is a property of
//! *where* a construct sits (inside a scheduler handler, inside a `merge`
//! impl).
//!
//! Rules produced here, all per-file: `shared-mutable-state`,
//! `direct-trace-emit` and `unordered-float-merge`.

use crate::lexer::{Comment, Tok, TokKind};
use crate::rules::{
    hash_bindings, ident, punct, AttrKind, Finding, GuardedRange, HASH_ITER_METHODS,
};
use crate::scope::{ScopeKind, ScopeTree};

/// Accumulator types whose `merge`/`fold` impls must fold in a
/// deterministic order (they are merged across shards / chunks, so any
/// iteration-order dependence lands straight in figures).
const MERGEABLE: &[&str] = &[
    "StreamingCampaign",
    "QuantileSketch",
    "ObsReport",
    "OnlineStats",
];

/// Everything the structural pass needs for one file.
pub struct StructuralContext<'a> {
    pub path: &'a str,
    pub tokens: &'a [Tok],
    pub comments: &'a [Comment],
    pub tree: &'a ScopeTree,
    pub ranges: &'a [GuardedRange],
}

fn in_test_range(ranges: &[GuardedRange], i: usize) -> bool {
    ranges
        .iter()
        .any(|r| r.kind == AttrKind::TestOnly && r.start <= i && i <= r.end)
}

/// Runs the structural rules over one file.
pub fn check_file(ctx: &StructuralContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut emit = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    };
    shared_mutable_state(ctx, &mut emit);
    direct_trace_emit(ctx, &mut emit);
    unordered_float_merge(ctx, &mut emit);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup();
    findings
}

// --- shared-mutable-state ------------------------------------------------

/// Is this file shard-executed code? Path-scoped to the crates whose code
/// runs inside scheduler lanes, plus an explicit opt-in directive for
/// code that moves (and for fixtures).
fn is_shard_scope(path: &str, comments: &[Comment]) -> bool {
    let by_path = ["crates/sim/", "crates/cdn/", "crates/core/"]
        .iter()
        .any(|p| path.starts_with(p));
    by_path
        || comments
            .iter()
            .any(|c| c.text.contains("detlint::scope(shard)"))
}

fn shared_mutable_state(ctx: &StructuralContext, emit: &mut impl FnMut(&'static str, u32, String)) {
    if !is_shard_scope(ctx.path, ctx.comments) || ctx.path.split('/').any(|c| c == "tests") {
        return;
    }
    let tokens = ctx.tokens;
    const RULE: &str = "shared-mutable-state";
    for i in 0..tokens.len() {
        if in_test_range(ctx.ranges, i) {
            continue;
        }
        let line = tokens[i].line;
        match ident(tokens, i) {
            Some("static") if ident(tokens, i + 1) == Some("mut") => emit(
                RULE,
                line,
                "`static mut` in shard-executed code races across lanes; move the state into the shard struct".to_string(),
            ),
            Some(name @ ("RefCell" | "Mutex" | "RwLock")) => emit(
                RULE,
                line,
                format!("`{name}` in shard-executed code hides shared mutability from the merge contract; own the state in the shard and mutate through `&mut`"),
            ),
            // `Cell` only as `Cell::…` or `Cell<…>` so a local type named
            // Cell (e.g. a grid cell struct) is not confused with
            // `std::cell::Cell`.
            Some("Cell")
                if (punct(tokens, i + 1) == Some(':') && punct(tokens, i + 2) == Some(':'))
                    || punct(tokens, i + 1) == Some('<') =>
            {
                emit(
                    RULE,
                    line,
                    "`Cell` in shard-executed code hides shared mutability; own the state in the shard struct".to_string(),
                )
            }
            Some("Ordering")
                if punct(tokens, i + 1) == Some(':')
                    && punct(tokens, i + 2) == Some(':')
                    && ident(tokens, i + 3) == Some("Relaxed") =>
            {
                emit(
                    RULE,
                    line,
                    "`Ordering::Relaxed` atomics give no cross-lane ordering, so observed values diverge between runs; shard state must not be shared at all".to_string(),
                )
            }
            _ => {}
        }
    }
}

// --- direct-trace-emit ---------------------------------------------------

/// The trace-sink receiver a handler scope is allowed to emit through:
/// the `EventCtx` parameter's name, when the scope is a handler.
fn handler_ctx_name(ctx: &StructuralContext, scope_idx: usize) -> Option<String> {
    let scope = &ctx.tree.scopes[scope_idx];
    let header = &ctx.tokens[scope.header_start..scope.open];
    match &scope.kind {
        ScopeKind::Closure(params) => {
            let first = params.first().map(String::as_str);
            // The scheduler-handler convention: the first closure param is
            // the `EventCtx` (named `ctx`, `_ctx`, or `_` when unused with
            // an explicitly `&mut`-typed shard param — the `BackendEvent`
            // shape).
            match first {
                Some("ctx") | Some("_ctx") => Some(first.expect("matched").to_string()),
                Some("_")
                    if params.len() == 2
                        && header
                            .windows(2)
                            .any(|w| punct(w, 0) == Some('&') && ident(w, 1) == Some("mut")) =>
                {
                    Some("_".to_string())
                }
                _ => {
                    // Explicitly typed: `|c: &mut EventCtx<'_, S>, …|`.
                    if header
                        .iter()
                        .any(|t| t.kind == TokKind::Ident("EventCtx".into()))
                    {
                        first.map(str::to_string)
                    } else {
                        None
                    }
                }
            }
        }
        ScopeKind::Fn(_) => {
            // A fn taking `name: &mut EventCtx<…>`: find the parameter
            // declaration (`name :` — a single colon, not a `::` path)
            // whose type span mentions `EventCtx`.
            for j in 0..header.len() {
                let Some(name) = ident(header, j) else {
                    continue;
                };
                let is_decl = punct(header, j + 1) == Some(':')
                    && punct(header, j + 2) != Some(':')
                    && (j == 0 || punct(header, j - 1) != Some(':'));
                if !is_decl {
                    continue;
                }
                // Scan the type up to a `,` or `)` outside nesting.
                let mut depth = 0isize;
                let mut k = j + 2;
                while k < header.len() {
                    match &header[k].kind {
                        TokKind::Ident(s) if s == "EventCtx" => {
                            return Some(name.to_string());
                        }
                        TokKind::Punct('<' | '(' | '[') => depth += 1,
                        TokKind::Punct('>' | ')' | ']') => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        TokKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            None
        }
        _ => None,
    }
}

fn direct_trace_emit(ctx: &StructuralContext, emit: &mut impl FnMut(&'static str, u32, String)) {
    let tokens = ctx.tokens;
    const RULE: &str = "direct-trace-emit";
    // Precompute which scopes are handlers and their ctx names.
    let handlers: Vec<Option<String>> = (0..ctx.tree.scopes.len())
        .map(|idx| handler_ctx_name(ctx, idx))
        .collect();
    if handlers.iter().all(Option::is_none) {
        return;
    }
    for i in 0..tokens.len() {
        if ident(tokens, i) != Some("emit")
            || punct(tokens, i + 1) != Some('(')
            || (i == 0 || punct(tokens, i - 1) != Some('.'))
        {
            continue;
        }
        // Innermost handler scope containing this call, if any.
        let Some(ctx_name) = ctx
            .tree
            .enclosing(i)
            .into_iter()
            .find_map(|s| handlers[s].clone())
        else {
            continue;
        };
        let line = tokens[i].line;
        let receiver = if i >= 2 { ident(tokens, i - 2) } else { None };
        if receiver != Some(ctx_name.as_str()) {
            let recv = receiver.unwrap_or("<expr>");
            emit(
                RULE,
                line,
                format!("`{recv}.emit(…)` inside a scheduler handler writes the trace sink directly, racing the epoch-barrier merge; route through `{ctx_name}.emit(…)` (the EventCtx parameter)"),
            );
        }
    }
}

// --- unordered-float-merge -----------------------------------------------

fn unordered_float_merge(
    ctx: &StructuralContext,
    emit: &mut impl FnMut(&'static str, u32, String),
) {
    let tokens = ctx.tokens;
    const RULE: &str = "unordered-float-merge";
    let bindings = hash_bindings(tokens);
    if bindings.is_empty() {
        return;
    }
    for (idx, scope) in ctx.tree.scopes.iter().enumerate() {
        let ScopeKind::Fn(name) = &scope.kind else {
            continue;
        };
        if name != "merge" && name != "fold" {
            continue;
        }
        // The enclosing impl must target a mergeable accumulator.
        let mut p = idx;
        let mut target: Option<&str> = None;
        while p != 0 {
            p = ctx.tree.scopes[p].parent;
            if let ScopeKind::Impl { type_name, .. } = &ctx.tree.scopes[p].kind {
                target = Some(type_name.as_str());
                break;
            }
        }
        let Some(target) = target.filter(|t| MERGEABLE.contains(t)) else {
            continue;
        };
        let body = &tokens[scope.open..=scope.close.min(tokens.len() - 1)];
        // Only merges that accumulate (`+=` or a `sum()` fold) can be
        // order-sensitive in the float sense.
        let accumulates = body
            .windows(2)
            .any(|w| punct(w, 0) == Some('+') && punct(w, 1) == Some('='))
            || body.iter().any(|t| t.kind == TokKind::Ident("sum".into()));
        if !accumulates {
            continue;
        }
        // Flag any for-loop whose header (between `for` and the body `{`)
        // draws from a hash-ordered binding, and any hash-iteration method
        // chain on one (the latter also trips the token rule; scan() keeps
        // this sharper finding).
        let mut k = scope.open;
        while k <= scope.close && k < tokens.len() {
            if ident(tokens, k) == Some("for") {
                let mut h = k + 1;
                while h < tokens.len() && h <= scope.close && punct(tokens, h) != Some('{') {
                    if let Some(name) = ident(tokens, h) {
                        if bindings.iter().any(|b| b == name) {
                            emit(
                                RULE,
                                tokens[h].line,
                                format!("`{target}::{fn_name}` folds floats while iterating `{name}`, a HashMap/HashSet — merge order then depends on hash order and the merged result is not byte-stable; iterate a BTreeMap/Vec or sort first", fn_name = name_of(&ctx.tree.scopes[idx].kind)),
                            );
                        }
                    }
                    h += 1;
                }
                k = h;
                continue;
            }
            if let Some(name) = ident(tokens, k) {
                if bindings.iter().any(|b| b == name)
                    && punct(tokens, k + 1) == Some('.')
                    && ident(tokens, k + 2).is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                    && punct(tokens, k + 3) == Some('(')
                {
                    emit(
                        RULE,
                        tokens[k].line,
                        format!("`{target}::{fn_name}` folds floats over `{name}`'s hash order; the merged result is not byte-stable — iterate a BTreeMap/Vec or sort first", fn_name = name_of(&ctx.tree.scopes[idx].kind)),
                    );
                }
            }
            k += 1;
        }
    }
}

fn name_of(kind: &ScopeKind) -> &str {
    match kind {
        ScopeKind::Fn(n) => n,
        _ => "merge",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::guarded_ranges;
    use crate::scope::ScopeTree;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed.tokens);
        let ranges = guarded_ranges(&lexed.tokens);
        check_file(&StructuralContext {
            path,
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            tree: &tree,
            ranges: &ranges,
        })
    }

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        run(path, src).into_iter().map(|f| f.rule).collect()
    }

    // --- shared-mutable-state --------------------------------------------

    #[test]
    fn shard_crates_flag_interior_mutability() {
        // `Cell<u8>` and `Cell::new` produce identical findings on the
        // same line, which dedup to one — so 4, not 5.
        let src = "static mut HITS: u64 = 0; fn f() { let m = Mutex::new(0); let r = RefCell::new(1); let c: Cell<u8> = Cell::new(0); }";
        let rules = rules_of("crates/sim/src/x.rs", src);
        assert_eq!(rules, vec!["shared-mutable-state"; 4], "{rules:?}");
    }

    #[test]
    fn relaxed_atomics_are_flagged_seqcst_is_not() {
        let src =
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); c.load(Ordering::SeqCst); }";
        assert_eq!(
            rules_of("crates/cdn/src/x.rs", src),
            vec!["shared-mutable-state"]
        );
    }

    #[test]
    fn local_struct_named_cell_is_not_flagged() {
        let src = "struct Cell { cost: u64 } fn f() { let c = Cell { cost: 1 }; g(&mut Cell { cost: 2 }); }";
        assert!(rules_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_shard_paths_and_test_code_are_exempt() {
        let src = "fn f() { let m = Mutex::new(0); }";
        assert!(rules_of("crates/telemetry/src/x.rs", src).is_empty());
        assert!(rules_of("crates/sim/tests/x.rs", src).is_empty());
        let gated = "#[cfg(test)] mod tests { fn f() { let m = Mutex::new(0); } }";
        assert!(rules_of("crates/sim/src/x.rs", gated).is_empty());
    }

    #[test]
    fn scope_directive_opts_a_file_in() {
        let src = "// detlint::scope(shard)\nfn f() { let m = RwLock::new(0); }";
        assert_eq!(rules_of("src/x.rs", src), vec!["shared-mutable-state"]);
    }

    // --- direct-trace-emit -----------------------------------------------

    #[test]
    fn captured_sink_in_handler_closure_is_flagged() {
        let src = "fn f() { sched.schedule(Box::new(move |ctx, shard: &mut Pop| { shard.telemetry.emit(now, ev); })); }";
        let findings = run("crates/cdn/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "direct-trace-emit");
        assert!(findings[0].message.contains("ctx.emit"));
    }

    #[test]
    fn ctx_emit_in_handler_is_fine() {
        let src =
            "fn f() { sched.schedule(Box::new(move |ctx, shard: &mut Pop| { ctx.emit(ev); })); }";
        assert!(rules_of("crates/cdn/src/x.rs", src).is_empty());
    }

    #[test]
    fn underscore_ctx_with_typed_shard_is_a_handler() {
        let src = "fn f() { sched.schedule(Box::new(|_, cell: &mut Cell| { cell.telemetry.emit(ev); })); }";
        assert_eq!(rules_of("src/x.rs", src), vec!["direct-trace-emit"]);
    }

    #[test]
    fn emit_outside_handlers_is_not_flagged() {
        // A closure without a `ctx` parameter (`|sched, world|`) is not a
        // scheduler handler, and plain methods write the sink directly by
        // design.
        let src = "fn f() { spawn(move |sched, world: &mut World| { world.telemetry.emit(t, ev); }); self.telemetry.emit(t, ev); }";
        assert!(rules_of("crates/crawler/src/x.rs", src).is_empty());
    }

    #[test]
    fn fn_taking_event_ctx_is_a_handler_scope() {
        let src =
            "fn apply(c: &mut EventCtx<'_, S>, s: &mut S) { s.telemetry.emit(ev); c.emit(ev2); }";
        let findings = run("src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("c.emit"));
    }

    // --- unordered-float-merge -------------------------------------------

    #[test]
    fn hash_iteration_in_merge_impl_is_flagged() {
        let src = "struct StreamingCampaign { weights: HashMap<u64, f64>, total: f64 } \
                   impl StreamingCampaign { fn merge(&mut self, other: &Self) { \
                   for (_k, v) in &other.weights { self.total += v; } } }";
        let findings = run("src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unordered-float-merge");
        assert!(findings[0].message.contains("StreamingCampaign"));
    }

    #[test]
    fn ordered_merge_and_non_mergeable_types_are_fine() {
        let ordered = "struct StreamingCampaign { per_day: Vec<f64> } \
                       impl StreamingCampaign { fn merge(&mut self, other: &Self) { \
                       for (a, b) in self.per_day.iter_mut().zip(&other.per_day) { *a += b; } } }";
        assert!(rules_of("src/x.rs", ordered).is_empty());
        let other_ty = "struct Gauge { m: HashMap<u64, f64>, t: f64 } \
                        impl Gauge { fn merge(&mut self, o: &Self) { for v in o.m.values() { self.t += v; } } }";
        let rules = rules_of("src/x.rs", other_ty);
        assert!(
            !rules.contains(&"unordered-float-merge"),
            "non-mergeable type should not trip the merge rule: {rules:?}"
        );
    }

    #[test]
    fn merge_without_accumulation_is_fine() {
        let src = "struct QuantileSketch { seen: HashSet<u64> } \
                   impl QuantileSketch { fn merge(&mut self, other: &Self) { \
                   for k in &other.seen { self.seen.insert(*k); } } }";
        // No += / sum in the body — not a float fold. (The hash iteration
        // itself is still the token rule's business.)
        assert!(!rules_of("src/x.rs", src).contains(&"unordered-float-merge"));
    }
}
