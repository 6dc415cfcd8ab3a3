//! Structural (scope-aware) rules — detlint's second phase, over the
//! [`crate::scope::ScopeTree`].
//!
//! These are the merge-contract rules (`crates/detlint/DESIGN.md`): each one
//! defends an invariant of the shard merge contract (DESIGN.md §9) or the
//! causal span model (DESIGN.md §11) that a flat token scan cannot express, because the hazard is a
//! property of *where* a construct sits (inside a scheduler handler,
//! inside a `merge` impl) or of the *whole scan set* (a span kind opened
//! in one crate and closed in another).
//!
//! Per-file rules produced here: `shared-mutable-state`,
//! `direct-trace-emit`, `unordered-float-merge`, and the per-site half
//! of `span-balance` (helper/kind/arity checks against the `span.rs`
//! registry). The cross-file half of
//! `span-balance` — every kind opened somewhere must close somewhere —
//! is assembled by [`crate::scan`] from the [`SpanSite`] inventory each
//! file reports.

use crate::lexer::{Comment, Tok, TokKind};
use crate::rules::{
    hash_bindings, ident, punct, AttrKind, Finding, GuardedRange, HASH_ITER_METHODS,
};
use crate::scope::{ScopeKind, ScopeTree};

/// The span registry, mirroring `crates/telemetry/src/span.rs`: for each
/// `SpanKind` variant, the id helper and its identity-field count.
///
/// detlint cannot see across the crate boundary at type level, so this
/// table is the contract: if `span.rs` gains a kind or a field, this
/// table (and DESIGN.md §11) must change with it — the span-balance
/// fixture pins the table against drift.
pub const SPAN_REGISTRY: &[(&str, &str, usize)] = &[
    ("Broadcast", "broadcast_span", 1),
    ("ViewerSession", "viewer_session_span", 2),
    ("ChunkSeal", "chunk_seal_span", 2),
    ("OriginFetch", "origin_fetch_span", 3),
    ("ViewerDeliver", "viewer_deliver_span", 3),
    ("OverlayFrame", "overlay_frame_span", 2),
];

/// Accumulator types whose `merge`/`fold` impls must fold in a
/// deterministic order (they are merged across shards / chunks, so any
/// iteration-order dependence lands straight in figures).
const MERGEABLE: &[&str] = &[
    "StreamingCampaign",
    "QuantileSketch",
    "ObsReport",
    "OnlineStats",
];

/// One span open/close emission site, for the cross-file inventory.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSite {
    /// `SpanKind` variant name (`ViewerSession`).
    pub kind: String,
    /// 1-based line of the emission.
    pub line: u32,
    /// `SpanOpen` vs `SpanClose`.
    pub is_open: bool,
}

/// Output of the structural pass over one file.
#[derive(Clone, Debug, Default)]
pub struct StructuralOutput {
    pub findings: Vec<Finding>,
    /// Every span emission site (opens and closes) found in the file.
    pub span_sites: Vec<SpanSite>,
}

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
pub fn check_file(ctx: &StructuralContext) -> StructuralOutput {
    let mut out = StructuralOutput::default();
    let mut emit = |rule: &'static str, line: u32, message: String| {
        out.findings.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    };
    shared_mutable_state(ctx, &mut emit);
    direct_trace_emit(ctx, &mut emit);
    unordered_float_merge(ctx, &mut emit);
    span_sites(ctx, &mut emit, &mut out.span_sites);
    out.findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.findings.dedup();
    out
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
        let is_emit = ident(tokens, i) == Some("emit");
        let is_span_call = matches!(ident(tokens, i), Some("span_open") | Some("span_close"));
        if !(is_emit || is_span_call)
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
        if is_span_call {
            let m = ident(tokens, i).expect("matched above");
            emit(
                RULE,
                line,
                format!("`.{m}(…)` inside a scheduler handler bypasses the per-shard trace buffer; build the TraceEvent and pass it to `{ctx_name}.emit(…)`"),
            );
            continue;
        }
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

// --- span-balance (per-site + inventory) ---------------------------------

/// `let <name> = [path::]helper(args…);` bindings, for resolving
/// `id: <name>` at emission sites.
fn span_id_bindings(tokens: &[Tok]) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < tokens.len() {
        if ident(tokens, i) == Some("let") {
            let mut at = i + 1;
            if ident(tokens, at) == Some("mut") {
                at += 1;
            }
            if let Some(name) = ident(tokens, at) {
                if punct(tokens, at + 1) == Some('=') {
                    if let Some((helper, arity)) = call_head(tokens, at + 2) {
                        out.push((name.to_string(), helper, arity));
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// If the tokens at `i` start a (possibly path-qualified) call
/// `a::b::helper(args…)`, returns the helper name and top-level arg count.
fn call_head(tokens: &[Tok], mut i: usize) -> Option<(String, usize)> {
    let mut last = None;
    while let Some(name) = ident(tokens, i) {
        last = Some(name.to_string());
        if punct(tokens, i + 1) == Some(':') && punct(tokens, i + 2) == Some(':') {
            i += 3;
            continue;
        }
        i += 1;
        break;
    }
    let helper = last?;
    if punct(tokens, i) != Some('(') {
        return None;
    }
    // Count top-level commas to the matching `)`.
    let mut depth = 0isize;
    let mut args = 0usize;
    let mut any = false;
    let mut k = i;
    while k < tokens.len() {
        match &tokens[k].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct(',') if depth == 1 => args += 1,
            _ if depth >= 1 => any = true,
            _ => {}
        }
        k += 1;
    }
    if any {
        args += 1;
    }
    Some((helper, args))
}

fn span_sites(
    ctx: &StructuralContext,
    emit: &mut impl FnMut(&'static str, u32, String),
    sites: &mut Vec<SpanSite>,
) {
    let tokens = ctx.tokens;
    const RULE: &str = "span-balance";
    let id_bindings = span_id_bindings(tokens);
    let mut i = 0;
    while i < tokens.len() {
        let which = match ident(tokens, i) {
            Some("SpanOpen") => Some(true),
            Some("SpanClose") => Some(false),
            _ => None,
        };
        let Some(is_open) = which else {
            i += 1;
            continue;
        };
        // Must be `TraceEvent::SpanOpen {` / `TraceEvent::SpanClose {`.
        let qualified = i >= 3
            && punct(tokens, i - 1) == Some(':')
            && punct(tokens, i - 2) == Some(':')
            && ident(tokens, i - 3) == Some("TraceEvent");
        if !qualified || punct(tokens, i + 1) != Some('{') {
            i += 1;
            continue;
        }
        let open_brace = i + 1;
        let mut depth = 0isize;
        let mut close_brace = open_brace;
        for k in open_brace..tokens.len() {
            match punct(tokens, k) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        close_brace = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Emission vs pattern: an emission carries a literal
        // `kind: SpanKind::Variant` field and is *not* followed by `=`
        // (match arms continue `} =>`, `if let` destructures `} = …`).
        let mut kind_variant: Option<(usize, String)> = None;
        for k in open_brace..close_brace {
            if ident(tokens, k) == Some("kind")
                && punct(tokens, k + 1) == Some(':')
                && ident(tokens, k + 2) == Some("SpanKind")
                && punct(tokens, k + 3) == Some(':')
                && punct(tokens, k + 4) == Some(':')
            {
                if let Some(v) = ident(tokens, k + 5) {
                    kind_variant = Some((k, v.to_string()));
                }
                break;
            }
        }
        let is_pattern = punct(tokens, close_brace + 1) == Some('=');
        let Some((_, variant)) = kind_variant else {
            i = close_brace.max(i) + 1;
            continue;
        };
        if is_pattern {
            i = close_brace + 1;
            continue;
        }
        let line = tokens[i].line;
        sites.push(SpanSite {
            kind: variant.clone(),
            line,
            is_open,
        });
        // Per-site check: the `id:` value must be built by the registry's
        // helper for this kind, with the registry's identity-field count.
        let registry = SPAN_REGISTRY.iter().find(|(v, _, _)| *v == variant);
        let mut field_depth = 0isize;
        let mut id_value: Option<usize> = None;
        for k in open_brace + 1..close_brace {
            match punct(tokens, k) {
                Some('{' | '(' | '[') => field_depth += 1,
                Some('}' | ')' | ']') => field_depth -= 1,
                _ => {}
            }
            if field_depth == 0
                && ident(tokens, k) == Some("id")
                && punct(tokens, k + 1) == Some(':')
                && punct(tokens, k + 2) != Some(':')
            {
                id_value = Some(k + 2);
                break;
            }
        }
        if let (Some((_, helper, arity)), Some(v)) = (registry, id_value) {
            let resolved = call_head(tokens, v).or_else(|| {
                ident(tokens, v)
                    .filter(|_| !matches!(punct(tokens, v + 1), Some('(') | Some(':')))
                    .and_then(|name| {
                        id_bindings
                            .iter()
                            .rev()
                            .find(|(n, _, _)| n == name)
                            .map(|(_, h, a)| (h.clone(), *a))
                    })
            });
            match resolved {
                Some((h, _)) if h == "span_id" => {
                    // `span_id(SpanKind::V, &[a, b, …])`: check the kind
                    // token and the slice length.
                    check_span_id_call(tokens, v, &variant, *arity, line, emit);
                }
                Some((h, nargs)) if SPAN_REGISTRY.iter().any(|(_, rh, _)| *rh == h) => {
                    if h != *helper {
                        emit(
                            RULE,
                            line,
                            format!("span id built with `{h}` but the event kind is `SpanKind::{variant}` — the registry pairs {variant} with `{helper}`, so open and close ids will never match"),
                        );
                    } else if nargs != *arity {
                        emit(
                            RULE,
                            line,
                            format!("`{helper}` called with {nargs} identity field(s); the span.rs registry defines {arity} for `SpanKind::{variant}` — ids will not match the other end of the span"),
                        );
                    }
                }
                _ => {} // literal / field access / unknown — inventory only
            }
        }
        i = close_brace + 1;
    }
}

/// Validates a literal `span_id(SpanKind::V, &[…])` call at `v` against
/// the registry entry for the surrounding event's `variant`/`arity`.
fn check_span_id_call(
    tokens: &[Tok],
    v: usize,
    variant: &str,
    arity: usize,
    line: u32,
    emit: &mut impl FnMut(&'static str, u32, String),
) {
    const RULE: &str = "span-balance";
    // Find `SpanKind :: X` after the call head.
    let mut k = v;
    while k < tokens.len() && punct(tokens, k) != Some('(') {
        k += 1;
    }
    let open = k;
    let mut close = open;
    let mut depth = 0isize;
    while close < tokens.len() {
        match punct(tokens, close) {
            Some('(' | '[') => depth += 1,
            Some(')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    let mut arg_kind = None;
    for k in open..close {
        if ident(tokens, k) == Some("SpanKind")
            && punct(tokens, k + 1) == Some(':')
            && punct(tokens, k + 2) == Some(':')
        {
            arg_kind = ident(tokens, k + 3).map(str::to_string);
            break;
        }
    }
    if let Some(arg_kind) = arg_kind {
        if arg_kind != variant {
            emit(
                RULE,
                line,
                format!("`span_id(SpanKind::{arg_kind}, …)` inside a `SpanKind::{variant}` event — open and close ids will never match"),
            );
            return;
        }
    }
    // Count elements of the `&[a, b, …]` slice.
    for k in open..close {
        if punct(tokens, k) == Some('[') {
            let mut d = 0isize;
            let mut elems = 0usize;
            let mut any = false;
            for m in k..=close {
                match punct(tokens, m) {
                    Some('[' | '(') => d += 1,
                    Some(']' | ')') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    Some(',') if d == 1 => elems += 1,
                    _ => any = true,
                }
            }
            if any {
                elems += 1;
            }
            if elems != arity {
                emit(
                    RULE,
                    line,
                    format!("`span_id(SpanKind::{variant}, &[…])` passes {elems} identity field(s); the span.rs registry defines {arity}"),
                );
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::guarded_ranges;
    use crate::scope::ScopeTree;

    fn run(path: &str, src: &str) -> StructuralOutput {
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
        run(path, src)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
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
        let out = run("crates/cdn/src/x.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "direct-trace-emit");
        assert!(out.findings[0].message.contains("ctx.emit"));
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
    fn span_open_close_methods_in_handler_are_flagged() {
        let src = "fn f() { run(Box::new(|ctx, s: &mut S| { s.tracer.span_open(id); s.tracer.span_close(id); })); }";
        assert_eq!(
            rules_of("src/x.rs", src),
            vec!["direct-trace-emit", "direct-trace-emit"]
        );
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
        let out = run("src/x.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("c.emit"));
    }

    // --- unordered-float-merge -------------------------------------------

    #[test]
    fn hash_iteration_in_merge_impl_is_flagged() {
        let src = "struct StreamingCampaign { weights: HashMap<u64, f64>, total: f64 } \
                   impl StreamingCampaign { fn merge(&mut self, other: &Self) { \
                   for (_k, v) in &other.weights { self.total += v; } } }";
        let out = run("src/x.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "unordered-float-merge");
        assert!(out.findings[0].message.contains("StreamingCampaign"));
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

    // --- span-balance (per-site) -----------------------------------------

    #[test]
    fn emission_sites_are_inventoried_patterns_are_not() {
        let src = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: broadcast_span(b), parent: 0, kind: SpanKind::Broadcast, broadcast: b, subject: 0, site: 0 }); \
                   match ev { TraceEvent::SpanOpen { id, .. } => use_(id), _ => {} } \
                   if let TraceEvent::SpanClose { id, kind } = ev2 { use_(id); } }";
        let out = run("src/x.rs", src);
        assert_eq!(
            out.span_sites,
            vec![SpanSite {
                kind: "Broadcast".into(),
                line: 1,
                is_open: true
            }]
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn wrong_helper_for_kind_is_flagged() {
        let src = "fn f() { t.emit(now, TraceEvent::SpanClose { id: origin_fetch_span(b, s, p), kind: SpanKind::ViewerDeliver }); }";
        let out = run("src/x.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "span-balance");
        assert!(out.findings[0].message.contains("viewer_deliver_span"));
    }

    #[test]
    fn wrong_arity_is_flagged_including_via_binding() {
        let direct = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: chunk_seal_span(b), parent: 0, kind: SpanKind::ChunkSeal, broadcast: b, subject: 0, site: 0 }); }";
        let out = run("src/x.rs", direct);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("1 identity field"));

        let via_let = "fn f() { let span = crate::span::viewer_deliver_span(b, s); \
                       t.emit(now, TraceEvent::SpanOpen { id: span, parent: p, kind: SpanKind::ViewerDeliver, broadcast: b, subject: v, site: 0 }); }";
        let out = run("src/x.rs", via_let);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("2 identity field"));
    }

    #[test]
    fn raw_span_id_calls_are_checked() {
        let wrong_kind = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: span_id(SpanKind::ChunkSeal, &[b, s]), parent: 0, kind: SpanKind::OriginFetch, broadcast: b, subject: s, site: p }); }";
        let out = run("src/x.rs", wrong_kind);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        let wrong_fields = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: span_id(SpanKind::OriginFetch, &[b, s]), parent: 0, kind: SpanKind::OriginFetch, broadcast: b, subject: s, site: p }); }";
        let out = run("src/x.rs", wrong_fields);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("2 identity field"));
        let correct = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: span_id(SpanKind::OriginFetch, &[b, s, pop as u64]), parent: 0, kind: SpanKind::OriginFetch, broadcast: b, subject: s, site: p }); }";
        assert!(run("src/x.rs", correct).findings.is_empty());
    }

    #[test]
    fn correct_helper_and_arity_are_clean() {
        let src = "fn f() { t.emit(now, TraceEvent::SpanOpen { id: overlay_frame_span(a, s), parent: 0, kind: SpanKind::OverlayFrame, broadcast: a, subject: s, site: 0 }); \
                   t.emit(later, TraceEvent::SpanClose { id: overlay_frame_span(a, s), kind: SpanKind::OverlayFrame }); }";
        let out = run("src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.span_sites.len(), 2);
        assert!(out.span_sites[0].is_open && !out.span_sites[1].is_open);
    }
}
