//! The scope-aware rule, over the [`crate::scope::ScopeTree`].
//!
//! `direct-trace-emit` defends the shard merge contract (DESIGN.md §9):
//! the hazard is a property of *where* an `.emit(…)` call sits (inside a
//! scheduler handler), which no type-based lint can see.

use crate::lexer::{ident, punct, Tok, TokKind};
use crate::rules::Finding;
use crate::scope::{ScopeKind, ScopeTree};

/// Everything the structural pass needs for one file.
pub struct StructuralContext<'a> {
    pub path: &'a str,
    pub tokens: &'a [Tok],
    pub tree: &'a ScopeTree,
}

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

/// Runs `direct-trace-emit` over one file: every `.emit(…)` call inside
/// a handler scope whose receiver is not that handler's `EventCtx`.
pub fn check_file(ctx: &StructuralContext) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    // Precompute which scopes are handlers and their ctx names.
    let handlers: Vec<Option<String>> = (0..ctx.tree.scopes.len())
        .map(|idx| handler_ctx_name(ctx, idx))
        .collect();
    if handlers.iter().all(Option::is_none) {
        return findings;
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
            findings.push(Finding {
                rule: "direct-trace-emit",
                path: ctx.path.to_string(),
                line,
                message: format!("`{recv}.emit(…)` inside a scheduler handler writes the trace sink directly, racing the epoch-barrier merge; route through `{ctx_name}.emit(…)` (the EventCtx parameter)"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::ScopeTree;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed.tokens);
        check_file(&StructuralContext {
            path,
            tokens: &lexed.tokens,
            tree: &tree,
        })
    }

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        run(path, src).into_iter().map(|f| f.rule).collect()
    }

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
}
