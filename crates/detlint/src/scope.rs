//! The brace-matched scope tree — detlint's second phase.
//!
//! The token rules in [`crate::rules`] are deliberately flat: they see a
//! token stream and a line number. The merge-contract rules
//! (`crates/detlint/DESIGN.md`) need more: *where* a token sits — inside which `fn`, which
//! `impl`, which closure. This module builds just enough structure to
//! answer that: a tree of brace-delimited scopes with classified
//! headers (modules, fns, impls, type declarations, closures), no full
//! Rust grammar.
//!
//! The classification is header-driven. For every `{` the builder looks
//! back to the start of the "header" (the tokens since the last `;`,
//! `{`, or `}`) and decides what kind of scope the brace opens:
//!
//! * a closure, when the header ends in `|params|` (optionally followed
//!   by `-> Type`) — `Box::new(move |ctx, shard: &mut Pop| {` is the
//!   canonical scheduler-handler shape;
//! * an item, when the header carries `fn` / `impl` / `mod` / `struct` /
//!   `enum` / `trait` (names and, for impls, the trait/type split are
//!   extracted);
//! * otherwise an anonymous block (control flow, match arms, struct
//!   literals — the rules only need the nesting).
//!
//! Everything is index-based over the caller's token slice, so rules can
//! ask "which scopes contain token `i`" and walk parents to the root.

use crate::lexer::{Tok, TokKind};

/// What a scope's header said it is.
#[derive(Clone, Debug, PartialEq)]
pub enum ScopeKind {
    /// The whole file (has no braces of its own).
    Root,
    /// `mod name { … }`.
    Module(String),
    /// `fn name(…) { … }` (free fn or method).
    Fn(String),
    /// `impl [Trait for] Type { … }`.
    Impl {
        /// The implemented type's last path segment (`ShardedScheduler`).
        type_name: String,
        /// The trait's last path segment, for `impl Trait for Type`.
        trait_name: Option<String>,
    },
    /// `struct Name { … }`.
    Struct(String),
    /// `enum Name { … }`.
    Enum(String),
    /// `trait Name { … }`.
    Trait(String),
    /// `|params| { … }` — the params are the first identifier of each
    /// pattern, in order (`|ctx, (k, v)|` yields `["ctx", "k"]`).
    Closure(Vec<String>),
    /// Any other brace pair: blocks, match arms, struct literals.
    Block,
}

/// One scope: a brace pair plus its classified header.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Classification from the header tokens.
    pub kind: ScopeKind,
    /// Index into [`ScopeTree::scopes`] of the enclosing scope (the root
    /// points at itself).
    pub parent: usize,
    /// Token index where the header starts (just past the previous `;`,
    /// `{`, or `}`); the header is `tokens[header_start..open]`.
    pub header_start: usize,
    /// Token index of the opening `{` (0 for the root).
    pub open: usize,
    /// Token index one past the matching `}` coverage: the scope covers
    /// tokens in `open..=close`. The root's `close` is `tokens.len()`.
    pub close: usize,
    /// 1-based line of the opening brace (1 for the root).
    pub line: u32,
}

/// The scope tree for one file. `scopes[0]` is always the root.
#[derive(Clone, Debug)]
pub struct ScopeTree {
    /// Every scope, in opening order (pre-order).
    pub scopes: Vec<Scope>,
}

fn ident(tokens: &[Tok], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct(tokens: &[Tok], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

impl ScopeTree {
    /// Builds the tree for a lexed file.
    pub fn build(tokens: &[Tok]) -> ScopeTree {
        let mut scopes = vec![Scope {
            kind: ScopeKind::Root,
            parent: 0,
            header_start: 0,
            open: 0,
            close: tokens.len(),
            line: 1,
        }];
        // Stack of open scope indices; root stays at the bottom.
        let mut stack = vec![0usize];
        // Start of the current header: one past the last `;`/`{`/`}`.
        let mut header_start = 0usize;
        let mut i = 0;
        while i < tokens.len() {
            match punct(tokens, i) {
                Some('{') => {
                    let parent = *stack.last().expect("root never pops");
                    let kind = classify_header(&tokens[header_start..i]);
                    let line = tokens[i].line;
                    scopes.push(Scope {
                        kind,
                        parent,
                        header_start,
                        open: i,
                        close: tokens.len(), // patched when the `}` arrives
                        line,
                    });
                    stack.push(scopes.len() - 1);
                    header_start = i + 1;
                }
                Some('}') => {
                    if stack.len() > 1 {
                        let idx = stack.pop().expect("checked non-root");
                        scopes[idx].close = i;
                    }
                    // Tolerate stray `}` (macro fragments): stay at root.
                    header_start = i + 1;
                }
                Some(';') => header_start = i + 1,
                _ => {}
            }
            i += 1;
        }
        ScopeTree { scopes }
    }

    /// Indices of every scope containing token `i`, innermost first
    /// (excludes the root).
    pub fn enclosing(&self, i: usize) -> Vec<usize> {
        let mut found: Vec<usize> = self
            .scopes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, s)| s.open <= i && i <= s.close)
            .map(|(idx, _)| idx)
            .collect();
        // Pre-order listing means deeper scopes come later; innermost
        // first is the reverse.
        found.reverse();
        found
    }

    /// Renders the tree for `detlint --list-scopes` (one scope per line,
    /// indented by depth).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (idx, scope) in self.scopes.iter().enumerate() {
            let depth = self.depth(idx);
            let label = match &scope.kind {
                ScopeKind::Root => "root".to_string(),
                ScopeKind::Module(n) => format!("mod {n}"),
                ScopeKind::Fn(n) => format!("fn {n}"),
                ScopeKind::Impl {
                    type_name,
                    trait_name: Some(t),
                } => format!("impl {t} for {type_name}"),
                ScopeKind::Impl {
                    type_name,
                    trait_name: None,
                } => format!("impl {type_name}"),
                ScopeKind::Struct(n) => format!("struct {n}"),
                ScopeKind::Enum(n) => format!("enum {n}"),
                ScopeKind::Trait(n) => format!("trait {n}"),
                ScopeKind::Closure(params) => format!("closure |{}|", params.join(", ")),
                ScopeKind::Block => "block".to_string(),
            };
            out.push_str(&format!(
                "{:indent$}{label} @ line {}\n",
                "",
                scope.line,
                indent = depth * 2
            ));
        }
        out
    }

    fn depth(&self, mut idx: usize) -> usize {
        let mut d = 0;
        while idx != 0 {
            idx = self.scopes[idx].parent;
            d += 1;
        }
        d
    }
}

/// Classifies the tokens between the previous statement boundary and an
/// opening `{`.
fn classify_header(header: &[Tok]) -> ScopeKind {
    if header.is_empty() {
        return ScopeKind::Block;
    }
    if let Some(params) = closure_params(header) {
        return ScopeKind::Closure(params);
    }
    let mut i = 0;
    while i < header.len() {
        match ident(header, i) {
            Some("fn") => {
                let name = ident(header, i + 1).unwrap_or("_").to_string();
                return ScopeKind::Fn(name);
            }
            Some("impl") => return classify_impl(&header[i + 1..]),
            Some("mod") => {
                let name = ident(header, i + 1).unwrap_or("_").to_string();
                return ScopeKind::Module(name);
            }
            Some("struct") => {
                let name = ident(header, i + 1).unwrap_or("_").to_string();
                return ScopeKind::Struct(name);
            }
            Some("enum") => {
                let name = ident(header, i + 1).unwrap_or("_").to_string();
                return ScopeKind::Enum(name);
            }
            Some("trait") => {
                let name = ident(header, i + 1).unwrap_or("_").to_string();
                return ScopeKind::Trait(name);
            }
            // Control flow settles it: `if`, `match`, `for`, … open blocks
            // (`=` first means the keyword sits in an expression, e.g.
            // `let x = match …`, which is still a block).
            Some("if" | "else" | "match" | "while" | "loop" | "for" | "unsafe" | "async") => {
                return ScopeKind::Block;
            }
            _ => {}
        }
        i += 1;
    }
    ScopeKind::Block
}

/// `impl [<generics>] [Trait for] Type` → the trait/type names. The
/// header slice starts just after the `impl` keyword.
fn classify_impl(header: &[Tok]) -> ScopeKind {
    let mut angle = 0isize;
    // Idents seen at angle-depth 0, split at a depth-0 `for`.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    for (i, tok) in header.iter().enumerate() {
        match &tok.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident(s) if angle == 0 => match s.as_str() {
                "for" => saw_for = true,
                "where" => break,
                "dyn" | "mut" | "const" => {}
                _ => {
                    // Skip path-separator noise: `a::b` keeps only real
                    // segments, which is what we collect anyway.
                    let _ = i;
                    if saw_for {
                        after_for.push(s.clone());
                    } else {
                        before_for.push(s.clone());
                    }
                }
            },
            _ => {}
        }
    }
    if saw_for {
        ScopeKind::Impl {
            type_name: after_for.last().cloned().unwrap_or_else(|| "_".into()),
            trait_name: Some(before_for.last().cloned().unwrap_or_else(|| "_".into())),
        }
    } else {
        ScopeKind::Impl {
            type_name: before_for.last().cloned().unwrap_or_else(|| "_".into()),
            trait_name: None,
        }
    }
}

/// If the header ends in a closure parameter list — `… |params|` or
/// `… |params| -> Type` — returns the first identifier of each
/// parameter pattern.
fn closure_params(header: &[Tok]) -> Option<Vec<String>> {
    // Find the closing `|`: the last pipe that is followed by nothing or
    // by a `-> Type` return annotation.
    let mut close = None;
    for (i, tok) in header.iter().enumerate().rev() {
        if tok.kind == TokKind::Punct('|') {
            let rest = &header[i + 1..];
            let ret_annot =
                rest.is_empty() || (punct(rest, 0) == Some('-') && punct(rest, 1) == Some('>'));
            if ret_annot {
                close = Some(i);
            }
            break; // only the last pipe can close the param list
        }
    }
    let close = close?;
    // The matching opening `|` is the nearest pipe before it (parameter
    // patterns and type annotations never contain a bare `|`).
    let open = header[..close]
        .iter()
        .rposition(|t| t.kind == TokKind::Punct('|'))?;
    // A `||` pair is the zero-parameter closure; anything else splits at
    // top-level commas, taking each pattern's first identifier.
    let mut params = Vec::new();
    let body = &header[open + 1..close];
    let mut depth = 0isize;
    let mut want_ident = true;
    for (k, tok) in body.iter().enumerate() {
        match &tok.kind {
            TokKind::Punct('(' | '[' | '<') => depth += 1,
            TokKind::Punct(')' | ']' | '>') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => want_ident = true,
            TokKind::Punct(':') if depth == 0 => want_ident = false,
            TokKind::Ident(s) if want_ident && s != "mut" && s != "ref" => {
                let _ = k;
                params.push(s.clone());
                want_ident = false;
            }
            _ => {}
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ScopeTree {
        ScopeTree::build(&lex(src).tokens)
    }

    fn kinds(src: &str) -> Vec<ScopeKind> {
        tree(src).scopes.into_iter().map(|s| s.kind).collect()
    }

    #[test]
    fn items_are_classified_and_named() {
        let src = "mod m { struct S { x: u32 } enum E { A } trait T { fn f(&self); } \
                   impl T for S { fn f(&self) { } } }";
        let kinds = kinds(src);
        assert!(kinds.contains(&ScopeKind::Module("m".into())));
        assert!(kinds.contains(&ScopeKind::Struct("S".into())));
        assert!(kinds.contains(&ScopeKind::Enum("E".into())));
        assert!(kinds.contains(&ScopeKind::Trait("T".into())));
        assert!(kinds.contains(&ScopeKind::Impl {
            type_name: "S".into(),
            trait_name: Some("T".into()),
        }));
        assert!(kinds.contains(&ScopeKind::Fn("f".into())));
    }

    #[test]
    fn inherent_impl_with_generics() {
        let src = "impl<S: 'static> ShardedScheduler<S> { fn run(&mut self) { } }";
        let kinds = kinds(src);
        assert!(kinds.contains(&ScopeKind::Impl {
            type_name: "ShardedScheduler".into(),
            trait_name: None,
        }));
    }

    #[test]
    fn trait_impl_on_path_type_takes_last_segment() {
        let src = "impl fmt::Display for report::ObsReport { fn fmt(&self) { } }";
        assert!(kinds(src).contains(&ScopeKind::Impl {
            type_name: "ObsReport".into(),
            trait_name: Some("Display".into()),
        }));
    }

    #[test]
    fn handler_closure_params_are_extracted() {
        let src =
            "fn f() { schedule(Box::new(move |ctx, shard: &mut PopShard| { ctx.emit(e); })); }";
        let kinds = kinds(src);
        assert!(
            kinds.contains(&ScopeKind::Closure(vec!["ctx".into(), "shard".into()])),
            "{kinds:?}"
        );
    }

    #[test]
    fn nested_closures_nest() {
        let src = "fn f() { g(|a| { h(move |b, c| { b + c }); }); }";
        let t = tree(src);
        let inner = t
            .scopes
            .iter()
            .position(|s| s.kind == ScopeKind::Closure(vec!["b".into(), "c".into()]))
            .expect("inner closure found");
        let outer = t
            .scopes
            .iter()
            .position(|s| s.kind == ScopeKind::Closure(vec!["a".into()]))
            .expect("outer closure found");
        // inner's parent chain passes through outer.
        let mut p = t.scopes[inner].parent;
        let mut seen_outer = false;
        while p != 0 {
            if p == outer {
                seen_outer = true;
            }
            p = t.scopes[p].parent;
        }
        assert!(seen_outer, "{}", t.render());
    }

    #[test]
    fn zero_param_and_pattern_params() {
        let src = "fn f() { a(|| { 1 }); b(|(k, v), mut n| { k }); }";
        let kinds = kinds(src);
        assert!(kinds.contains(&ScopeKind::Closure(vec![])));
        assert!(kinds.contains(&ScopeKind::Closure(vec!["k".into(), "n".into()])));
    }

    #[test]
    fn closure_with_return_type() {
        let src = "fn f() { let g = |x: u32| -> u64 { x as u64 }; }";
        assert!(kinds(src).contains(&ScopeKind::Closure(vec!["x".into()])));
    }

    #[test]
    fn match_arms_with_or_patterns_are_blocks_not_closures() {
        let src = "fn f(x: E) { match x { A | B => { 1 } C => { 2 } } }";
        let kinds = kinds(src);
        assert!(
            !kinds.iter().any(|k| matches!(k, ScopeKind::Closure(_))),
            "{kinds:?}"
        );
    }

    #[test]
    fn control_flow_and_struct_literals_are_blocks() {
        let src =
            "fn f() { if x || y { } for i in 0..n { } let s = S { a: 1 }; match m { _ => { } } }";
        let kinds = kinds(src);
        let blocks = kinds.iter().filter(|k| **k == ScopeKind::Block).count();
        assert!(blocks >= 4, "{kinds:?}");
        assert!(!kinds.iter().any(|k| matches!(k, ScopeKind::Closure(_))));
    }

    #[test]
    fn braces_in_strings_chars_and_comments_do_not_open_scopes() {
        let src = "fn f() { let a = \"{ not a scope }\"; let b = '{'; let c = '}'; \
                   /* { nested /* { */ } */ let d = r#\"{\"#; }";
        let t = tree(src);
        // Only the root and fn f's body.
        assert_eq!(t.scopes.len(), 2, "{}", t.render());
    }

    #[test]
    fn macro_bodies_nest_without_panicking() {
        let src = "macro_rules! m { ($x:expr) => { { $x + 1 } }; } fn f() { m!(2); }";
        let t = tree(src);
        assert!(t.scopes.len() >= 4, "{}", t.render());
        assert!(t.scopes.iter().any(|s| s.kind == ScopeKind::Fn("f".into())));
    }

    #[test]
    fn enclosing_walks_innermost_first() {
        let src = "impl S { fn merge(&mut self) { for x in v { touch(x); } } }";
        let t = tree(src);
        let lexed = lex(src);
        let touch = lexed
            .tokens
            .iter()
            .position(|tok| tok.kind == TokKind::Ident("touch".into()))
            .unwrap();
        let chain = t.enclosing(touch);
        assert_eq!(chain.len(), 3, "{}", t.render());
        assert_eq!(t.scopes[chain[0]].kind, ScopeKind::Block); // the for body
        assert_eq!(t.scopes[chain[1]].kind, ScopeKind::Fn("merge".into()));
        assert!(matches!(t.scopes[chain[2]].kind, ScopeKind::Impl { .. }));
    }

    #[test]
    fn unbalanced_braces_are_tolerated() {
        let t1 = tree("fn f() { ");
        assert_eq!(t1.scopes.len(), 2);
        assert_eq!(t1.scopes[1].close, t1.scopes[0].close);
        let t2 = tree("} fn g() { }");
        assert!(t2
            .scopes
            .iter()
            .any(|s| s.kind == ScopeKind::Fn("g".into())));
    }

    #[test]
    fn render_indents_by_depth() {
        let out = tree("mod m { fn f() { if x { } } }").render();
        assert!(out.contains("root"));
        assert!(out.contains("  mod m"));
        assert!(out.contains("    fn f"));
        assert!(out.contains("      block"));
    }
}
