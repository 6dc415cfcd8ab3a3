//! A small Rust lexer — just enough fidelity that rules match real
//! tokens instead of text that happens to sit inside a string literal or
//! a comment.
//!
//! Handles the token classes that trip up grep-style linters: nested
//! block comments, raw strings (`r#"…"#`), byte and raw-byte strings,
//! char literals vs lifetimes (`'a'` vs `'a`), raw identifiers
//! (`r#match`), and escape sequences. Numeric literals are lexed loosely
//! (a digit run with suffix); that is enough because no rule matches
//! numbers.

/// One lexed token with the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Tok {
    pub line: u32,
    pub kind: TokKind,
}

/// Token classes the rules engine can see.
#[derive(Clone, Debug, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `unsafe`, …).
    Ident(String),
    /// String literal content (plain, raw, byte, raw-byte).
    Str(String),
    /// Char or byte-char literal (`'a'`, `b'\n'`); content irrelevant.
    CharLit,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (content irrelevant to every rule).
    Num,
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
}

/// A comment with the line it starts on and whether nothing but
/// whitespace precedes it on that line (an "own-line" comment — used to
/// decide which line a suppression directive covers).
#[derive(Clone, Debug, PartialEq)]
pub struct Comment {
    pub line: u32,
    pub text: String,
    pub own_line: bool,
}

/// The lexer output: significant tokens plus comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    /// Whether a token has already been emitted on the current line.
    token_on_line: bool,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.token_on_line = false;
        }
        Some(c)
    }

    fn push(&mut self, line: u32, kind: TokKind) {
        self.token_on_line = true;
        self.out.tokens.push(Tok { line, kind });
    }

    fn lex_line_comment(&mut self) {
        let line = self.line;
        let own_line = !self.token_on_line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text,
            own_line,
        });
    }

    fn lex_block_comment(&mut self) {
        let line = self.line;
        let own_line = !self.token_on_line;
        let mut text = String::new();
        let mut depth = 1usize;
        // `self.i` sits just past the opening `/*`.
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                    text.push_str("/*");
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                (Some(_), _) => {
                    let c = self.bump().expect("peeked");
                    text.push(c);
                }
                (None, _) => break, // unterminated; tolerate
            }
        }
        self.out.comments.push(Comment {
            line,
            text,
            own_line,
        });
    }

    /// Consumes a plain (escaped) string body; the opening quote is
    /// already consumed. Returns the content.
    fn lex_escaped_string(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    if let Some(e) = self.bump() {
                        text.push('\\');
                        text.push(e);
                    }
                }
                _ => text.push(c),
            }
        }
        text
    }

    /// Consumes a raw string body given the number of `#`s; the opening
    /// quote is already consumed.
    fn lex_raw_string(&mut self, hashes: usize) -> String {
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        text.push('"');
                        // Not the terminator: re-examine from here.
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        text
    }

    /// Char literal body after the opening `'` (which is consumed).
    fn lex_char_literal_body(&mut self) {
        // First content char (possibly an escape lead-in).
        if self.peek(0) == Some('\\') {
            self.bump();
            self.bump(); // the escaped char
        } else {
            self.bump();
        }
        // Consume the rest up to the closing quote (covers `\u{…}`).
        while let Some(c) = self.peek(0) {
            if c == '\'' {
                self.bump();
                break;
            }
            if c == '\n' {
                break; // malformed; tolerate
            }
            self.bump();
        }
    }

    fn lex_ident_at(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(line, TokKind::Ident(name));
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => {
                    self.bump();
                    self.bump();
                    self.lex_line_comment();
                }
                '/' if self.peek(1) == Some('*') => {
                    self.bump();
                    self.bump();
                    self.lex_block_comment();
                }
                '"' => {
                    self.bump();
                    let s = self.lex_escaped_string();
                    self.push(line, TokKind::Str(s));
                }
                'r' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.bump();
                    let s = self.lex_raw_string(0);
                    self.push(line, TokKind::Str(s));
                }
                'r' if self.peek(1) == Some('#') => {
                    // r#"…"# raw string (any hash count) or r#ident.
                    let mut hashes = 0;
                    while self.peek(1 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if self.peek(1 + hashes) == Some('"') {
                        for _ in 0..hashes + 2 {
                            self.bump(); // r, #…#, "
                        }
                        let s = self.lex_raw_string(hashes);
                        self.push(line, TokKind::Str(s));
                    } else {
                        // Raw identifier: skip `r#`, lex the name.
                        self.bump();
                        self.bump();
                        self.lex_ident_at(line);
                    }
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.bump();
                    let s = self.lex_escaped_string();
                    self.push(line, TokKind::Str(s));
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.bump();
                    self.lex_char_literal_body();
                    self.push(line, TokKind::CharLit);
                }
                'b' if self.peek(1) == Some('r')
                    && matches!(self.peek(2), Some('"') | Some('#')) =>
                {
                    self.bump();
                    self.bump();
                    let mut hashes = 0;
                    while self.peek(hashes) == Some('#') {
                        hashes += 1;
                    }
                    self.bump(); // the quote (or first # consumed below)
                    for _ in 0..hashes {
                        self.bump();
                    }
                    let s = self.lex_raw_string(hashes);
                    self.push(line, TokKind::Str(s));
                }
                '\'' => {
                    self.bump();
                    match self.peek(0) {
                        Some('\\') => {
                            self.lex_char_literal_body();
                            self.push(line, TokKind::CharLit);
                        }
                        Some(n) if is_ident_start(n) => {
                            // Lifetime unless a closing quote follows the
                            // identifier run ('a' vs 'a).
                            let mut k = 0;
                            while self.peek(k).map(is_ident_continue).unwrap_or(false) {
                                k += 1;
                            }
                            if self.peek(k) == Some('\'') {
                                self.lex_char_literal_body();
                                self.push(line, TokKind::CharLit);
                            } else {
                                for _ in 0..k {
                                    self.bump();
                                }
                                self.push(line, TokKind::Lifetime);
                            }
                        }
                        Some(_) => {
                            self.lex_char_literal_body();
                            self.push(line, TokKind::CharLit);
                        }
                        None => {}
                    }
                }
                _ if is_ident_start(c) => self.lex_ident_at(line),
                _ if c.is_ascii_digit() => {
                    // Digit run with alphanumeric suffix (0xFF, 1_000u64);
                    // the `.` of a float lexes as Punct, which no rule
                    // cares about.
                    while let Some(n) = self.peek(0) {
                        if is_ident_continue(n) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(line, TokKind::Num);
                }
                _ => {
                    self.bump();
                    self.push(line, TokKind::Punct(c));
                }
            }
        }
        self.out
    }
}

/// Lexes one source file.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        token_on_line: false,
        out: Lexed::default(),
    }
    .run()
}

/// The identifier at `tokens[i]`, if that token is one.
pub(crate) fn ident(tokens: &[Tok], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

/// The punctuation character at `tokens[i]`, if that token is one.
pub(crate) fn punct(tokens: &[Tok], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn identifiers_inside_strings_are_not_tokens() {
        let src = r##"let x = "pop.telemetry.emit(ev) Instant::now()"; let y = r#"thread_rng"#;"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "/* outer /* inner pop.emit(ev) */ still comment */ fn main() {}";
        assert_eq!(idents(src), vec!["fn", "main"]);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "let c = 'a'; fn f<'a>(x: &'a str) -> char { '\\n' }";
        let lexed = lex(src);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::CharLit)
            .count();
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(chars, 2, "'a' and '\\n'");
        assert_eq!(lifetimes, 2, "<'a> and &'a");
    }

    #[test]
    fn raw_and_byte_strings_consume_their_bodies() {
        let src = r###"let a = r#"un"closed ""#; let b = b"bytes"; let c = br##"raw"##;"###;
        assert_eq!(idents(src), vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn comments_record_line_and_own_line_flag() {
        let src = "let x = 1; // trailing\n// own line\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(!lexed.comments[0].own_line);
        assert_eq!(lexed.comments[1].line, 2);
        assert!(lexed.comments[1].own_line);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\none\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b_tok = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Ident("b".into()))
            .unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn raw_identifier_lexes_as_ident() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    // --- regression pins for the structural pass ------------------------
    // The scope tree is built from brace Puncts, so a brace leaking out
    // of a char literal or string would silently skew every scope-aware
    // rule. These pin the exact cases that trip grep-style lexers.

    #[test]
    fn hash_and_brace_char_literals_do_not_leak_puncts() {
        let src = "let a = '#'; let b = '{'; let c = '}'; let d = '|'; let e = b'{';";
        let lexed = lex(src);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::CharLit)
            .count();
        assert_eq!(chars, 5);
        assert!(
            !lexed.tokens.iter().any(|t| matches!(
                t.kind,
                TokKind::Punct('{')
                    | TokKind::Punct('}')
                    | TokKind::Punct('#')
                    | TokKind::Punct('|')
            )),
            "char-literal bodies must not surface as punctuation: {:?}",
            lexed.tokens
        );
    }

    #[test]
    fn wildcard_lifetime_and_loop_labels_are_lifetimes_not_chars() {
        let src = "fn f(x: &'_ str) { 'outer: loop { break 'outer; } }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3, "{:?}", lexed.tokens);
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokKind::CharLit));
        // The loop braces still balance (2 opens, 2 closes).
        let opens = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct('{'))
            .count();
        let closes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct('}'))
            .count();
        assert_eq!((opens, closes), (2, 2));
    }

    #[test]
    fn quotes_and_hashes_in_doc_comments_do_not_derail() {
        let src = "/// doc with '#' and a stray \" quote and a { brace\nfn f() {}\n";
        let lexed = lex(src);
        let ids = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(ids, vec!["fn", "f"]);
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn multi_hash_raw_strings_with_embedded_terminator_lookalikes() {
        let src = r####"let s = r##"inner "# quote and { brace"##; let t = 1;"####;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
        let lexed = lex(src);
        let body = lexed
            .tokens
            .iter()
            .find_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("one string token");
        assert_eq!(body, "inner \"# quote and { brace");
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokKind::Punct('{')));
    }
}
