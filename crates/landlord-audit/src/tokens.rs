//! The audit's one lexer: raw Rust source to a flat token stream.
//!
//! Literal and comment syntax is recognised here and nowhere else:
//! nested block comments, every string prefix (`b`, `c`, `r`, `br`,
//! `cr`, with any number of raw hashes), escaped char literals such as
//! `'\''`, and char literals versus lifetimes. Literal *contents* never
//! reach the rules and analyses: a string or char token's text is the
//! literal with every character between its delimiters blanked to a
//! space (newlines kept), so `".unwrap()"` lexes as `"         "`.
//! Comment text never becomes a token; it is kept per line for allow
//! directives and `// sync:` notes.
//!
//! Identifiers, numbers and punctuation (with maximal-munch
//! multi-character operators such as `::`, `->`, `+=`, `..=`) complete
//! the stream. `render_lines` turns the stream back into per-line
//! text for the rules that still match text within a statement.

/// What a token is, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `impl`, `foo`, `u64`).
    Ident,
    /// Numeric literal (`42`, `0x1f`, `1_000`).
    Number,
    /// A (blanked) string literal, raw or not, including prefixes.
    Str,
    /// A (blanked) char literal.
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation, possibly multi-character (`::`, `+=`, `{`).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text. For `Str`/`Char` this is the blanked literal.
    pub text: String,
    /// Coarse classification.
    pub kind: TokenKind,
    /// 0-based line the token starts on.
    pub line: usize,
    /// 0-based column (in characters) the token starts at.
    pub col: usize,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// A lexed source file.
#[derive(Debug)]
pub struct Lexed {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// The comment text on each line (empty when the line has none);
    /// one entry per line, so a file with `n` newlines has `n + 1`.
    pub comments: Vec<String>,
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lex raw source. Never fails: unexpected characters become
/// single-character `Punct` tokens and an unterminated literal or
/// comment runs to the end of the file.
pub fn tokenize(source: &str) -> Lexed {
    let mut lx = Lexer {
        chars: source.chars().collect(),
        i: 0,
        line: 0,
        col: 0,
        tokens: Vec::new(),
        comments: vec![String::new()],
    };
    while lx.i < lx.chars.len() {
        lx.next_token();
    }
    Lexed {
        tokens: lx.tokens,
        comments: lx.comments,
    }
}

/// Render the token stream back to `line_count` lines of text, each
/// token at its original column. Comments and whitespace become
/// spaces (trailing ones are dropped) and literal contents stay
/// blanked, so matching a needle against a rendered line only ever
/// matches code.
pub(crate) fn render_lines(tokens: &[Token], line_count: usize) -> Vec<String> {
    let mut lines: Vec<Vec<char>> = vec![Vec::new(); line_count];
    for t in tokens {
        let (mut line, mut col) = (t.line, t.col);
        for c in t.text.chars() {
            if c == '\n' {
                line += 1;
                col = 0;
                continue;
            }
            if let Some(out) = lines.get_mut(line) {
                out.resize(col, ' ');
                out.push(c);
            }
            col += 1;
        }
    }
    lines.into_iter().map(String::from_iter).collect()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
    tokens: Vec<Token>,
    comments: Vec<String>,
}

impl Lexer {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    /// Consume one character, keeping the line and column current.
    fn bump(&mut self) -> char {
        let c = self.chars[self.i];
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
            self.comments.push(String::new());
        } else {
            self.col += 1;
        }
        c
    }

    /// Consume one character of comment text.
    fn bump_comment(&mut self) {
        let c = self.chars[self.i];
        if let Some(text) = self.comments.last_mut() {
            text.push(c);
        }
        self.bump();
    }

    /// Consume `n` characters, appending them to `text` as written.
    fn keep(&mut self, n: usize, text: &mut String) {
        for _ in 0..n {
            if self.i < self.chars.len() {
                text.push(self.bump());
            }
        }
    }

    /// Consume one literal-content character, appending it blanked.
    fn blank(&mut self, text: &mut String) {
        if self.i < self.chars.len() {
            text.push(if self.bump() == '\n' { '\n' } else { ' ' });
        }
    }

    fn next_token(&mut self) {
        let c = self.chars[self.i];
        let next = self.peek(1);
        if c == '/' && next == Some('/') {
            while self.i < self.chars.len() && self.chars[self.i] != '\n' {
                self.bump_comment();
            }
            return;
        }
        if c == '/' && next == Some('*') {
            self.block_comment();
            return;
        }
        if c.is_whitespace() {
            self.bump();
            return;
        }
        let (line, col) = (self.line, self.col);
        let mut text = String::new();
        let kind = if let Some((prefix_len, raw, hashes)) = self.string_start() {
            self.keep(prefix_len, &mut text);
            self.string_body(raw, hashes, &mut text);
            TokenKind::Str
        } else if c == '\'' && next == Some('\\') {
            // Escaped char literal: '\n', '\u{..}', '\''. The character
            // right after the backslash is part of the escape and never
            // closes the literal.
            self.keep(1, &mut text);
            self.blank(&mut text);
            self.blank(&mut text);
            while self.i < self.chars.len() && self.chars[self.i] != '\'' {
                self.blank(&mut text);
            }
            self.keep(1, &mut text);
            TokenKind::Char
        } else if c == '\'' && next.is_some() && self.peek(2) == Some('\'') {
            self.keep(1, &mut text);
            self.blank(&mut text);
            self.keep(1, &mut text);
            TokenKind::Char
        } else if c == '\'' && next.is_some_and(is_ident_start) {
            self.keep(1, &mut text);
            self.keep_while(&mut text, is_ident_char);
            TokenKind::Lifetime
        } else if is_ident_start(c) {
            self.keep_while(&mut text, is_ident_char);
            TokenKind::Ident
        } else if c.is_ascii_digit() {
            // Digits plus the usual suffix/separator characters; a `.`
            // continues the number only before a digit, so `1..4` and
            // `x.0` split but `1.5` does not.
            while self.i < self.chars.len() {
                let d = self.chars[self.i];
                let float_dot = d == '.' && self.peek(1).is_some_and(|n| n.is_ascii_digit());
                if !(is_ident_char(d) || float_dot) {
                    break;
                }
                text.push(self.bump());
            }
            TokenKind::Number
        } else {
            let len = MULTI_PUNCT
                .iter()
                .find(|op| {
                    op.chars()
                        .enumerate()
                        .all(|(k, oc)| self.peek(k) == Some(oc))
                })
                .map_or(1, |op| op.len());
            self.keep(len, &mut text);
            TokenKind::Punct
        };
        self.tokens.push(Token {
            text,
            kind,
            line,
            col,
        });
    }

    fn keep_while(&mut self, text: &mut String, pred: fn(char) -> bool) {
        while self.i < self.chars.len() && pred(self.chars[self.i]) {
            text.push(self.bump());
        }
    }

    /// A possibly nested `/* .. */` comment.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            if self.chars[self.i] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump_comment();
                self.bump_comment();
            } else if self.chars[self.i] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump_comment();
            }
        }
    }

    /// Does a string literal start here? Returns `(prefix_len, raw,
    /// hashes)` where `prefix_len` counts every character up to and
    /// including the opening quote. Raw identifiers (`r#match`) do not
    /// match.
    fn string_start(&self) -> Option<(usize, bool, usize)> {
        let mut j = 0;
        if matches!(self.peek(j), Some('b' | 'c')) {
            j += 1;
        }
        let raw = self.peek(j) == Some('r');
        let mut hashes = 0;
        if raw {
            j += 1;
            while self.peek(j) == Some('#') {
                hashes += 1;
                j += 1;
            }
        }
        (self.peek(j) == Some('"')).then_some((j + 1, raw, hashes))
    }

    /// The body and closing delimiter of a string literal. Raw strings
    /// have no escapes and close only on `"` followed by exactly their
    /// hash count, so one holding `*/`, `//` or bare quotes cannot
    /// swallow the code after it.
    fn string_body(&mut self, raw: bool, hashes: usize, text: &mut String) {
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '"' && (!raw || (1..=hashes).all(|k| self.peek(k) == Some('#'))) {
                self.keep(1 + hashes, text);
                return;
            }
            if c == '\\' && !raw {
                self.blank(text);
            }
            self.blank(text);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_multichar_puncts() {
        assert_eq!(
            texts("self.bits[word].load(Ordering::Relaxed)"),
            vec![
                "self", ".", "bits", "[", "word", "]", ".", "load", "(", "Ordering", "::",
                "Relaxed", ")"
            ]
        );
        assert_eq!(texts("a += b * c;"), vec!["a", "+=", "b", "*", "c", ";"]);
        assert_eq!(texts("x..=y .. z"), vec!["x", "..=", "y", "..", "z"]);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = tokenize("fn f() {\n    a.lock();\n}\n").tokens;
        let lock = toks.iter().find(|t| t.text == "lock").expect("lock token");
        assert_eq!((lock.line, lock.col), (1, 6));
        let close = toks.iter().rfind(|t| t.text == "}").expect("close brace");
        assert_eq!((close.line, close.col), (2, 0));
    }

    #[test]
    fn blanked_strings_are_single_tokens() {
        let toks = tokenize("let s = \"a .unwrap()\"; let r = r#\"say \"hi\"\"#;").tokens;
        let strs: Vec<&Token> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text, "\"           \"");
        assert_eq!(strs[1].text, "r#\"        \"#");
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some(";"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }").tokens;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["' '", "'  '"]);
    }

    #[test]
    fn numbers_including_floats() {
        assert_eq!(texts("1.5 + 2"), vec!["1.5", "+", "2"]);
        assert_eq!(texts("0..10"), vec!["0", "..", "10"]);
    }

    #[test]
    fn comments_are_kept_per_line_and_never_tokens() {
        let lexed = tokenize("a(); // audit: allow(x) -- y\n/* one\ntwo */ b();\n");
        assert_eq!(texts("a /* b */ c // d"), vec!["a", "c"]);
        assert_eq!(lexed.comments[0], "// audit: allow(x) -- y");
        assert!(lexed.comments[1].contains("one"));
        assert!(lexed.comments[2].contains("two"));
        let b = lexed.tokens.iter().find(|t| t.text == "b").expect("b");
        assert_eq!((b.line, b.col), (2, 7));
    }

    #[test]
    fn rendering_puts_tokens_back_in_place() {
        let src = "let s = \"x\"; // note\n    f(s) /* c */ + 1\n";
        let lexed = tokenize(src);
        assert_eq!(
            render_lines(&lexed.tokens, 2),
            vec!["let s = \" \";", "    f(s)         + 1"]
        );
    }
}
