//! The one source model every rule and analysis reads.
//!
//! [`FileModel::build`] runs the [`crate::tokens`] lexer once and the
//! [`crate::structure`] pass once over each file. Per line it then
//! records:
//! - `code`: the line rendered from the lexer's tokens, so comment
//!   text and literal *contents* are blanked (quotes are kept, so "a
//!   string was here" remains visible);
//! - `in_test`: whether any part of the line is inside a test-only
//!   region found by the structure pass;
//! - `allows`: lint names allowed via `// audit: allow(rule) -- reason`;
//! - `sync_note`: whether the line carries a `// sync:` note.

use crate::rules::FileKind;
use crate::structure::StructureModel;
use crate::tokens::{render_lines, tokenize};

/// One classified source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// Source text with comments and literal contents blanked.
    pub code: String,
    /// True if any part of the line is inside test-only code.
    pub in_test: bool,
    /// Rules allowed by an `audit: allow(...)` comment on this line.
    pub allows: Vec<String>,
    /// True if an allow comment on this line is missing its `-- reason`.
    pub malformed_allow: bool,
    /// True if the line carries a `// sync: <why>` annotation
    /// justifying a relaxed atomic ordering (see the atomic-ordering
    /// analysis in [`crate::analyses`]).
    pub sync_note: bool,
}

/// One fully-modelled source file, shared by every rule and analysis.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path (or fixture label).
    pub path: String,
    /// Where in the workspace the file lives.
    pub kind: FileKind,
    /// Per-line classification, in file order.
    pub lines: Vec<LineInfo>,
    /// Tokens, functions, call sites and test regions.
    pub structure: StructureModel,
}

impl FileModel {
    /// Lex, structure and classify one source text.
    pub fn build(path: &str, kind: FileKind, source: &str) -> FileModel {
        let lexed = tokenize(source);
        let structure = StructureModel::build(lexed.tokens);
        let line_count = source.lines().count();
        let mut in_test = vec![false; line_count];
        for &(a, b) in &structure.tests {
            let (first, last) = (structure.tokens[a].line, structure.tokens[b].line);
            for flag in in_test.iter_mut().take(last + 1).skip(first) {
                *flag = true;
            }
        }
        let lines = render_lines(&structure.tokens, line_count)
            .into_iter()
            .zip(in_test)
            .zip(&lexed.comments)
            .map(|((code, in_test), comment)| {
                let (allows, malformed_allow) = parse_allow(comment);
                LineInfo {
                    code,
                    in_test,
                    allows,
                    malformed_allow,
                    sync_note: comment.contains("sync:"),
                }
            })
            .collect();
        FileModel {
            path: path.to_string(),
            kind,
            lines,
            structure,
        }
    }

    /// True when the rule is allowed on `line` (same line or the one
    /// directly above carries the allow).
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| self.lines[l].allows.iter().any(|a| a == rule);
        hit(line) || (line > 0 && hit(line - 1))
    }

    /// Analyses only look at library code: examples, benches, and
    /// integration tests exercise the APIs under test harness rules.
    pub fn analyzed(&self) -> bool {
        matches!(self.kind, FileKind::StrictLib | FileKind::Lib)
    }
}

/// Parse `audit: allow(rule1, rule2) -- reason` out of a comment.
/// Returns the allowed rules and whether the directive was malformed
/// (present but missing a `-- reason` tail or unparseable).
fn parse_allow(comment: &str) -> (Vec<String>, bool) {
    // Directives live in plain `//` comments only; doc comments merely
    // *talk about* the syntax.
    let trimmed = comment.trim_start();
    for doc in ["///", "//!", "/**", "/*!"] {
        if trimmed.starts_with(doc) {
            return (Vec::new(), false);
        }
    }
    let Some(pos) = comment.find("audit:") else {
        return (Vec::new(), false);
    };
    let rest = &comment[pos + "audit:".len()..];
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return (Vec::new(), true);
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return (Vec::new(), true);
    };
    let Some(close) = rest.find(')') else {
        return (Vec::new(), true);
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_start();
    let has_reason = tail
        .strip_prefix("--")
        .map(|r| !r.trim().is_empty())
        .unwrap_or(false);
    if rules.is_empty() || !has_reason {
        return (rules, true);
    }
    (rules, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileModel {
        FileModel::build("fixture.rs", FileKind::Lib, src)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let m = scan("let x = \"panic!(boom)\"; // .unwrap() here\n");
        assert!(!m.lines[0].code.contains("panic"));
        assert!(!m.lines[0].code.contains("unwrap"));
        assert!(m.lines[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let m = scan(
            "let s = r#\"has .unwrap() inside\"#; let c = '\"'; let l: &'static str = \"x\";\n",
        );
        assert!(!m.lines[0].code.contains("unwrap"));
        // The double-quote inside the char literal must not open a string.
        assert!(m.lines[0].code.contains("static"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "fn lib_code() {\n    body();\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() { body(); }\n}\nfn more_lib() {}\n";
        let m = scan(src);
        assert!(!m.lines[1].in_test, "lib body");
        assert!(m.lines[5].in_test, "helper inside cfg(test)");
        assert!(m.lines[7].in_test, "#[test] fn");
        assert!(!m.lines[9].in_test, "lib code after the test mod");
    }

    #[test]
    fn fn_spans_and_names() {
        let src = "fn alpha() {\n    one();\n}\n\nfn beta() {\n    two();\n}\n";
        let m = scan(src);
        assert_eq!(m.structure.fns.len(), 2);
        assert_eq!(m.structure.fns[0].name, "alpha");
        assert_eq!(
            (m.structure.fns[0].start_line, m.structure.fns[0].end_line),
            (0, 2)
        );
        assert_eq!(m.structure.fns[1].name, "beta");
        assert_eq!(
            (m.structure.fns[1].start_line, m.structure.fns[1].end_line),
            (4, 6)
        );
    }

    #[test]
    fn test_attr_marks_unit_test_fn() {
        let src = "#[test]\nfn my_case() {\n    assert!(true);\n}\nfn plain() {}\n";
        let m = scan(src);
        assert!(m.structure.fns[0].is_unit_test);
        assert_eq!(m.structure.fns[0].name, "my_case");
        assert!(!m.structure.fns[1].is_unit_test);
    }

    #[test]
    fn cfg_attr_on_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {\n    body();\n}\n";
        let m = scan(src);
        assert!(!m.lines[3].in_test);
    }

    #[test]
    fn allow_directive_parses() {
        let m = scan("x(); // audit: allow(no-panic-path) -- justified here\n");
        assert_eq!(m.lines[0].allows, vec!["no-panic-path"]);
        assert!(!m.lines[0].malformed_allow);
        assert!(m.is_allowed(0, "no-panic-path"));
        assert!(!m.is_allowed(0, "lossy-cast"));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let m = scan("x(); // audit: allow(no-panic-path)\n");
        assert!(m.lines[0].malformed_allow);
    }

    #[test]
    fn allow_on_previous_line_covers_next() {
        let src = "// audit: allow(lossy-cast, float-eq) -- fixture\nlet y = x as u32;\n";
        let m = scan(src);
        assert!(m.is_allowed(1, "lossy-cast"));
        assert!(m.is_allowed(1, "float-eq"));
    }

    #[test]
    fn nested_block_comments() {
        let m = scan("/* outer /* inner .unwrap() */ still comment */ fn f() {}\n");
        assert!(!m.lines[0].code.contains("unwrap"));
        assert_eq!(m.structure.fns[0].name, "f");
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        // `br`/`cr` prefixes used to defeat raw-string detection: the
        // string was lexed as an ordinary one, so an interior `"`
        // re-opened code mid-literal.
        let m = scan("let s = br#\"say \"hi\" then .unwrap() and */\"#; fn g() {}\n");
        assert!(!m.lines[0].code.contains("unwrap"), "{}", m.lines[0].code);
        assert!(!m.lines[0].code.contains("hi"));
        assert!(!m.lines[0].code.contains("*/"));
        assert_eq!(m.structure.fns[0].name, "g");
        let m = scan("let s = b\"panic!(x)\"; let t = cr\"todo!()\";\n");
        assert!(!m.lines[0].code.contains("panic"));
        assert!(!m.lines[0].code.contains("todo"));
    }

    #[test]
    fn raw_string_with_comment_closers_does_not_corrupt() {
        // `*/` and `/*` inside a raw string are literal text; the code
        // after the string must stay code.
        let src = "let s = r#\"*/ /* .unwrap() //\"#;\nfn h() { body(); }\n";
        let m = scan(src);
        assert!(!m.lines[0].code.contains("unwrap"));
        assert_eq!(m.structure.fns[0].name, "h");
        assert!(m.lines[1].code.contains("body"));
    }

    #[test]
    fn escaped_quote_char_literal_closes_correctly() {
        // '\'' used to close at the escaped quote, leaving a stray `'`
        // in the code stream.
        let m = scan("let q = '\\''; let s = \".unwrap()\"; fn k() {}\n");
        assert!(!m.lines[0].code.contains("unwrap"), "{}", m.lines[0].code);
        assert_eq!(m.structure.fns[0].name, "k");
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let m = scan("fn r#match() { let r#fn = 1; body(); }\n");
        assert!(m.lines[0].code.contains("body"));
        assert_eq!(m.structure.fns.len(), 1, "raw-ident fn still found");
    }

    #[test]
    fn multiline_raw_string_spans_lines() {
        let src = "let s = r#\"line one .unwrap()\nline two */\n\"#;\nfn tail() {}\n";
        let m = scan(src);
        assert!(!m.lines[0].code.contains("unwrap"));
        assert!(!m.lines[1].code.contains("*/"));
        assert_eq!(m.structure.fns[0].name, "tail");
    }

    #[test]
    fn sync_notes_are_tracked() {
        let m = scan("x.load(Relaxed); // sync: folded on read, never a publish\ny();\n");
        assert!(m.lines[0].sync_note);
        assert!(!m.lines[1].sync_note);
    }
}
