//! The audit's one structure pass: functions, impl self types, call
//! sites and test regions of one file, found over the
//! [`crate::tokens`] stream.
//!
//! Test regions come from whole attributes parsed from tokens, so an
//! attribute written across several lines reads as one. Only `#[test]`,
//! `#[cfg(test)]` and `cfg` predicates that need `test` (such as
//! `#[cfg(all(test, ..))]`) mark their item as test-only.
//!
//! The model is deliberately type-free: it records *names* (function
//! names, impl self-type names, callee names, receiver ident chains)
//! and lets each rule and analysis decide how much ambiguity it
//! tolerates.

use crate::tokens::{Token, TokenKind};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called function's name (last path segment).
    pub callee: String,
    /// Path segments before the callee for `A::b::c(..)` calls
    /// (empty for plain calls and method calls).
    pub path: Vec<String>,
    /// For method calls, the receiver's ident chain with indexing and
    /// call parentheses elided: `self.inner.shards[i].cache.lock()`
    /// yields `["self", "inner", "shards", "cache"]`.
    pub receiver: Vec<String>,
    /// True for `recv.callee(..)` method calls.
    pub is_method: bool,
    /// Token index of the callee ident.
    pub token: usize,
    /// 0-based line of the callee ident.
    pub line: usize,
}

/// One function found in the file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's own name.
    pub name: String,
    /// The `impl` self type the function lives in, when any
    /// (`impl Foo` and `impl Trait for Foo` both yield `Foo`).
    pub self_type: Option<String>,
    /// `Type::name` when inside an impl, else just `name`.
    pub qualified: String,
    /// True when the function carries a `#[test]` attribute.
    pub is_unit_test: bool,
    /// True when the function is inside any test-only region (its own
    /// `#[test]` or an enclosing `#[cfg(test)]` item).
    pub in_test: bool,
    /// Token indices of the body's `{` and matching `}`.
    pub body: (usize, usize),
    /// 0-based line of the body's opening brace.
    pub start_line: usize,
    /// 0-based line of the body's closing brace.
    pub end_line: usize,
    /// Every call site in the body, in token order.
    pub calls: Vec<CallSite>,
}

/// Token stream plus the functions and test regions shaping it.
#[derive(Debug)]
pub struct StructureModel {
    /// The file's full token stream.
    pub tokens: Vec<Token>,
    /// Every function body, in source order.
    pub fns: Vec<FnInfo>,
    /// Token ranges (inclusive) of test-only items, in source order.
    pub tests: Vec<(usize, usize)>,
}

impl StructureModel {
    /// Find the functions, impl types, call sites and test regions of
    /// a lexed file.
    pub fn build(tokens: Vec<Token>) -> StructureModel {
        let mut unit_tests = Vec::new();
        let mut tests = Vec::new();
        for i in 0..tokens.len() {
            let Some(close) = attribute_end(&tokens, i) else {
                continue;
            };
            if let Some(unit) = test_attribute(&tokens[i + 2..close]) {
                let (body, end) = item_extent(&tokens, close + 1);
                tests.push((i, end));
                if unit {
                    unit_tests.extend(body);
                }
            }
        }
        let mut fns = find_fns(&tokens);
        for f in &mut fns {
            f.is_unit_test = unit_tests.contains(&f.body.0);
            f.in_test = tests.iter().any(|&(a, b)| a <= f.body.0 && f.body.0 <= b);
        }
        StructureModel { tokens, fns, tests }
    }

    /// The function whose body contains token `idx`, if any. Inner
    /// (nested) functions win over enclosing ones.
    pub fn fn_at(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= idx && idx <= f.body.1)
            .max_by_key(|f| f.body.0)
    }
}

/// If an outer attribute `#[..]` starts at token `i`, the index of its
/// closing `]`.
fn attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// What an attribute (the tokens between `#[` and `]`) says about the
/// item under it: `Some(true)` for `#[test]`, `Some(false)` for a
/// `cfg` that only holds in test builds (`cfg(test)`,
/// `cfg(all(test, ..))`), `None` otherwise. `cfg(not(test))`,
/// `cfg(any(test, feature = ".."))` and `cfg_attr(test, ..)` all keep
/// their item in production builds.
fn test_attribute(body: &[Token]) -> Option<bool> {
    match body {
        [t] if t.is_ident("test") => Some(true),
        [cfg, open, pred @ .., close]
            if cfg.is_ident("cfg") && open.is_punct("(") && close.is_punct(")") =>
        {
            test_only(pred).then_some(false)
        }
        _ => None,
    }
}

/// Does the `cfg` predicate hold only when `test` does?
fn test_only(pred: &[Token]) -> bool {
    match pred {
        [t] => t.is_ident("test"),
        [op, open, args @ .., close] if open.is_punct("(") && close.is_punct(")") => {
            let mut parts = Vec::new();
            let (mut depth, mut from) = (0usize, 0);
            for (j, t) in args.iter().enumerate() {
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(",") && depth == 0 {
                    parts.push(&args[from..j]);
                    from = j + 1;
                }
            }
            parts.push(&args[from..]);
            parts.retain(|p| !p.is_empty());
            if op.is_ident("all") {
                parts.iter().any(|p| test_only(p))
            } else if op.is_ident("any") {
                !parts.is_empty() && parts.iter().all(|p| test_only(p))
            } else {
                false
            }
        }
        _ => false,
    }
}

/// The extent of the item starting at token `from` (just after its
/// attribute): a braced item ends at its matching `}` and also yields
/// the `{` index; any other item ends at its `;`, or before the `}`
/// closing the scope it sits in.
fn item_extent(tokens: &[Token], from: usize) -> (Option<usize>, usize) {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct("{") {
            return (Some(j), matching_brace(tokens, j));
        } else if depth == 0 && t.is_punct(";") {
            return (None, j);
        } else if depth == 0 && t.is_punct("}") {
            return (None, j - 1);
        }
    }
    (None, tokens.len().saturating_sub(1))
}

/// Scope kinds the brace tracker distinguishes.
#[derive(Debug)]
enum ScopeKind {
    /// An `impl` block for the named self type.
    Impl(String),
    /// A function body.
    Fn,
    /// Any other brace scope.
    Other,
}

fn find_fns(tokens: &[Token]) -> Vec<FnInfo> {
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<ScopeKind> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut pending_impl: Option<String> = None;
    // Paren/bracket nesting, so the `;` of `-> [u8; 4]` ends nothing.
    let mut depth = 0usize;
    let mut i = 0usize;

    while i < tokens.len() {
        if let Some(close) = attribute_end(tokens, i) {
            // Skip attributes wholesale so `test` inside an attribute
            // path is never mistaken for an ident of interest.
            i = close + 1;
            continue;
        }
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "impl") if pending_fn.is_none() => {
                // Only a top-of-item `impl` opens an impl block;
                // `-> impl Trait` in a pending fn signature does not.
                pending_impl = Some(parse_impl_type(tokens, i + 1));
            }
            (TokenKind::Ident, "fn") => {
                if let Some(name) = tokens.get(i + 1) {
                    if name.kind == TokenKind::Ident {
                        pending_fn = Some(name.text.clone());
                    }
                }
            }
            (TokenKind::Punct, "(" | "[") => depth += 1,
            (TokenKind::Punct, ")" | "]") => depth = depth.saturating_sub(1),
            (TokenKind::Punct, ";") if depth == 0 => {
                // Trait method declarations and items without bodies.
                pending_fn = None;
            }
            (TokenKind::Punct, "{") => {
                if let Some(name) = pending_fn.take() {
                    let close = matching_brace(tokens, i);
                    let self_type = stack.iter().rev().find_map(|s| match s {
                        ScopeKind::Impl(ty) => Some(ty.clone()),
                        _ => None,
                    });
                    let qualified = match &self_type {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    let start_line = tokens[i].line;
                    let end_line = tokens.get(close).map_or(start_line, |t| t.line);
                    fns.push(FnInfo {
                        name,
                        self_type,
                        qualified,
                        is_unit_test: false,
                        in_test: false,
                        body: (i, close),
                        start_line,
                        end_line,
                        calls: Vec::new(),
                    });
                    stack.push(ScopeKind::Fn);
                } else if let Some(ty) = pending_impl.take() {
                    stack.push(ScopeKind::Impl(ty));
                } else {
                    stack.push(ScopeKind::Other);
                }
            }
            (TokenKind::Punct, "}") => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }

    // Second pass: collect call sites per function.
    let mut sites = find_calls(tokens);
    sites.sort_by_key(|s| s.token);
    for site in sites {
        // Attribute each call to the innermost containing fn.
        let owner = fns
            .iter_mut()
            .filter(|f| f.body.0 < site.token && site.token < f.body.1)
            .max_by_key(|f| f.body.0);
        if let Some(f) = owner {
            f.calls.push(site);
        }
    }
    fns
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Extract the self-type name of an `impl` item starting after the
/// `impl` keyword: the last path ident outside angle brackets, taken
/// after `for` when present (`impl<K> Index for Lsh<K>` → `Lsh`).
fn parse_impl_type(tokens: &[Token], mut i: usize) -> String {
    let mut angle: i32 = 0;
    let mut last_ident = String::new();
    while i < tokens.len() {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle = (angle - 1).max(0),
            (TokenKind::Punct, "->") => {}
            (TokenKind::Punct, "{") | (TokenKind::Ident, "where") => break,
            (TokenKind::Ident, "for") if angle == 0 => last_ident.clear(),
            (TokenKind::Ident, "dyn") | (TokenKind::Ident, "mut") => {}
            (TokenKind::Ident, _) if angle == 0 => last_ident = t.text.clone(),
            _ => {}
        }
        i += 1;
    }
    last_ident
}

/// Keywords that look like `ident (` but are not calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "unsafe", "pub",
];

fn find_calls(tokens: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // `name!(...)` macros and `fn name(` definitions are not calls.
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        if prev.is_some_and(|p| p.is_ident("fn") || p.is_punct("!")) {
            continue;
        }
        // Macro invocation: `name !` handled above; also skip when the
        // NEXT token after the ident is `!` (never reaches here since
        // `(` is required).
        let mut site = CallSite {
            callee: t.text.clone(),
            path: Vec::new(),
            receiver: Vec::new(),
            is_method: false,
            token: i,
            line: t.line,
        };
        match prev {
            Some(p) if p.is_punct(".") => {
                site.is_method = true;
                site.receiver = receiver_chain(tokens, i - 1);
            }
            Some(p) if p.is_punct("::") => {
                site.path = path_chain(tokens, i - 1);
            }
            _ => {}
        }
        out.push(site);
    }
    out
}

/// Walk a method-call receiver backwards from the `.` at `dot`:
/// collects the ident chain, skipping balanced `[..]`/`(..)` groups
/// (`self.inner.shards[i].cache` → `[self, inner, shards, cache]`).
pub fn receiver_chain(tokens: &[Token], dot: usize) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    let mut i = dot; // index of the `.` before the callee
                     // Before the dot there must be an ident, `)`, `]`, or a number
                     // (tuple field like `.0`).
    while let Some(prev) = i.checked_sub(1) {
        let t = &tokens[prev];
        if t.is_punct("]") || t.is_punct(")") {
            // Skip the balanced group, then expect an ident before it.
            let open = if t.is_punct("]") { "[" } else { "(" };
            let close = &t.text;
            let mut depth = 0i32;
            let mut j = prev;
            loop {
                if tokens[j].text == *close && tokens[j].kind == TokenKind::Punct {
                    depth += 1;
                } else if tokens[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                let Some(nj) = j.checked_sub(1) else { break };
                j = nj;
            }
            i = j;
            // A call group `name(...)` keeps its name in the chain.
            continue;
        }
        if t.kind == TokenKind::Ident || t.kind == TokenKind::Number {
            rev.push(t.text.clone());
            // Continue the chain over `.` or `::`.
            match i.checked_sub(2).map(|p| &tokens[p]) {
                Some(link) if link.is_punct(".") || link.is_punct("::") => {
                    i = prev.saturating_sub(1);
                    continue;
                }
                _ => break,
            }
        }
        break;
    }
    rev.reverse();
    rev
}

/// Walk a `::` path backwards from the `::` at `sep`:
/// `std::fs::write` → `[std, fs]` (the callee itself excluded).
fn path_chain(tokens: &[Token], sep: usize) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    let mut i = sep;
    while let Some(prev) = i.checked_sub(1) {
        let t = &tokens[prev];
        // Skip turbofish / generic args between path segments.
        if t.is_punct(">") {
            let mut depth = 0i32;
            let mut j = prev;
            loop {
                if tokens[j].is_punct(">") {
                    depth += 1;
                } else if tokens[j].is_punct("<") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                let Some(nj) = j.checked_sub(1) else { break };
                j = nj;
            }
            i = j;
            continue;
        }
        if t.kind == TokenKind::Ident {
            rev.push(t.text.clone());
            match prev.checked_sub(1).map(|p| &tokens[p]) {
                Some(link) if link.is_punct("::") => {
                    i = prev - 1;
                    continue;
                }
                _ => break,
            }
        }
        break;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn model(src: &str) -> StructureModel {
        StructureModel::build(tokenize(src).tokens)
    }

    #[test]
    fn fns_and_impl_types() {
        let src = "impl ShardedImageCache {\n    pub fn request(&self, spec: &Spec) -> Outcome {\n        self.serve(spec)\n    }\n}\nfn free() {}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].qualified, "ShardedImageCache::request");
        assert_eq!(m.fns[0].self_type.as_deref(), Some("ShardedImageCache"));
        assert_eq!(m.fns[1].qualified, "free");
    }

    #[test]
    fn trait_impls_use_the_self_type() {
        let src =
            "impl<K: Key> CandidateIndex for LshIndex<K> {\n    fn probe(&self) { x(); }\n}\n";
        let m = model(src);
        assert_eq!(m.fns[0].qualified, "LshIndex::probe");
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let src = "fn make() -> impl Iterator<Item = u64> {\n    build()\n}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].qualified, "make");
        assert!(m.fns[0].self_type.is_none());
    }

    #[test]
    fn calls_record_receiver_chains() {
        let src = "fn f(&self) {\n    let g = self.inner.shards[i].cache.lock();\n    helper(g);\n    std::fs::write(p, b);\n}\n";
        let m = model(src);
        let calls = &m.fns[0].calls;
        let lock = calls.iter().find(|c| c.callee == "lock").expect("lock");
        assert!(lock.is_method);
        assert_eq!(lock.receiver, vec!["self", "inner", "shards", "cache"]);
        let helper = calls.iter().find(|c| c.callee == "helper").expect("helper");
        assert!(!helper.is_method);
        assert!(helper.receiver.is_empty());
        let write = calls.iter().find(|c| c.callee == "write").expect("write");
        assert_eq!(write.path, vec!["std", "fs"]);
    }

    #[test]
    fn chained_call_receivers_keep_the_chain() {
        let src = "fn f() {\n    self.counters.read().get(name);\n}\n";
        let m = model(src);
        let get = m.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "get")
            .expect("get call");
        // The chain walks through the `read()` call group.
        assert_eq!(get.receiver, vec!["self", "counters", "read"]);
    }

    #[test]
    fn test_fns_are_marked() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x(); }\n}\nfn lib() { y(); }\n";
        let m = model(src);
        let t = m.fns.iter().find(|f| f.name == "t").expect("test fn");
        assert!(t.in_test && t.is_unit_test);
        let lib = m.fns.iter().find(|f| f.name == "lib").expect("lib fn");
        assert!(!lib.in_test && !lib.is_unit_test);
    }

    #[test]
    fn only_test_only_cfgs_mark_test_regions() {
        let in_test = |attr: &str| {
            let m = model(&format!("{attr}\nfn f() {{ x(); }}\n"));
            m.fns[0].in_test
        };
        assert!(in_test("#[cfg(test)]"));
        assert!(in_test("#[cfg(all(test, feature = \"x\"))]"));
        assert!(in_test("#[cfg(all(\n    test,\n    feature = \"x\",\n))]"));
        assert!(in_test("#[cfg(any(test, all(test, unix)))]"));
        assert!(!in_test("#[cfg(not(test))]"));
        assert!(!in_test("#[cfg(any(test, feature = \"x\"))]"));
        assert!(!in_test("#[cfg_attr(test, allow(dead_code))]"));
        assert!(!in_test("#[ignore = \"slow test\"]"));
    }

    #[test]
    fn test_regions_end_with_their_item() {
        let src = "#[cfg(test)]\nuse std::mem;\nfn lib() { a(); }\n#[test]\n#[should_panic]\nfn t() -> [u8; 2] { b() }\nfn tail() {}\n";
        let m = model(src);
        let names: Vec<(&str, bool, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.in_test, f.is_unit_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("lib", false, false),
                ("t", true, true),
                ("tail", false, false)
            ]
        );
    }

    #[test]
    fn macros_are_not_calls() {
        let src = "fn f() {\n    assert_eq!(a, b);\n    println!(\"x\");\n    real(a);\n}\n";
        let m = model(src);
        let names: Vec<&str> = m.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(names.contains(&"real"));
        assert!(!names.contains(&"assert_eq"));
        assert!(!names.contains(&"println"));
    }

    #[test]
    fn fn_at_finds_innermost() {
        let src = "fn outer() {\n    fn inner() { x(); }\n    y();\n}\n";
        let m = model(src);
        let inner = m.fns.iter().find(|f| f.name == "inner").expect("inner");
        let x_call = &inner.calls[0];
        assert_eq!(m.fn_at(x_call.token).expect("owner").name, "inner");
    }
}
