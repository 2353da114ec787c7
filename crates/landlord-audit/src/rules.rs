//! The ten project-specific lints, plus allow-directive hygiene.
//!
//! Each rule pattern-matches on the blanked `code` text produced by
//! [`crate::scan`], so string literals and comments never trigger
//! findings. Rules are heuristic by design — this is a project lint,
//! not a compiler — and every rule can be suppressed per line with
//! `// audit: allow(<rule>) -- reason`.

use crate::scan::SourceModel;

/// Stable identifiers for every rule the audit enforces.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-panic-path",
        "library code in landlord-core/-sim/-repo must not unwrap()/expect()/panic!: return Result or a domain error",
    ),
    (
        "lossy-cast",
        "byte/size/count values must not be narrowed with `as` (u64 -> u32/usize/...): use try_from or compare in u64",
    ),
    (
        "float-eq",
        "Jaccard/efficiency-style floats must not be compared with == or !=: compare with a tolerance or in integer milli-units",
    ),
    (
        "unseeded-rng",
        "non-test code must not construct entropy-seeded RNGs (thread_rng/from_entropy/...): take an explicit u64 seed",
    ),
    (
        "guard-across-closure",
        "a parking_lot guard must not be passed into a closure: a lock call and a closure literal never share a statement, in any function",
    ),
    (
        "test-invariants",
        "a #[test] that mutates an ImageCache must call check_invariants() before returning",
    ),
    (
        "no-silent-io-drop",
        "io::Result/serde_json::Result values must not be discarded with `let _ =` or a bare `.ok();` in non-test code: propagate or handle the error; durability-layer functions (landlord-wal, persistent.rs) additionally must fsync every durable write before returning",
    ),
    (
        "plan-purity",
        "the plan/apply seam: cache/plan.rs must stay pure (no `&mut self`); cache/apply.rs must not re-derive plan decisions (find_satisfying/pick_merge_candidate/plan calls)",
    ),
    (
        "no-raw-clock",
        "landlord-core/-sim/-store/-obs/-cli non-test code must not read std::time directly (Instant/SystemTime): go through the landlord-obs Clock abstraction so runs stay deterministic",
    ),
    (
        "no-unsafe",
        "`unsafe` is banned in workspace code: encapsulate the need behind a safe API or justify it with an allow",
    ),
    (
        "bad-allow",
        "audit allow-directives must name known rules, carry a `-- reason`, and actually suppress something",
    ),
];

/// The structural analyses (see [`crate::analyses`]) also accept allow
/// directives. They run in a separate pass, so the stale-allow check
/// here must leave their directives alone.
pub const ANALYSIS_RULES: &[&str] = &["lock-order", "atomic-ordering", "counter-overflow"];

/// True when `rule` is one of the audit's known rule or analysis names.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(name, _)| *name == rule) || ANALYSIS_RULES.contains(&rule)
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's stable name.
    pub rule: &'static str,
    /// Human-oriented explanation.
    pub message: String,
}

/// What part of the workspace a file belongs to, which decides the
/// rules that apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileKind {
    /// `crates/<name>/src/**` of a crate where panics are banned.
    StrictLib,
    /// `crates/<name>/src/**` of the remaining crates.
    Lib,
    /// Example, bench, or bin-only sources.
    Support,
    /// Integration tests (`tests/**`).
    IntegrationTest,
}

/// Crates whose library code falls under the `no-panic-path` rule.
pub const STRICT_CRATES: &[&str] = &[
    "landlord-core",
    "landlord-sim",
    "landlord-repo",
    "landlord-wal",
];

/// Run every applicable rule over one scanned file.
pub fn check_file(file: &str, kind: FileKind, model: &SourceModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used_allows: Vec<(usize, String)> = Vec::new();

    let mut emit =
        |line: usize, rule: &'static str, message: String, findings: &mut Vec<Finding>| {
            if model.is_allowed(line, rule) {
                used_allows.push((line, rule.to_string()));
                return;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: line + 1,
                rule,
                message,
            });
        };

    let lints_code = matches!(
        kind,
        FileKind::StrictLib | FileKind::Lib | FileKind::Support
    );

    // The plan/apply seam of the cache engine (R8). Paths are
    // repo-relative; fixture tests pass matching labels.
    let plan_side = file.ends_with("cache/plan.rs");
    let apply_side = file.ends_with("cache/apply.rs");

    // R9: no-raw-clock — the deterministic crates and the CLI must
    // route all time through landlord-obs's Clock. clock.rs is the one
    // sanctioned Instant wrapper (MonotonicClock) and is not scoped;
    // wall-clock timing lives in the benchmark (perfbench/) and the
    // criterion benches, outside these crates.
    let clock_scoped = [
        "landlord-core",
        "landlord-sim",
        "landlord-store",
        "landlord-obs",
        "landlord-cli",
    ]
    .iter()
    .any(|c| file.contains(&format!("{c}/src")))
        && !file.ends_with("landlord-obs/src/clock.rs");

    for (idx, info) in model.lines.iter().enumerate() {
        let code = info.code.as_str();

        // R8: plan-purity — planning is pure, applying never re-plans.
        if plan_side && !info.in_test && code.contains("&mut self") {
            emit(
                idx,
                "plan-purity",
                "`&mut self` receiver in cache/plan.rs: planning must be pure (`&self` only) \
                 so plan(spec) can never disturb the state it decides over"
                    .to_string(),
                &mut findings,
            );
        }
        if apply_side && !info.in_test {
            for needle in ["find_satisfying", "pick_merge_candidate", "plan_over"] {
                if contains_token(code, needle) {
                    emit(
                        idx,
                        "plan-purity",
                        format!(
                            "`{needle}` called from cache/apply.rs: apply must execute the \
                             decision carried by the Plan, never re-derive it"
                        ),
                        &mut findings,
                    );
                }
            }
            if code.contains(".plan(") {
                emit(
                    idx,
                    "plan-purity",
                    "`.plan(..)` called from cache/apply.rs: apply consumes a Plan computed \
                     by the caller on settled state, it never plans itself"
                        .to_string(),
                    &mut findings,
                );
            }
        }

        // R9: no-raw-clock — simulation results must be a pure
        // function of the request stream, and a raw Instant::now() or
        // SystemTime::now() silently breaks that.
        if clock_scoped && !info.in_test {
            for needle in ["Instant", "SystemTime"] {
                if contains_token(code, needle) {
                    emit(
                        idx,
                        "no-raw-clock",
                        format!(
                            "`{needle}` in deterministic simulation code: take a \
                             `landlord_obs::Clock` (LogicalClock / MonotonicClock) instead"
                        ),
                        &mut findings,
                    );
                }
            }
        }

        // R1: no-panic-path — strict crates' non-test library code.
        if kind == FileKind::StrictLib && !info.in_test {
            for (needle, what) in [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect(..)`"),
                ("panic!(", "`panic!`"),
                ("unreachable!(", "`unreachable!`"),
                ("todo!(", "`todo!`"),
                ("unimplemented!(", "`unimplemented!`"),
            ] {
                if code.contains(needle) {
                    emit(
                        idx,
                        "no-panic-path",
                        format!(
                            "{what} in library code: thread the failure through Result instead"
                        ),
                        &mut findings,
                    );
                }
            }
        }

        // R2: lossy-cast — non-test code of all workspace crates.
        if lints_code && !info.in_test {
            for target in ["u8", "u16", "u32", "usize", "i32"] {
                for (pos, source_expr) in lossy_cast_sources(code, target) {
                    let _ = pos;
                    if counter_tokens(&source_expr) && !widening_to_usize(target, &source_expr) {
                        emit(
                            idx,
                            "lossy-cast",
                            format!(
                                "byte/size counter narrowed with `as {target}` (source: `{}`): use `{target}::try_from` or widen the comparison",
                                source_expr.trim()
                            ),
                            &mut findings,
                        );
                    }
                }
            }
        }

        // R3: float-eq — non-test code of all workspace crates.
        if lints_code && !info.in_test {
            for op in ["==", "!="] {
                for (l, r) in comparison_operands(code, op) {
                    if is_floatish(&l) || is_floatish(&r) {
                        emit(
                            idx,
                            "float-eq",
                            format!(
                                "float compared with `{op}` (`{} {op} {}`): use an epsilon or integer milli-units",
                                l.trim(),
                                r.trim()
                            ),
                            &mut findings,
                        );
                    }
                }
            }
        }

        // R4: unseeded-rng — all non-test code (benches included: runs
        // must be reproducible).
        if !info.in_test {
            for needle in ["thread_rng", "from_entropy", "rand::random", "OsRng"] {
                if contains_token(code, needle) {
                    emit(
                        idx,
                        "unseeded-rng",
                        format!("`{needle}` constructs an unseeded RNG: accept an explicit u64 seed instead"),
                        &mut findings,
                    );
                }
            }
        }

        // R5: guard-across-closure — non-test code, any crate.
        if lints_code && !info.in_test && (code.contains(".lock(") || code.contains(".try_lock(")) {
            // Inspect the whole statement (up to 8 continuation lines)
            // for a closure literal.
            let mut stmt = String::new();
            for look in model.lines.iter().skip(idx).take(8) {
                stmt.push_str(&look.code);
                stmt.push('\n');
                if look.code.trim_end().ends_with(';') || look.code.trim_end().ends_with('{') {
                    break;
                }
            }
            if contains_closure(&stmt) {
                emit(
                    idx,
                    "guard-across-closure",
                    "lock guard and closure share a statement: bind the guard in its own statement first".to_string(),
                    &mut findings,
                );
            }
        }

        // R7: no-silent-io-drop — non-test code of all workspace
        // crates. Discarding an io::Result hides exactly the failures
        // the crash-recovery machinery exists to surface.
        if lints_code && !info.in_test {
            if code.contains("let _ =") || code.contains("let _ :") || code.contains("let _:") {
                // Statement window: this line plus up to 3 continuations.
                let mut stmt = String::new();
                for look in model.lines.iter().skip(idx).take(4) {
                    stmt.push_str(&look.code);
                    stmt.push('\n');
                    if look.code.trim_end().ends_with(';') {
                        break;
                    }
                }
                if io_result_tokens(&stmt) {
                    emit(
                        idx,
                        "no-silent-io-drop",
                        "`let _ =` discards an io::Result: propagate with `?` or handle the error"
                            .to_string(),
                        &mut findings,
                    );
                }
            } else if code.contains(".ok();") {
                // Gather the whole statement, looking back over up to
                // 3 continuation lines.
                let mut start = idx;
                for back in (idx.saturating_sub(3)..idx).rev() {
                    let prev = model.lines[back].code.trim_end();
                    if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') {
                        break;
                    }
                    start = back;
                }
                let stmt: String = model.lines[start..=idx]
                    .iter()
                    .map(|l| l.code.as_str())
                    .collect::<Vec<_>>()
                    .join("\n");
                // `let x = …ok();` / `y = …ok();` bind the value: used.
                let value_used =
                    stmt.contains("let ") || stmt.contains("return ") || stmt.contains("= ");
                if !value_used && io_result_tokens(&stmt) {
                    emit(
                        idx,
                        "no-silent-io-drop",
                        "bare `.ok();` swallows an io::Result: propagate with `?` or handle the error"
                            .to_string(),
                        &mut findings,
                    );
                }
            }
        }

        // R10: no-unsafe — everywhere, tests included. The workspace
        // is pure-safe Rust by policy; a genuinely unavoidable unsafe
        // block must carry an allow with its safety argument.
        if contains_token(code, "unsafe") {
            emit(
                idx,
                "no-unsafe",
                "`unsafe` in workspace code: rework behind a safe API, or justify with \
                 `// audit: allow(no-unsafe) -- <safety argument>`"
                    .to_string(),
                &mut findings,
            );
        }

        // Allow hygiene: unknown rule names and missing reasons.
        if info.malformed_allow {
            findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                rule: "bad-allow",
                message: "malformed allow: use `// audit: allow(<rule>) -- reason`".to_string(),
            });
        }
        for rule in &info.allows {
            if !is_known_rule(rule) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "bad-allow",
                    message: format!("allow names unknown rule `{rule}`"),
                });
            }
        }
    }

    // R7 (durability half): fsync-before-ack. In the write-ahead-log
    // layer and the persistent cache, returning Ok from a function
    // that wrote or renamed durable bytes is an acknowledgement — and
    // an acknowledgement without an fsync is a promise the next power
    // cut can revoke. Every such function must sync (sync_all /
    // sync_data / fsync_dir) somewhere in its body.
    let durability_path = file.contains("landlord-wal/src") || file.ends_with("persistent.rs");
    if durability_path {
        for span in &model.fns {
            if span.is_unit_test || span.in_test_region {
                continue;
            }
            let body: String = model.lines[span.start_line..=span.end_line]
                .iter()
                .map(|l| l.code.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            let writes_durably = ["write_all(", "rename(", ".set_len("]
                .iter()
                .any(|t| body.contains(t));
            let syncs = ["sync_all", "sync_data", "fsync_dir", "fsync("]
                .iter()
                .any(|t| body.contains(t));
            if writes_durably && !syncs {
                emit(
                    span.start_line,
                    "no-silent-io-drop",
                    format!(
                        "`{}` writes durable bytes (write_all/rename/set_len) but never fsyncs \
                         (sync_all/sync_data/fsync_dir): an unsynced write must not be acknowledged",
                        span.name
                    ),
                    &mut findings,
                );
            }
        }
    }

    // R6: test-invariants — every #[test] body, anywhere.
    for span in &model.fns {
        if !span.is_unit_test {
            continue;
        }
        let body: String = model.lines[span.start_line..=span.end_line]
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let touches_cache = ["ImageCache", "cache(", "cache."]
            .iter()
            .any(|n| body.contains(n));
        let mutates = [
            ".request(",
            ".restore(",
            ".evict",
            ".merge_into(",
            ".split_image(",
        ]
        .iter()
        .any(|n| body.contains(n));
        if touches_cache && mutates && !body.contains("check_invariants") {
            emit(
                span.start_line,
                "test-invariants",
                format!(
                    "#[test] `{}` mutates an ImageCache but never calls check_invariants()",
                    span.name
                ),
                &mut findings,
            );
        }
    }

    // Allow hygiene: an allow that suppressed nothing is stale.
    // Analysis allows are exercised by the analysis passes, which this
    // per-file pass cannot see — they are exempt from staleness.
    for (idx, info) in model.lines.iter().enumerate() {
        for rule in &info.allows {
            if !is_known_rule(rule) || ANALYSIS_RULES.contains(&rule.as_str()) {
                continue;
            }
            let used = used_allows
                .iter()
                .any(|(l, r)| r == rule && (*l == idx || *l == idx + 1));
            if !used {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "bad-allow",
                    message: format!("allow(`{rule}`) suppresses nothing here: remove it"),
                });
            }
        }
    }

    findings
}

/// Find `<expr> as <target>` casts on a blanked code line and return
/// the textual source expression for each.
fn lossy_cast_sources(code: &str, target: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let needle = format!(" as {target}");
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(&needle) {
        let pos = from + rel;
        from = pos + needle.len();
        // The target type must end at a word boundary (` as u32` must
        // not match inside ` as u32x4`-style text).
        let after = pos + needle.len();
        if after < bytes.len() {
            let c = bytes[after] as char;
            if c.is_alphanumeric() || c == '_' {
                continue;
            }
        }
        out.push((pos, preceding_expr(code, pos)));
    }
    out
}

/// Extract the expression text immediately before byte offset `end`
/// (scanning back over identifiers, field access, calls, and indexes).
fn preceding_expr(code: &str, end: usize) -> String {
    let chars: Vec<char> = code[..end].chars().collect();
    let mut i = chars.len();
    let mut depth = 0i32;
    while i > 0 {
        let c = chars[i - 1];
        match c {
            ')' | ']' => depth += 1,
            '(' | '[' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' => {}
            ' ' if depth > 0 => {}
            '*' | '+' | '-' | '/' if depth > 0 => {}
            _ => {
                if depth == 0 {
                    break;
                }
            }
        }
        i -= 1;
    }
    chars[i..].iter().collect()
}

/// A cast to `usize` whose source expression explicitly names a
/// narrower unsigned type (`u32::from_le_bytes(..) as usize`) widens
/// on every supported target and is safe.
fn widening_to_usize(target: &str, expr: &str) -> bool {
    target == "usize" && ident_tokens(expr).any(|t| matches!(t.as_str(), "u8" | "u16" | "u32"))
}

/// Does the cast source look like a byte/size/count value?
fn counter_tokens(expr: &str) -> bool {
    // Widening helper results are never lossy regardless of name.
    for safe in [
        "count_ones()",
        "count_zeros()",
        "leading_zeros()",
        "trailing_zeros()",
    ] {
        if expr.trim_end().ends_with(safe) {
            return false;
        }
    }
    ident_tokens(expr).any(|tok| {
        matches!(
            tok.as_str(),
            "bytes" | "size" | "len" | "count" | "capacity"
        )
    })
}

/// Split an expression into identifier sub-tokens (`spec_bytes` yields
/// `spec` and `bytes`).
fn ident_tokens(expr: &str) -> impl Iterator<Item = String> + '_ {
    expr.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .flat_map(|word| word.split('_'))
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
}

/// Find `lhs <op> rhs` comparisons and return both operand texts.
fn comparison_operands(code: &str, op: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(op) {
        let pos = from + rel;
        from = pos + op.len();
        // Reject `<=`, `>=`, `=>`, `===`-ish neighbours.
        let before = pos.checked_sub(1).map(|p| bytes[p] as char);
        let after = bytes.get(pos + op.len()).map(|&b| b as char);
        if matches!(before, Some('=') | Some('<') | Some('>') | Some('!')) {
            continue;
        }
        if matches!(after, Some('=') | Some('>')) {
            continue;
        }
        let lhs = preceding_operand(code, pos);
        let rhs = following_operand(code, pos + op.len());
        out.push((lhs, rhs));
    }
    out
}

fn preceding_operand(code: &str, end: usize) -> String {
    let chars: Vec<char> = code[..end].chars().collect();
    let mut i = chars.len();
    let mut depth = 0i32;
    while i > 0 {
        let c = chars[i - 1];
        match c {
            ')' | ']' => depth += 1,
            '(' | '[' | '{' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ',' | ';' | '&' | '|' if depth == 0 => break,
            _ => {}
        }
        i -= 1;
    }
    chars[i..].iter().collect::<String>().trim().to_string()
}

fn following_operand(code: &str, start: usize) -> String {
    let chars: Vec<char> = code[start..].chars().collect();
    let mut i = 0;
    let mut depth = 0i32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' | '}' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ',' | ';' | '&' | '|' if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    chars[..i].iter().collect::<String>().trim().to_string()
}

/// Identifier fragments that mark a value as float-like in this
/// codebase (Jaccard distances, efficiencies, ratios...).
const FLOAT_NAMES: &[&str] = &[
    "jaccard",
    "distance",
    "efficiency",
    "alpha",
    "ratio",
    "pct",
    "density",
    "overhead",
    "factor",
];

/// Integer-scaled renditions of the above (safe to compare exactly).
const INT_SCALED_SUFFIXES: &[&str] = &["milli", "bp", "permille"];

fn is_floatish(operand: &str) -> bool {
    // `1.5`, `0.`, `2f64` style literals.
    let bytes = operand.as_bytes();
    for (i, w) in bytes.windows(2).enumerate() {
        if w[0] == b'.' && w[1].is_ascii_digit() && i > 0 && bytes[i - 1].is_ascii_digit() {
            return true;
        }
    }
    if operand.contains("f64") || operand.contains("f32") {
        return true;
    }
    let toks: Vec<String> = ident_tokens(operand).collect();
    if toks
        .iter()
        .any(|t| INT_SCALED_SUFFIXES.contains(&t.as_str()))
    {
        return false;
    }
    toks.iter().any(|t| FLOAT_NAMES.contains(&t.as_str()))
}

/// Tokens that mark a statement as producing an `io::Result` (or
/// `serde_json::Result`) in this codebase. Deliberately excludes the
/// `write!`/`writeln!` macros: on Strings those return `fmt::Result`,
/// whose discard is idiomatic.
fn io_result_tokens(stmt: &str) -> bool {
    [
        "fs::",
        "File::",
        "remove_file",
        "remove_dir",
        "create_dir",
        "rename(",
        "hard_link",
        "sync_all",
        "sync_data",
        "set_len",
        "write_all",
        "flush(",
        "to_writer",
        "save_state",
    ]
    .iter()
    .any(|t| stmt.contains(t))
}

fn contains_token(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let pos = from + rel;
        from = pos + needle.len();
        let before_ok = pos == 0 || {
            let c = code.as_bytes()[pos - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let end = pos + needle.len();
        let after_ok = end >= code.len() || {
            let c = code.as_bytes()[end] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Does the statement text contain a closure literal (`|args| ...`)?
fn contains_closure(stmt: &str) -> bool {
    let chars: Vec<char> = stmt.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '|' {
            continue;
        }
        // `||` as an operator (logical or) has operands on both sides;
        // a closure `|` follows `(`, `,`, `=`, or start-of-statement.
        let mut j = i;
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        let prev = if j == 0 { None } else { Some(chars[j - 1]) };
        let opens_closure = matches!(prev, None | Some('(') | Some(',') | Some('=') | Some('{'));
        if !opens_closure {
            continue;
        }
        // Must look like a parameter list: next non-space is ident-ish,
        // `_`, `&`, `(`, or an immediate `|` (zero-arg closure).
        let mut k = i + 1;
        while k < chars.len() && chars[k] == ' ' {
            k += 1;
        }
        let next = chars.get(k);
        if matches!(next, Some(c) if c.is_alphabetic() || matches!(c, '_' | '&' | '(' | '|')) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(kind: FileKind, src: &str) -> Vec<Finding> {
        check_file("fixture.rs", kind, &crate::scan::scan(src))
    }

    #[test]
    fn closure_detection() {
        assert!(contains_closure("m.lock().apply(|x| x + 1);"));
        assert!(contains_closure("let g = map(|_| 0);"));
        assert!(!contains_closure("if a || b { }"));
        assert!(!contains_closure("self.inner.lock().request(spec);"));
    }

    #[test]
    fn preceding_expr_extraction() {
        let line = "self.emit(CacheEvent::Split { image: id, pieces: pieces.len() as u32 });";
        let pos = line.find(" as u32").expect("cast present");
        assert_eq!(preceding_expr(line, pos), "pieces.len()");
    }

    #[test]
    fn counter_token_matching() {
        assert!(counter_tokens("pieces.len()"));
        assert!(counter_tokens("self.stats.image_count"));
        assert!(counter_tokens("total_bytes"));
        assert!(!counter_tokens("w.count_ones()"));
        assert!(!counter_tokens("rng.gen_range(0..self.universe)"));
    }

    #[test]
    fn floatish_operands() {
        assert!(is_floatish("0.5"));
        assert!(is_floatish("jaccard_distance(a, b)"));
        assert!(is_floatish("self.cache_efficiency_pct()"));
        assert!(!is_floatish("distance_milli"));
        assert!(!is_floatish("rev.0"));
        assert!(!is_floatish("a.0"));
    }

    #[test]
    fn strict_lib_flags_unwrap_but_lib_does_not() {
        let src = "fn f() {\n    let x = m.get(&k).unwrap();\n}\n";
        assert_eq!(check(FileKind::StrictLib, src).len(), 1);
        assert_eq!(check(FileKind::Lib, src).len(), 0);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "fn f() {\n    let x = m.get(&k).unwrap_or_else(Default::default);\n}\n";
        assert!(check(FileKind::StrictLib, src).is_empty());
    }

    fn check_at(file: &str, src: &str) -> Vec<Finding> {
        check_file(file, FileKind::StrictLib, &crate::scan::scan(src))
    }

    #[test]
    fn plan_purity_flags_mut_self_in_plan_module() {
        let src = "impl ImageCache {\n    pub fn plan(&mut self, spec: &Spec) -> Plan {\n        todo(self)\n    }\n}\n";
        let f = check_at("crates/landlord-core/src/cache/plan.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "plan-purity").count(), 1);
        // The same text anywhere else is fine.
        assert!(check_at("crates/landlord-core/src/cache/mod.rs", src)
            .iter()
            .all(|f| f.rule != "plan-purity"));
    }

    #[test]
    fn plan_purity_flags_replanning_in_apply_module() {
        let src = "impl ImageCache {\n    fn apply_inner(&mut self, spec: &Spec) {\n        let p = self.plan(spec);\n        let s = self.find_satisfying(spec);\n    }\n}\n";
        let f = check_at("crates/landlord-core/src/cache/apply.rs", src);
        assert_eq!(
            f.iter().filter(|f| f.rule == "plan-purity").count(),
            2,
            "both the .plan( call and find_satisfying must be flagged: {f:?}"
        );
    }

    #[test]
    fn plan_purity_ignores_tests_and_clean_apply_code() {
        // Executing a carried decision is exactly what apply is for.
        let src = "impl ImageCache {\n    fn apply_inner(&mut self, spec: &Spec, plan: &Plan) {\n        match plan.op { _ => {} }\n    }\n}\n";
        assert!(check_at("crates/landlord-core/src/cache/apply.rs", src).is_empty());
        // Test code inside the module may re-plan freely.
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let p = cache.plan(&spec);\n        let _ = p;\n    }\n}\n";
        assert!(
            check_at("crates/landlord-core/src/cache/apply.rs", test_src)
                .iter()
                .all(|f| f.rule != "plan-purity")
        );
    }

    #[test]
    fn plan_purity_is_a_known_rule() {
        assert!(is_known_rule("plan-purity"));
    }

    #[test]
    fn no_raw_clock_flags_instant_and_systemtime_in_scoped_crates() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let f = check_at("crates/landlord-core/src/cache/mod.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-clock").count(), 1);
        let src = "fn f() {\n    let t = SystemTime::now();\n}\n";
        let f = check_at("crates/landlord-sim/src/simulator.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-clock").count(), 1);
    }

    #[test]
    fn no_raw_clock_ignores_unscoped_crates_tests_and_clock_types() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        // landlord-obs implements MonotonicClock over Instant; the
        // criterion benches time wall-clock deliberately. Neither is
        // scoped.
        assert!(check_at("crates/landlord-obs/src/clock.rs", src)
            .iter()
            .all(|f| f.rule != "no-raw-clock"));
        assert!(check_at("crates/bench/benches/micro_ops.rs", src)
            .iter()
            .all(|f| f.rule != "no-raw-clock"));
        // Test code inside a scoped crate may time itself freely.
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let t = std::time::Instant::now();\n        let _ = t;\n    }\n}\n";
        assert!(check_at("crates/landlord-sim/src/simulator.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-raw-clock"));
        // Word-boundary matching: the Clock wrappers never trip it.
        let ok_src = "fn f(c: &MonotonicClock) {\n    let t = c.now_ticks();\n}\n";
        assert!(check_at("crates/landlord-sim/src/simulator.rs", ok_src)
            .iter()
            .all(|f| f.rule != "no-raw-clock"));
        assert!(is_known_rule("no-raw-clock"));
    }

    #[test]
    fn no_raw_clock_scopes_cli_non_test_code() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let f = check_at("crates/landlord-cli/src/commands.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-raw-clock").count(), 1);
        // A CLI test may time itself (the WAL-vs-rewrite floor does).
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let t = std::time::Instant::now();\n        let _ = t;\n    }\n}\n";
        assert!(check_at("crates/landlord-cli/src/commands.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-raw-clock"));
    }
}
