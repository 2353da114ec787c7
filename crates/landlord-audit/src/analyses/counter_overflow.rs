//! Counter-overflow analysis: merge/fold paths must not use unchecked
//! arithmetic on counter and byte-size values.
//!
//! Single-request arithmetic on u64 counters is effectively safe, but
//! merge/fold paths multiply exposure: a cluster-wide stats fold adds
//! every shard's byte totals, and the registry's saturation algebra
//! exists precisely because `+` on two near-max u64s wraps in release
//! builds. The rule: inside any non-test function whose name contains
//! `merge`/`fold`/`accumulate`/`combine`/`absorb`, a raw `+`/`+=`/`*`
//! whose operands look like counters (`bytes`, `count`, `samples`, …)
//! is a finding — use `saturating_*` or `checked_*`. Float-flavoured
//! operands (`pct`, `ratio`, …) are exempt: saturation is an integer
//! concept.

use crate::rules::Finding;
use crate::scan::FileModel;
use crate::tokens::TokenKind;

/// Function-name fragments that mark a merge/fold path.
const MERGE_NAMES: &[&str] = &["merge", "fold", "accumulate", "combine", "absorb"];

/// Identifier fragments that mark a counter or byte-size value.
const COUNTER_WORDS: &[&str] = &[
    "bytes",
    "size",
    "len",
    "count",
    "total",
    "sum",
    "samples",
    "requests",
    "hits",
    "misses",
    "merges",
    "inserts",
    "deletes",
    "splits",
    "written",
    "clamped",
    "capacity",
    "seq",
    "evictions",
    "restores",
];

/// Identifier fragments that mark a float-flavoured value (exempt).
const FLOAT_WORDS: &[&str] = &[
    "pct",
    "ratio",
    "milli",
    "secs",
    "f64",
    "f32",
    "frac",
    "avg",
    "mean",
    "rate",
    "alpha",
    "jaccard",
    "efficiency",
    "distance",
    "density",
];

fn word_match(ident: &str, words: &[&str]) -> bool {
    let low = ident.to_lowercase();
    words.iter().any(|w| low.contains(w))
}

/// Run the analysis over the modelled workspace.
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !file.analyzed() {
            continue;
        }
        let toks = &file.structure.tokens;
        for f in &file.structure.fns {
            if f.in_test || !word_match(&f.name, MERGE_NAMES) {
                continue;
            }
            for i in f.body.0..=f.body.1.min(toks.len() - 1) {
                let t = &toks[i];
                let op = match t.text.as_str() {
                    "+" | "+=" | "*" if t.kind == TokenKind::Punct => t.text.clone(),
                    _ => continue,
                };
                // Binary uses only: `*x` deref / `&*` reborrow have no
                // value-like token on the left.
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let binary = prev.is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident | TokenKind::Number)
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if !binary {
                    continue;
                }
                // Gather nearby operand identifiers (a small window on
                // each side, stopped at statement boundaries).
                let idents = operand_idents(toks, i, f.body);
                if idents.iter().any(|id| word_match(id, FLOAT_WORDS)) {
                    continue;
                }
                let counter = idents.iter().find(|id| word_match(id, COUNTER_WORDS));
                let Some(name) = counter else { continue };
                findings.push(Finding::at(
                    file,
                    t.line,
                    "counter-overflow",
                    format!(
                        "unchecked `{op}` on counter-like value `{name}` in merge/fold path \
                         `{}`: use saturating_* or checked_* arithmetic",
                        f.qualified
                    ),
                ));
            }
        }
    }
    findings
}

/// Identifier tokens around the operator at `op`, scanning up to 8
/// tokens in each direction and stopping at statement boundaries.
fn operand_idents(toks: &[crate::tokens::Token], op: usize, body: (usize, usize)) -> Vec<String> {
    let stop = |t: &crate::tokens::Token| {
        t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(",")
    };
    let mut out = Vec::new();
    let mut i = op;
    for _ in 0..8 {
        let Some(p) = i.checked_sub(1) else { break };
        if p < body.0 {
            break;
        }
        let t = &toks[p];
        if stop(t) || t.is_punct("=") {
            break;
        }
        if t.kind == TokenKind::Ident {
            out.push(t.text.clone());
        }
        i = p;
    }
    for i in op..op + 8 {
        let Some(t) = toks.get(i + 1) else { break };
        if i + 1 > body.1 || stop(t) {
            break;
        }
        if t.kind == TokenKind::Ident {
            out.push(t.text.clone());
        }
    }
    out
}
