//! Atomic-ordering analysis: every `Ordering::Relaxed` in non-test
//! library code must say *why* relaxed is sound.
//!
//! Relaxed is the right ordering for most of this workspace's atomics
//! (monotonic counters folded at quiescence, bloom-summary bits that
//! tolerate stale reads) — but only when someone has actually made that
//! argument. The convention: the site (or a comment within the two
//! lines above it) carries `// sync: <why relaxed is sound>`. Sites
//! without the annotation are findings; the fix is either writing the
//! justification or upgrading to `Acquire`/`Release`/`SeqCst`.

use crate::rules::Finding;
use crate::scan::FileModel;

/// How many lines above the site a `// sync:` note still covers it.
const NOTE_REACH: usize = 2;

/// Run the analysis over the modelled workspace.
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !file.analyzed() {
            continue;
        }
        let toks = &file.structure.tokens;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("Ordering")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("Relaxed")))
            {
                continue;
            }
            let line = toks[i].line;
            let info = match file.lines.get(line) {
                Some(info) => info,
                None => continue,
            };
            if info.in_test {
                continue;
            }
            let annotated = (line.saturating_sub(NOTE_REACH)..=line)
                .any(|l| file.lines.get(l).is_some_and(|li| li.sync_note));
            if annotated {
                continue;
            }
            findings.push(Finding::at(
                file,
                line,
                "atomic-ordering",
                "`Ordering::Relaxed` without a `// sync: <why relaxed is sound>` note: \
                 justify the relaxed ordering or upgrade it"
                    .to_string(),
            ));
        }
    }
    findings
}
