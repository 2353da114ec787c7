//! landlord-audit: project-specific static analysis for the landlord
//! workspace.
//!
//! Run as `cargo run -p landlord-audit` from anywhere inside the
//! workspace. Exit status is 0 when the tree is clean, 1 when findings
//! exist, 2 on usage or I/O errors.
//!
//! See [`rules::RULES`] for the enforced rule set and DESIGN.md
//! ("Correctness tooling") for the rationale.

pub mod analyses;
pub mod rules;
pub mod scan;
pub mod structure;
pub mod tokens;

use rules::{is_known_rule, FileKind, Finding, STRICT_CRATES};
use scan::FileModel;
use std::path::{Path, PathBuf};

/// The passes every run makes: the line rules, then each analysis.
pub fn passes() -> impl Iterator<Item = &'static str> {
    std::iter::once("rules").chain(analyses::ANALYSES.iter().map(|(name, _)| *name))
}

/// Result of auditing a workspace tree.
#[derive(Debug)]
pub struct Report {
    /// Every violation, ordered by file, line, then rule.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Audit in-memory sources (label, kind, text), as the fixture tests
/// do: every rule and analysis, allow directives applied.
pub fn audit_sources(sources: &[(&str, FileKind, &str)]) -> Vec<Finding> {
    let files: Vec<FileModel> = sources
        .iter()
        .map(|(path, kind, src)| FileModel::build(path, *kind, src))
        .collect();
    audit(&files)
}

/// Audit the workspace rooted at `root` (the directory containing the
/// top-level `Cargo.toml` and `crates/`) with every rule and analysis.
pub fn audit_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for (path, kind) in collect_workspace_files(root)? {
        let source = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        files.push(FileModel::build(&rel, kind, &source));
    }
    Ok(Report {
        findings: audit(&files),
        files_scanned: files.len(),
    })
}

/// One pass over the modelled files: the line rules and the analyses
/// find violations, then allow directives drop the ones they cover and
/// allow hygiene flags unknown rules, missing reasons, and allows that
/// suppress nothing.
fn audit(files: &[FileModel]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = files.iter().flat_map(rules::check_file).collect();
    raw.extend(analyses::run(files));

    let mut used: Vec<(&str, usize, &str)> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let file = files.iter().find(|m| m.path == f.file);
        match file {
            Some(m) if m.is_allowed(f.line - 1, f.rule) => {
                used.push((m.path.as_str(), f.line - 1, f.rule));
            }
            _ => findings.push(f),
        }
    }
    for file in files {
        for (idx, info) in file.lines.iter().enumerate() {
            let bad_allow = |message: String| Finding::at(file, idx, "bad-allow", message);
            if info.malformed_allow {
                findings.push(bad_allow(
                    "malformed allow: use `// audit: allow(<rule>) -- reason`".to_string(),
                ));
            }
            for rule in &info.allows {
                let suppressed = used
                    .iter()
                    .any(|&(p, l, r)| p == file.path && r == rule && (l == idx || l == idx + 1));
                if !is_known_rule(rule) {
                    findings.push(bad_allow(format!("allow names unknown rule `{rule}`")));
                } else if !suppressed {
                    findings.push(bad_allow(format!(
                        "allow(`{rule}`) suppresses nothing here: remove it"
                    )));
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Enumerate every auditable source file under `root` with its kind.
fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<(PathBuf, FileKind)>> {
    let mut files: Vec<(PathBuf, FileKind)> = Vec::new();

    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let crate_dir = entry.path();
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        let src_kind = if STRICT_CRATES.contains(&crate_name.as_str()) {
            FileKind::StrictLib
        } else {
            FileKind::Lib
        };
        collect_rs(&crate_dir.join("src"), src_kind, &mut files)?;
        for support in ["examples", "benches"] {
            collect_rs(&crate_dir.join(support), FileKind::Support, &mut files)?;
        }
    }
    collect_rs(&root.join("tests"), FileKind::IntegrationTest, &mut files)?;

    files.sort();
    Ok(files)
}

/// Render a report as machine-readable JSON (hand-rolled so the audit
/// crate keeps zero dependencies).
pub fn json_report(report: &Report) -> String {
    let findings = &report.findings;
    let mut out = String::from("{\n  \"passes\": [");
    for (i, p) in passes().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(p));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&f.file),
            f.line,
            json_string(f.rule),
            json_string(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walk upward from `start` to the workspace root (identified by a
/// `Cargo.toml` next to a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

fn collect_rs(
    dir: &Path,
    kind: FileKind,
    out: &mut Vec<(PathBuf, FileKind)>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, kind, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path, kind));
        }
    }
    Ok(())
}
