//! CLI entry point: `cargo run -p landlord-audit [-- --root <dir>]`.
//!
//! Every run makes every pass: the line rules and the three structural
//! analyses, over one model of each file. `--json` switches output to
//! a machine-readable report.

use landlord_audit::analyses::ANALYSES;
use landlord_audit::rules::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("landlord-audit: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--list-rules" => {
                for (name, what) in RULES.iter().chain(ANALYSES) {
                    println!("{name}: {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "landlord-audit: project-specific lint and analysis pass\n\n\
                     usage: landlord-audit [--root <workspace-dir>] [--json] [--list-rules]\n\n\
                     Runs every line rule and the lock-order, atomic-ordering and\n\
                     counter-overflow analyses in one pass (--list-rules lists them).\n\
                     Exits 0 when clean, 1 when findings exist, 2 on errors.\n\
                     Suppress a finding with `// audit: allow(<rule>) -- reason`\n\
                     on the offending line or the line above it."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("landlord-audit: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("landlord-audit: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match landlord_audit::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "landlord-audit: no workspace root (Cargo.toml + crates/) above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match landlord_audit::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("landlord-audit: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let status = if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if json {
        print!("{}", landlord_audit::json_report(&report));
        return status;
    }

    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    let passes: Vec<&str> = landlord_audit::passes().collect();
    if report.findings.is_empty() {
        println!(
            "landlord-audit: clean ({} files scanned; passes: {})",
            report.files_scanned,
            passes.join(", ")
        );
    } else {
        println!(
            "landlord-audit: {} finding(s) across {} scanned files (passes: {})",
            report.findings.len(),
            report.files_scanned,
            passes.join(", ")
        );
    }
    status
}
