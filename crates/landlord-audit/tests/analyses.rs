//! Meta-tests for the structural analyses: known-bad fixtures must
//! produce exactly the pinned findings, known-good fixtures none, and
//! the real workspace must be clean under every analysis.

use landlord_audit::rules::{FileKind, Finding};
use landlord_audit::{audit_sources, audit_workspace, find_workspace_root, json_report, Report};
use std::path::Path;

/// The one-pass findings whose rule is among `rules`.
fn analyze(sources: &[(&str, FileKind, &str)], rules: &[&str]) -> Vec<Finding> {
    only(audit_sources(sources), rules)
}

fn only(findings: Vec<Finding>, rules: &[&str]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| rules.contains(&f.rule))
        .collect()
}

fn lib(src: &str) -> [(&str, FileKind, &str); 1] {
    [("crates/fix/src/lib.rs", FileKind::Lib, src)]
}

// ---------------------------------------------------------------- lock-order

#[test]
fn fixture_workspace_two_lock_inversion_detected() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lockwork");
    let report = audit_workspace(&root).expect("fixture tree readable");
    let findings = only(report.findings, &["lock-order"]);
    let pinned: Vec<(&str, usize, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(
        pinned,
        vec![
            ("crates/condwait/src/lib.rs", 32, "lock-order"),
            ("crates/condwait/src/lib.rs", 39, "lock-order"),
            ("crates/inversion/src/lib.rs", 14, "lock-order"),
            ("crates/iohold/src/lib.rs", 15, "lock-order"),
        ],
        "exactly the condvar parks, the inversion cycle, and the \
         guard-across-I/O: {findings:#?}"
    );
    let direct_wait = &findings[0];
    assert_eq!(
        direct_wait.message,
        "condvar wait `self.cell.ready.wait(state)` in `Registry::blocked_wait` parks \
         while a guard on `Registry.index` is still held: a wait releases only its own guard"
    );
    let wait_via_call = &findings[1];
    assert_eq!(
        wait_via_call.message,
        "guard on `Registry.index` held across a condvar wait in `Registry::blocked_call`: \
         `Cell::wait_ready` reaches self.ready.wait"
    );
    let cycle = &findings[2];
    assert_eq!(
        cycle.message,
        "lock-order cycle: `Pair.a` -> `Pair.b` (crates/inversion/src/lib.rs:14), \
         `Pair.b` -> `Pair.a` (crates/inversion/src/lib.rs:20)"
    );
    let held = &findings[3];
    assert!(
        held.message
            .contains("`Logger.entries` held across store I/O (`std::fs::write`)"),
        "unexpected message: {}",
        held.message
    );
}

#[test]
fn consistent_order_with_drop_release_is_clean() {
    let src = "impl Pair {\n\
        \x20   pub fn ok(&self) -> u64 {\n\
        \x20       let ga = self.a.lock();\n\
        \x20       drop(ga);\n\
        \x20       let gb = self.b.lock();\n\
        \x20       *gb\n\
        \x20   }\n\
        \x20   pub fn rev(&self) -> u64 {\n\
        \x20       let gb = self.b.lock();\n\
        \x20       let ga = self.a.lock();\n\
        \x20       *ga + *gb\n\
        \x20   }\n\
        }\n";
    assert!(
        analyze(&lib(src), &["lock-order"]).is_empty(),
        "drop(ga) releases the guard, so only the b->a order exists"
    );
}

#[test]
fn inversion_through_a_resolved_call_is_detected() {
    let src = "impl Hub {\n\
        \x20   fn tail(&self) -> u64 {\n\
        \x20       *self.b.lock()\n\
        \x20   }\n\
        \x20   pub fn head(&self) -> u64 {\n\
        \x20       let ga = self.a.lock();\n\
        \x20       *ga + self.tail()\n\
        \x20   }\n\
        \x20   pub fn rev(&self) -> u64 {\n\
        \x20       let gb = self.b.lock();\n\
        \x20       let ga = self.a.lock();\n\
        \x20       *ga + *gb\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1, "one cycle: {findings:#?}");
    assert!(findings[0].message.contains("lock-order cycle"));
    assert!(findings[0].message.contains("Hub.a"));
    assert!(findings[0].message.contains("Hub.b"));
}

#[test]
fn reacquiring_the_same_lock_is_detected() {
    let src = "impl S {\n\
        \x20   pub fn double(&self) -> u64 {\n\
        \x20       let g1 = self.m.lock();\n\
        \x20       let g2 = self.m.lock();\n\
        \x20       *g1 + *g2\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("re-acquired"));
    assert_eq!(findings[0].line, 4);
}

#[test]
fn read_then_write_upgrade_after_if_let_is_clean() {
    // The MetricsRegistry shape: the read guard is an `if let`
    // scrutinee temporary, dead before the write on the next
    // statement. Regression test for the false self-deadlock.
    let src = "impl R {\n\
        \x20   pub fn get_or_insert(&self) -> u64 {\n\
        \x20       if let Some(v) = self.map.read().get(&1) {\n\
        \x20           return *v;\n\
        \x20       }\n\
        \x20       *self.map.write().entry(1).or_default()\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["lock-order"]).is_empty());
}

#[test]
fn let_else_guard_temporary_is_clean() {
    // The DiskStore::remove shape: the write guard is consumed by
    // `.remove()` inside the let-else initializer and is dead before
    // the file I/O below. Regression test for the false
    // guard-across-I/O.
    let src = "impl D {\n\
        \x20   pub fn remove(&self) -> std::io::Result<u64> {\n\
        \x20       let Some(size) = self.index.write().remove(&1) else {\n\
        \x20           return Ok(0);\n\
        \x20       };\n\
        \x20       std::fs::remove_file(\"x\")?;\n\
        \x20       Ok(size)\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["lock-order"]).is_empty());
}

#[test]
fn let_bound_match_guard_dropped_before_io_is_clean() {
    // The poison-tolerant lock shape: the guard is bound through a
    // `match` expression and explicitly dropped before the file I/O.
    // The match braces are part of the binding statement, not a
    // header block — the drop must still be honoured.
    let src = "impl E {\n\
        \x20   pub fn export(&self) -> std::io::Result<()> {\n\
        \x20       let events = match self.buf.lock() {\n\
        \x20           Ok(events) => events,\n\
        \x20           Err(poisoned) => poisoned.into_inner(),\n\
        \x20       };\n\
        \x20       let body = events.join(\"n\");\n\
        \x20       drop(events);\n\
        \x20       std::fs::write(\"x\", body)\n\
        \x20   }\n\
        }\n";
    assert!(
        analyze(&lib(src), &["lock-order"]).is_empty(),
        "drop(events) releases the match-bound guard before the I/O"
    );
}

#[test]
fn let_bound_match_guard_held_across_io_is_flagged() {
    let src = "impl E {\n\
        \x20   pub fn export(&self) -> std::io::Result<()> {\n\
        \x20       let events = match self.buf.lock() {\n\
        \x20           Ok(events) => events,\n\
        \x20           Err(poisoned) => poisoned.into_inner(),\n\
        \x20       };\n\
        \x20       std::fs::write(\"x\", events.join(\"n\"))\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("held across store I/O"));
}

#[test]
fn io_read_write_with_arguments_are_not_acquisitions() {
    let src = "impl F {\n\
        \x20   pub fn copy(&mut self, buf: &mut [u8]) -> std::io::Result<()> {\n\
        \x20       self.input.read(buf)?;\n\
        \x20       self.output.write(buf)?;\n\
        \x20       Ok(())\n\
        \x20   }\n\
        }\n";
    assert!(
        analyze(&lib(src), &["lock-order"]).is_empty(),
        "io::Read/Write calls take arguments, RwLock acquisitions do not"
    );
}

#[test]
fn condvar_wait_on_its_own_guard_is_clean() {
    // The Flight::wait shape: a method named `wait` that locks its own
    // state and parks on its own condvar, releasing exactly that guard.
    // Regression test: `self.done.wait(state)` used to resolve to the
    // enclosing workspace `wait` method itself and report a bogus
    // self-re-acquire.
    let src = "impl Flight {\n\
        \x20   pub fn wait(&self) -> u64 {\n\
        \x20       let mut state = self.state.lock();\n\
        \x20       while *state == 0 {\n\
        \x20           state = self.done.wait(state);\n\
        \x20       }\n\
        \x20       *state\n\
        \x20   }\n\
        }\n";
    assert!(
        analyze(&lib(src), &["lock-order"]).is_empty(),
        "waiting with only your own guard is the legitimate single-flight shape"
    );
}

#[test]
fn condvar_wait_while_second_guard_held_is_flagged() {
    let src = "impl Hub {\n\
        \x20   pub fn drain(&self) -> u64 {\n\
        \x20       let map = self.map.lock();\n\
        \x20       let mut state = self.state.lock();\n\
        \x20       while *state == 0 {\n\
        \x20           state = self.done.wait(state);\n\
        \x20       }\n\
        \x20       *state + *map\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 6);
    assert!(findings[0]
        .message
        .contains("parks while a guard on `Hub.map`"));
    assert!(findings[0].message.contains("self.done.wait(state)"));
}

#[test]
fn by_ref_condvar_wait_is_recognised() {
    // parking_lot's real Condvar takes the guard by `&mut`.
    let src = "impl Hub {\n\
        \x20   pub fn drain(&self) -> u64 {\n\
        \x20       let map = self.map.lock();\n\
        \x20       let mut state = self.state.lock();\n\
        \x20       self.done.wait(&mut state);\n\
        \x20       *state + *map\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0]
        .message
        .contains("parks while a guard on `Hub.map`"));
}

#[test]
fn call_reaching_a_condvar_wait_while_guard_held_is_flagged() {
    let src = "impl Hub {\n\
        \x20   fn park(&self) -> u64 {\n\
        \x20       let mut state = self.state.lock();\n\
        \x20       state = self.done.wait(state);\n\
        \x20       *state\n\
        \x20   }\n\
        \x20   pub fn blocked(&self) -> u64 {\n\
        \x20       let map = self.map.lock();\n\
        \x20       self.park() + *map\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["lock-order"]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 9);
    assert!(
        findings[0]
            .message
            .contains("guard on `Hub.map` held across a condvar wait"),
        "{}",
        findings[0].message
    );
    assert!(findings[0]
        .message
        .contains("`Hub::park` reaches self.done.wait"));
}

#[test]
fn condvar_findings_respect_allows() {
    let src = "impl Hub {\n\
        \x20   pub fn drain(&self) -> u64 {\n\
        \x20       let map = self.map.lock();\n\
        \x20       let mut state = self.state.lock();\n\
        \x20       // audit: allow(lock-order) -- fixture exercising the escape hatch\n\
        \x20       state = self.done.wait(state);\n\
        \x20       *state + *map\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["lock-order"]).is_empty());
}

#[test]
fn lock_order_findings_respect_allows() {
    let src = "impl S {\n\
        \x20   pub fn double(&self) -> u64 {\n\
        \x20       let g1 = self.m.lock();\n\
        \x20       // audit: allow(lock-order) -- fixture exercising the escape hatch\n\
        \x20       let g2 = self.m.lock();\n\
        \x20       *g1 + *g2\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["lock-order"]).is_empty());
}

// ------------------------------------------------------------ atomic-ordering

#[test]
fn unannotated_relaxed_is_flagged() {
    let src = "impl C {\n\
        \x20   pub fn bump(&self) {\n\
        \x20       self.v.fetch_add(1, Ordering::Relaxed);\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["atomic-ordering"]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].rule, "atomic-ordering");
}

#[test]
fn sync_notes_cover_the_site_and_two_lines_above() {
    let trailing = "fn f(v: &AtomicU64) {\n\
        \x20   v.store(1, Ordering::Relaxed); // sync: test fixture counter\n\
        }\n";
    assert!(analyze(&lib(trailing), &["atomic-ordering"]).is_empty());

    let above = "fn f(v: &AtomicU64) {\n\
        \x20   // sync: monotone counter, no payload\n\
        \x20   v.store(1, Ordering::Relaxed);\n\
        }\n";
    assert!(analyze(&lib(above), &["atomic-ordering"]).is_empty());

    let two_above = "fn f(v: &AtomicU64) {\n\
        \x20   // sync: monotone counter, no payload,\n\
        \x20   // so relaxed is enough\n\
        \x20   v.store(1, Ordering::Relaxed);\n\
        }\n";
    assert!(analyze(&lib(two_above), &["atomic-ordering"]).is_empty());

    let three_above = "fn f(v: &AtomicU64) {\n\
        \x20   // sync: too far away\n\
        \x20   //\n\
        \x20   //\n\
        \x20   v.store(1, Ordering::Relaxed);\n\
        }\n";
    assert_eq!(analyze(&lib(three_above), &["atomic-ordering"]).len(), 1);
}

#[test]
fn relaxed_in_test_code_is_exempt() {
    let src = "#[cfg(test)]\n\
        mod tests {\n\
        \x20   #[test]\n\
        \x20   fn t() {\n\
        \x20       V.store(1, Ordering::Relaxed);\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["atomic-ordering"]).is_empty());
}

#[test]
fn relaxed_in_strings_and_comments_is_ignored() {
    let src = "fn f() -> &'static str {\n\
        \x20   // A doc mention of Ordering::Relaxed is not a use.\n\
        \x20   \"Ordering::Relaxed\"\n\
        }\n";
    assert!(analyze(&lib(src), &["atomic-ordering"]).is_empty());
}

#[test]
fn atomic_ordering_respects_allows() {
    let src = "fn f(v: &AtomicU64) {\n\
        \x20   // audit: allow(atomic-ordering) -- legacy site pending upgrade\n\
        \x20   v.store(1, Ordering::Relaxed);\n\
        }\n";
    assert!(analyze(&lib(src), &["atomic-ordering"]).is_empty());
}

// ------------------------------------------------------------ counter-overflow

#[test]
fn raw_addition_in_merge_path_is_flagged() {
    let src = "impl Stats {\n\
        \x20   pub fn merge(&mut self, other: &Stats) {\n\
        \x20       self.total_bytes += other.total_bytes;\n\
        \x20   }\n\
        }\n";
    let findings = analyze(&lib(src), &["counter-overflow"]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("total_bytes"));
    assert!(findings[0].message.contains("Stats::merge"));
}

#[test]
fn multiplication_of_counters_in_fold_path_is_flagged() {
    let src = "impl Stats {\n\
        \x20   pub fn fold_in(&mut self, n: u64) {\n\
        \x20       self.total = self.count * n;\n\
        \x20   }\n\
        }\n";
    assert_eq!(analyze(&lib(src), &["counter-overflow"]).len(), 1);
}

#[test]
fn saturating_arithmetic_in_merge_path_is_clean() {
    let src = "impl Stats {\n\
        \x20   pub fn merge(&mut self, other: &Stats) {\n\
        \x20       self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);\n\
        \x20       self.hits = self.hits.checked_add(other.hits).unwrap_or(u64::MAX);\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["counter-overflow"]).is_empty());
}

#[test]
fn raw_addition_outside_merge_paths_is_not_flagged() {
    let src = "impl Stats {\n\
        \x20   pub fn record(&mut self) {\n\
        \x20       self.total_bytes += 1;\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["counter-overflow"]).is_empty());
}

#[test]
fn float_accumulators_are_exempt() {
    let src = "impl Eff {\n\
        \x20   pub fn merge(&mut self, other: &Eff) {\n\
        \x20       self.sum_pct += other.sum_pct;\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["counter-overflow"]).is_empty());
}

#[test]
fn counter_overflow_respects_allows() {
    let src = "impl Stats {\n\
        \x20   pub fn merge(&mut self, other: &Stats) {\n\
        \x20       // audit: allow(counter-overflow) -- fixture exercising the escape hatch\n\
        \x20       self.total_bytes += other.total_bytes;\n\
        \x20   }\n\
        }\n";
    assert!(analyze(&lib(src), &["counter-overflow"]).is_empty());
}

// ------------------------------------------------------------------ one pass

#[test]
fn one_pass_reports_each_finding_once() {
    let pair = "impl Pair {\n\
        \x20   pub fn double(&self) -> u64 {\n\
        \x20       let g1 = self.m.lock();\n\
        \x20       let g2 = self.m.lock();\n\
        \x20       *g1 + *g2\n\
        \x20   }\n\
        }\n";
    let stats = "impl Stats {\n\
        \x20   pub fn merge(&mut self, other: &Stats) {\n\
        \x20       self.total_bytes += other.total_bytes;\n\
        \x20       self.seen.store(1, Ordering::Relaxed);\n\
        \x20       self.width = self.total_bytes as u32;\n\
        \x20   }\n\
        }\n";
    let findings = audit_sources(&[
        ("crates/a/src/lib.rs", FileKind::Lib, pair),
        ("crates/b/src/lib.rs", FileKind::Lib, stats),
    ]);
    let mut keys: Vec<(&str, usize, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("crates/a/src/lib.rs", 4, "lock-order"),
            ("crates/b/src/lib.rs", 3, "counter-overflow"),
            ("crates/b/src/lib.rs", 4, "atomic-ordering"),
            ("crates/b/src/lib.rs", 5, "lossy-cast"),
        ],
        "{findings:#?}"
    );
    keys.dedup();
    assert_eq!(keys.len(), findings.len(), "no finding reported twice");
}

// ------------------------------------------------------------------ workspace

#[test]
fn real_workspace_is_clean_under_all_analyses() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above the audit crate");
    let report = audit_workspace(&root).expect("workspace tree readable");
    assert!(
        report.files_scanned > 50,
        "sanity: the real tree was scanned ({} files)",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "the workspace must stay clean under every structural analysis — a lock cycle, \
         unannotated Relaxed, or raw merge arithmetic fails the suite:\n{:#?}",
        report.findings
    );
}

// ----------------------------------------------------------------------- json

#[test]
fn json_report_shape_and_escaping() {
    let report = Report {
        findings: vec![Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "lock-order",
            message: "guard on `A.b` held across \"io\"".to_string(),
        }],
        files_scanned: 42,
    };
    let json = json_report(&report);
    assert!(json.contains(
        "\"passes\": [\"rules\", \"lock-order\", \"atomic-ordering\", \"counter-overflow\"]"
    ));
    assert!(json.contains("\"files_scanned\": 42"));
    assert!(json.contains("\"finding_count\": 1"));
    assert!(json.contains("\"line\": 7"));
    assert!(json.contains("held across \\\"io\\\""));

    let empty = json_report(&Report {
        findings: Vec::new(),
        files_scanned: 42,
    });
    assert!(empty.contains("\"findings\": []"));
}
