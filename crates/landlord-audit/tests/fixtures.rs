//! Fixture tests: every rule must (a) fire on a seeded violation,
//! (b) honour an `// audit: allow(..)` directive, and (c) exempt test
//! code. The final test audits the real workspace and demands zero
//! findings, so the lint gate in CI can never silently rot.

use landlord_audit::rules::FileKind;
use landlord_audit::{audit_source, find_workspace_root};

fn findings(kind: FileKind, src: &str) -> Vec<&'static str> {
    audit_source("fixture.rs", kind, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---- R1: no-panic-path -------------------------------------------------

#[test]
fn no_panic_path_fires_on_expect() {
    let src = "fn f() {\n    let v = map.get(&k).expect(\"missing\");\n}\n";
    assert_eq!(findings(FileKind::StrictLib, src), vec!["no-panic-path"]);
}

#[test]
fn no_panic_path_honours_allow() {
    let src = "fn f() {\n    // audit: allow(no-panic-path) -- fixture exercises the allowlist\n    let v = map.get(&k).expect(\"missing\");\n}\n";
    assert!(findings(FileKind::StrictLib, src).is_empty());
}

#[test]
fn no_panic_path_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        map.get(&k).expect(\"missing\");\n    }\n}\n";
    assert!(findings(FileKind::StrictLib, src).is_empty());
}

#[test]
fn no_panic_path_only_applies_to_strict_crates() {
    let src = "fn f() {\n    let v = map.get(&k).unwrap();\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
    assert!(findings(FileKind::Support, src).is_empty());
}

// ---- R2: lossy-cast ----------------------------------------------------

#[test]
fn lossy_cast_fires_on_narrowed_counter() {
    let src = "fn f(total_bytes: u64) -> u32 {\n    total_bytes as u32\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["lossy-cast"]);
}

#[test]
fn lossy_cast_honours_allow() {
    let src = "fn f(total_bytes: u64) -> u32 {\n    total_bytes as u32 // audit: allow(lossy-cast) -- fixture exercises the allowlist\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn lossy_cast_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = total_bytes as u32;\n    }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn lossy_cast_permits_widening_to_usize() {
    let src = "fn f(b: [u8; 4]) -> usize {\n    u32::from_le_bytes(b) as usize\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

// ---- R3: float-eq ------------------------------------------------------

#[test]
fn float_eq_fires_on_exact_comparison() {
    let src = "fn f(a: f64) -> bool {\n    jaccard_distance(a) == 0.5\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["float-eq"]);
}

#[test]
fn float_eq_honours_allow() {
    let src = "fn f(a: f64) -> bool {\n    // audit: allow(float-eq) -- fixture exercises the allowlist\n    jaccard_distance(a) == 0.5\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn float_eq_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert!(jaccard_distance(a) == 0.5);\n    }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn float_eq_permits_integer_scaled_values() {
    let src = "fn f(distance_milli: u64) -> bool {\n    distance_milli == 500\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

// ---- R4: unseeded-rng --------------------------------------------------

#[test]
fn unseeded_rng_fires_on_thread_rng() {
    let src = "fn f() {\n    let mut rng = thread_rng();\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["unseeded-rng"]);
}

#[test]
fn unseeded_rng_honours_allow() {
    let src = "fn f() {\n    let mut rng = thread_rng(); // audit: allow(unseeded-rng) -- fixture exercises the allowlist\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn unseeded_rng_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut rng = thread_rng();\n    }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn unseeded_rng_applies_to_benches_too() {
    // Benchmarks must be reproducible as well.
    let src = "fn bench() {\n    let mut rng = StdRng::from_entropy();\n}\n";
    assert_eq!(findings(FileKind::Support, src), vec!["unseeded-rng"]);
}

// ---- R5: guard-across-closure ------------------------------------------

#[test]
fn guard_across_closure_fires() {
    let src = "fn f(&self) {\n    let n = self.inner.lock().apply(|c| c.len());\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["guard-across-closure"]);
}

#[test]
fn guard_across_closure_honours_allow() {
    let src = "fn f(&self) {\n    // audit: allow(guard-across-closure) -- fixture exercises the allowlist\n    let n = self.inner.lock().apply(|c| c.len());\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn guard_across_closure_flags_with_cache() {
    // No function name is sanctioned, `with_cache` included.
    let src = "fn with_cache(&self) {\n    let n = self.inner.lock().apply(|c| c.len());\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["guard-across-closure"]);
}

#[test]
fn guard_across_closure_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let n = m.lock().apply(|c| c.len());\n    }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

// ---- R6: test-invariants -----------------------------------------------

#[test]
fn test_invariants_fires_on_unchecked_mutation() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut c = ImageCache::new(cfg, sizes);\n        c.request(&spec);\n    }\n}\n";
    assert_eq!(findings(FileKind::StrictLib, src), vec!["test-invariants"]);
}

#[test]
fn test_invariants_satisfied_by_check_call() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut c = ImageCache::new(cfg, sizes);\n        c.request(&spec);\n        c.check_invariants();\n    }\n}\n";
    assert!(findings(FileKind::StrictLib, src).is_empty());
}

#[test]
fn test_invariants_honours_allow() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    // audit: allow(test-invariants) -- fixture exercises the allowlist\n    fn t() {\n        let mut c = ImageCache::new(cfg, sizes);\n        c.request(&spec);\n    }\n}\n";
    assert!(findings(FileKind::StrictLib, src).is_empty());
}

#[test]
fn test_invariants_ignores_read_only_tests() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let c = ImageCache::new(cfg, sizes);\n        assert!(c.is_empty());\n    }\n}\n";
    assert!(findings(FileKind::StrictLib, src).is_empty());
}

// ---- R7: no-silent-io-drop ---------------------------------------------

#[test]
fn silent_io_drop_fires_on_let_underscore() {
    let src = "fn f(p: &Path) {\n    let _ = std::fs::remove_file(p);\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["no-silent-io-drop"]);
}

#[test]
fn silent_io_drop_fires_on_bare_ok() {
    let src = "fn f(a: &Path, b: &Path) {\n    std::fs::rename(a, b).ok();\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["no-silent-io-drop"]);
}

#[test]
fn silent_io_drop_fires_across_continuation_lines() {
    let src = "fn f(a: &Path, b: &Path) {\n    std::fs::rename(a, b)\n        .ok();\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["no-silent-io-drop"]);
}

#[test]
fn silent_io_drop_honours_allow() {
    let src = "fn f(p: &Path) {\n    // audit: allow(no-silent-io-drop) -- fixture exercises the allowlist\n    let _ = std::fs::remove_file(p);\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn silent_io_drop_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::fs::remove_dir_all(&dir).ok();\n    }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn silent_io_drop_ignores_non_io_discards() {
    // `let _ =` on plain values and fmt writes to Strings are idiomatic.
    let src = "fn f(out: &mut String, pos: usize) {\n    let _ = pos;\n    let _ = writeln!(out, \"header\");\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn silent_io_drop_permits_bound_ok_values() {
    let src = "fn f(p: &Path) -> bool {\n    let removed = std::fs::remove_file(p).ok();\n    removed.is_some()\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

// ---- R7 (durability half): fsync-before-ack ----------------------------

fn findings_in(file: &str, src: &str) -> Vec<&'static str> {
    audit_source(file, FileKind::Lib, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn fsync_before_ack_fires_on_unsynced_wal_append() {
    let src = "impl Wal {\n    pub fn append(&mut self, frame: &[u8]) -> io::Result<u64> {\n        self.file.write_all(frame)?;\n        Ok(self.bump())\n    }\n}\n";
    assert_eq!(
        findings_in("crates/landlord-wal/src/log.rs", src),
        vec!["no-silent-io-drop"]
    );
}

#[test]
fn fsync_before_ack_fires_on_unsynced_checkpoint_rename() {
    let src = "fn write_state(dir: &Path, bytes: &[u8]) -> io::Result<()> {\n    std::fs::write(dir.join(\"tmp\"), bytes)?;\n    std::fs::rename(dir.join(\"tmp\"), dir.join(\"state.json\"))\n}\n";
    assert_eq!(
        findings_in("crates/landlord-cli/src/persistent.rs", src),
        vec!["no-silent-io-drop"]
    );
}

#[test]
fn fsync_before_ack_accepts_synced_writes() {
    let src = "impl Wal {\n    pub fn append(&mut self, frame: &[u8]) -> io::Result<u64> {\n        self.file.write_all(frame)?;\n        self.file.sync_data()?;\n        Ok(self.bump())\n    }\n}\n";
    assert!(findings_in("crates/landlord-wal/src/log.rs", src).is_empty());
    // A dir-fsync helper call counts: the sync happens, just not via a
    // direct method on the written file.
    let src = "fn move_in(dir: &Path, a: &Path, b: &Path) -> io::Result<()> {\n    std::fs::rename(a, b)?;\n    fsync_dir(dir)\n}\n";
    assert!(findings_in("crates/landlord-cli/src/persistent.rs", src).is_empty());
}

#[test]
fn fsync_before_ack_is_scoped_to_the_durability_layer() {
    // The same unsynced write outside landlord-wal / persistent.rs is
    // ordinary IO — other rules may care, this one must not.
    let src = "fn jot(p: &Path, line: &[u8]) -> io::Result<()> {\n    let mut f = std::fs::File::create(p)?;\n    f.write_all(line)\n}\n";
    assert!(findings_in("crates/landlord-core/src/cache/mod.rs", src).is_empty());
}

#[test]
fn fsync_before_ack_exempts_test_code_and_honours_allow() {
    let src = "#[cfg(test)]\nmod tests {\n    fn scribble(p: &Path, b: &[u8]) -> io::Result<()> {\n        std::fs::File::create(p)?.write_all(b)\n    }\n}\n";
    assert!(findings_in("crates/landlord-wal/src/log.rs", src).is_empty());
    let src = "// audit: allow(no-silent-io-drop) -- fixture exercises the allowlist\nfn jot(f: &mut File, b: &[u8]) -> io::Result<()> {\n    f.write_all(b)\n}\n";
    assert!(findings_in("crates/landlord-wal/src/log.rs", src).is_empty());
}

// ---- R10: no-unsafe ----------------------------------------------------

#[test]
fn no_unsafe_fires_on_unsafe_block() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["no-unsafe"]);
}

#[test]
fn no_unsafe_fires_even_in_test_code() {
    // Unlike the other rules, unsafety in tests is still unsafety:
    // a UB-laden test poisons every suite run that includes it.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v = unsafe { std::mem::zeroed::<u64>() };\n        assert_eq!(v, 0);\n    }\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["no-unsafe"]);
}

#[test]
fn no_unsafe_honours_allow_with_safety_argument() {
    let src = "fn f(p: *const u8) -> u8 {\n    // audit: allow(no-unsafe) -- caller guarantees p outlives the call\n    unsafe { *p }\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

#[test]
fn no_unsafe_ignores_mentions_in_comments_and_strings() {
    let src =
        "fn f() -> &'static str {\n    // The word unsafe in prose is fine.\n    \"unsafe\"\n}\n";
    assert!(findings(FileKind::Lib, src).is_empty());
}

// ---- Allow hygiene -----------------------------------------------------

#[test]
fn allow_with_unknown_rule_is_flagged() {
    let src = "fn f() {\n    // audit: allow(no-such-rule) -- bogus\n    let x = 1;\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["bad-allow"]);
}

#[test]
fn allow_without_reason_is_flagged() {
    let src = "fn f() {\n    // audit: allow(no-panic-path)\n    let v = map.get(&k).expect(\"missing\");\n}\n";
    let rules = findings(FileKind::StrictLib, src);
    assert!(rules.contains(&"bad-allow"), "{rules:?}");
}

#[test]
fn allow_that_suppresses_nothing_is_flagged() {
    let src = "fn f() {\n    // audit: allow(no-panic-path) -- stale\n    let x = 1;\n}\n";
    assert_eq!(findings(FileKind::Lib, src), vec!["bad-allow"]);
}

// ---- Meta: the real workspace is clean ---------------------------------

#[test]
fn real_workspace_has_zero_findings() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest).expect("workspace root above the audit crate");
    let report = landlord_audit::audit_workspace(&root).expect("workspace scan succeeds");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay audit-clean; run `cargo run -p landlord-audit`:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scan walked the whole tree");
}
