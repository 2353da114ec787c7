//! Lock-order analysis: build the workspace lock-acquisition graph and
//! report (a) any cycle — two code paths that take the same locks in
//! opposite orders can deadlock — and (b) any guard held across store
//! I/O, which turns a disk stall into a cluster-wide convoy.
//!
//! How a lock is named: an acquisition is a zero-argument method call
//! named `lock`/`try_lock`/`read`/`try_read`/`write`/`try_write`/
//! `upgradable_read` (zero-arg distinguishes `RwLock::read()` from
//! `io::Read::read(&mut buf)`). A `self`-rooted receiver inside an
//! `impl T` names the lock `T.field.path` — one node per *field*, so
//! `self.shards[i]` and `self.shards[j]` share a node and nesting them
//! is reported (parking_lot locks are not reentrant). A receiver rooted
//! in a local or parameter names a function-scoped instance
//! (`T::fn::var.path`): a distinct object, so merging `other`'s maps
//! into `self`'s never fabricates a self-cycle.
//!
//! How long a guard is held: a `let`-bound guard lives to the end of
//! its enclosing block (or an earlier `drop(g)`); a guard acquired in a
//! `for`/`if let`/`while` header lives to the end of that block
//! (matching Rust temporary-lifetime rules); a bare temporary lives to
//! the end of its statement.
//!
//! Condvar waits get their own treatment: `.wait(guard)` (and the
//! timeout/predicate variants) atomically releases exactly the guard
//! it is passed while parked, so it is neither an acquisition nor an
//! ordinary call. Waiting on your own guard is the legitimate
//! single-flight shape; parking while any *other* guard is held pins
//! that lock for an unbounded sleep and is reported, as is any call
//! that transitively reaches a wait while a guard is held.
//!
//! Propagation: calls that resolve to exactly one workspace function
//! (by name, preferring the caller's own impl for `self.` calls)
//! contribute that callee's transitive lock set, I/O, and condvar-wait
//! behaviour. Ambiguous or foreign calls contribute nothing — the
//! analysis under-approximates rather than invent false cycles.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::Finding;
use crate::scan::FileModel;
use crate::structure::{CallSite, FnInfo};
use crate::tokens::{Token, TokenKind};

/// Methods whose zero-argument call acquires a parking_lot guard.
const ACQUIRE_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "try_read",
    "write",
    "try_write",
    "upgradable_read",
];

/// Condvar-style blocking methods: the call atomically releases (and
/// on wake re-acquires) exactly the guard passed as its first argument.
const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "wait_timeout",
];

/// Method names that perform store/file I/O when called on anything.
const IO_METHODS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
    "sync_data",
    "set_len",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "persist",
];

/// Is this call site store/file I/O? Methods by name; path calls when
/// the path goes through `fs` or `File`.
fn is_io_call(site: &CallSite) -> bool {
    if site.is_method {
        return IO_METHODS.contains(&site.callee.as_str());
    }
    if IO_METHODS.contains(&site.callee.as_str()) {
        return true;
    }
    site.path
        .iter()
        .any(|seg| seg == "fs" || seg == "File" || seg == "OpenOptions")
}

/// Method names too generic to resolve by global uniqueness alone —
/// calling `.len()` on a Vec must not resolve to some workspace type's
/// `len` just because only one type defines it.
const COMMON_METHODS: &[&str] = &[
    "len", "is_empty", "clone", "iter", "insert", "get", "push", "pop", "remove", "contains",
    "next", "new", "default", "drain", "extend", "entry", "keys", "values", "sort", "fmt", "eq",
    "cmp", "hash", "drop", "write", "read", "lock", "get_mut", "iter_mut", "clear", "take",
];

/// One guard acquisition inside a function.
struct Acquisition {
    /// Lock node name.
    id: String,
    /// Token index of the acquiring method ident.
    token: usize,
    /// Last token index at which the guard is still held.
    end: usize,
    /// 0-based line of the acquisition.
    line: usize,
    /// Name the guard is `let`-bound to, when it is. A condvar wait on
    /// this exact name releases the guard while parked; a wait on any
    /// other name sleeps with this guard still locked.
    bound: Option<String>,
}

/// Index of one function in the modelled file set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FnRef {
    file: usize,
    func: usize,
}

/// Run the analysis over the modelled workspace.
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Name index over every analyzable, non-test function.
    let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
    let mut fns: Vec<FnRef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.analyzed() {
            continue;
        }
        for (gi, f) in file.structure.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let r = FnRef { file: fi, func: gi };
            by_name.entry(f.name.as_str()).or_default().push(r);
            fns.push(r);
        }
    }
    let info = |r: FnRef| -> &FnInfo { &files[r.file].structure.fns[r.func] };

    // Per-function direct facts: acquisitions, condvar waits, resolved
    // callees, and direct I/O call sites. Wait sites are claimed before
    // name resolution — `self.done.wait(state)` is a blocking primitive
    // on a condvar field, not a call into some workspace `wait` method
    // that happens to share the name.
    let mut acqs: BTreeMap<FnRef, Vec<Acquisition>> = BTreeMap::new();
    let mut waits: BTreeMap<FnRef, Vec<(String, String, usize, usize)>> = BTreeMap::new();
    let mut callees: BTreeMap<FnRef, Vec<(FnRef, usize, usize)>> = BTreeMap::new();
    let mut direct_io: BTreeMap<FnRef, Vec<(String, usize, usize)>> = BTreeMap::new();
    for &r in &fns {
        let file = &files[r.file];
        let f = info(r);
        let toks = &file.structure.tokens;
        let mut my_acqs = Vec::new();
        let mut my_waits = Vec::new();
        let mut my_callees = Vec::new();
        let mut my_io = Vec::new();
        for site in &f.calls {
            if is_acquisition(site, toks) {
                let id = lock_id(f, site);
                let (end, bound) = hold_span(toks, f, site.token);
                my_acqs.push(Acquisition {
                    id,
                    token: site.token,
                    end,
                    line: site.line,
                    bound,
                });
                continue;
            }
            if let Some(arg) = condvar_wait_arg(site, toks) {
                my_waits.push((arg, wait_label(site), site.token, site.line));
                continue;
            }
            if is_io_call(site) {
                my_io.push((call_label(site), site.token, site.line));
                continue;
            }
            if let Some(target) = resolve(site, f, &by_name, &|r| info(r)) {
                my_callees.push((target, site.token, site.line));
            }
        }
        acqs.insert(r, my_acqs);
        waits.insert(r, my_waits);
        callees.insert(r, my_callees);
        direct_io.insert(r, my_io);
    }

    // Fixpoint: transitive lock set, transitive I/O, and transitive
    // condvar-wait behaviour per function.
    let mut lockset: BTreeMap<FnRef, BTreeSet<String>> = BTreeMap::new();
    let mut does_io: BTreeMap<FnRef, Option<String>> = BTreeMap::new();
    let mut does_wait: BTreeMap<FnRef, Option<String>> = BTreeMap::new();
    for &r in &fns {
        let locks: BTreeSet<String> = acqs[&r].iter().map(|a| a.id.clone()).collect();
        lockset.insert(r, locks);
        let io = direct_io[&r].first().map(|(label, _, _)| label.clone());
        does_io.insert(r, io);
        let wait = waits[&r].first().map(|(_, label, _, _)| label.clone());
        does_wait.insert(r, wait);
    }
    loop {
        let mut changed = false;
        for &r in &fns {
            for &(callee, _, _) in &callees[&r] {
                let add: Vec<String> = lockset[&callee]
                    .iter()
                    .filter(|l| !lockset[&r].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    lockset.get_mut(&r).expect("seeded").extend(add);
                    changed = true;
                }
            }
            if does_io[&r].is_none() {
                let via = callees[&r].iter().find_map(|&(c, _, _)| {
                    does_io[&c]
                        .as_ref()
                        .map(|io| format!("{} (via {})", io, info(c).qualified))
                });
                if via.is_some() {
                    does_io.insert(r, via);
                    changed = true;
                }
            }
            if does_wait[&r].is_none() {
                let via = callees[&r].iter().find_map(|&(c, _, _)| {
                    does_wait[&c]
                        .as_ref()
                        .map(|w| format!("{} (via {})", w, info(c).qualified))
                });
                if via.is_some() {
                    does_wait.insert(r, via);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Walk every guard's hold range: ordered lock pairs become graph
    // edges; I/O inside the range becomes a finding immediately.
    let mut edges: BTreeMap<(String, String), (String, usize, usize)> = BTreeMap::new();
    for &r in &fns {
        let file = &files[r.file];
        let f = info(r);
        for a in &acqs[&r] {
            // Later direct acquisitions while `a` is held.
            for b in &acqs[&r] {
                if b.token > a.token && b.token <= a.end && b.id != a.id {
                    edges.entry((a.id.clone(), b.id.clone())).or_insert((
                        file.path.clone(),
                        b.line,
                        r.file,
                    ));
                }
                if b.token > a.token && b.token <= a.end && b.id == a.id {
                    findings.push(Finding::at(
                        file,
                        b.line,
                        "lock-order",
                        format!(
                            "`{}` re-acquired in `{}` while a guard on it may still be held: \
                             parking_lot locks are not reentrant",
                            a.id, f.qualified
                        ),
                    ));
                }
            }
            // Calls made while `a` is held: propagate callee locks/I/O.
            for &(callee, tok, line) in &callees[&r] {
                if tok <= a.token || tok > a.end {
                    continue;
                }
                for l in &lockset[&callee] {
                    if *l != a.id {
                        edges.entry((a.id.clone(), l.clone())).or_insert((
                            file.path.clone(),
                            line,
                            r.file,
                        ));
                    } else {
                        findings.push(Finding::at(
                            file,
                            line,
                            "lock-order",
                            format!(
                                "call to `{}` may re-acquire `{}` already held in `{}`",
                                info(callee).qualified,
                                a.id,
                                f.qualified
                            ),
                        ));
                    }
                }
                if let Some(io) = &does_io[&callee] {
                    findings.push(Finding::at(
                        file,
                        line,
                        "lock-order",
                        format!(
                            "guard on `{}` held across store I/O: `{}` reaches {}",
                            a.id,
                            info(callee).qualified,
                            io
                        ),
                    ));
                }
                if let Some(w) = &does_wait[&callee] {
                    findings.push(Finding::at(
                        file,
                        line,
                        "lock-order",
                        format!(
                            "guard on `{}` held across a condvar wait in `{}`: `{}` reaches {}",
                            a.id,
                            f.qualified,
                            info(callee).qualified,
                            w
                        ),
                    ));
                }
            }
            // Condvar waits while `a` is held. The wait atomically
            // releases exactly the guard it is passed; parking with any
            // other guard locked pins that lock for the whole sleep.
            for (arg, label, tok, line) in &waits[&r] {
                if *tok > a.token && *tok <= a.end && a.bound.as_deref() != Some(arg.as_str()) {
                    findings.push(Finding::at(
                        file,
                        *line,
                        "lock-order",
                        format!(
                            "condvar wait `{}({})` in `{}` parks while a guard on `{}` is \
                             still held: a wait releases only its own guard",
                            label, arg, f.qualified, a.id
                        ),
                    ));
                }
            }
            // Direct I/O while `a` is held.
            for (label, tok, line) in &direct_io[&r] {
                if *tok > a.token && *tok <= a.end {
                    findings.push(Finding::at(
                        file,
                        *line,
                        "lock-order",
                        format!(
                            "guard on `{}` held across store I/O (`{}`) in `{}`: \
                             finish the I/O outside the critical section",
                            a.id, label, f.qualified
                        ),
                    ));
                }
            }
        }
    }

    // Cycle detection over the lock graph.
    for cycle in find_cycles(&edges) {
        let mut desc = Vec::new();
        for w in cycle.windows(2) {
            let (file, line, _) = &edges[&(w[0].clone(), w[1].clone())];
            desc.push(format!("`{}` -> `{}` ({}:{})", w[0], w[1], file, line + 1));
        }
        let (file_path, line, file_idx) = edges[&(cycle[0].clone(), cycle[1].clone())].clone();
        let file = &files[file_idx];
        debug_assert_eq!(file.path, file_path);
        findings.push(Finding::at(
            file,
            line,
            "lock-order",
            format!("lock-order cycle: {}", desc.join(", ")),
        ));
    }

    findings
}

/// Zero-argument acquisition method call on a real receiver.
fn is_acquisition(site: &CallSite, toks: &[Token]) -> bool {
    site.is_method
        && !site.receiver.is_empty()
        && ACQUIRE_METHODS.contains(&site.callee.as_str())
        && toks.get(site.token + 2).is_some_and(|t| t.is_punct(")"))
}

/// Stable node name for an acquired lock (see module docs).
fn lock_id(f: &FnInfo, site: &CallSite) -> String {
    let chain = &site.receiver;
    if chain.first().is_some_and(|r| r == "self") {
        if let Some(ty) = &f.self_type {
            let mut parts = vec![ty.clone()];
            parts.extend(chain[1..].iter().cloned());
            return parts.join(".");
        }
    }
    format!("{}::{}", f.qualified, chain.join("."))
}

/// Is this a condvar wait? Returns the name of the guard the wait
/// releases while parked — its first argument, through an optional
/// `&`/`&mut` borrow (parking_lot's `Condvar::wait` takes the guard by
/// `&mut`; the std-style shim consumes it by value).
fn condvar_wait_arg(site: &CallSite, toks: &[Token]) -> Option<String> {
    if !site.is_method
        || site.receiver.is_empty()
        || !WAIT_METHODS.contains(&site.callee.as_str())
        || !toks.get(site.token + 1).is_some_and(|t| t.is_punct("("))
    {
        return None;
    }
    let mut j = site.token + 2;
    if toks.get(j).is_some_and(|t| t.is_punct("&")) {
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j).filter(|t| t.kind == TokenKind::Ident)?;
    let next = toks.get(j + 1)?;
    if next.is_punct(")") || next.is_punct(",") {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Human label for a condvar wait site (`self.done.wait`).
fn wait_label(site: &CallSite) -> String {
    format!("{}.{}", site.receiver.join("."), site.callee)
}

/// Human label for a call site.
fn call_label(site: &CallSite) -> String {
    if site.path.is_empty() {
        site.callee.clone()
    } else {
        format!("{}::{}", site.path.join("::"), site.callee)
    }
}

/// Resolve a call site to exactly one workspace function, or None.
fn resolve<'a>(
    site: &CallSite,
    caller: &FnInfo,
    by_name: &BTreeMap<&str, Vec<FnRef>>,
    info: &dyn Fn(FnRef) -> &'a FnInfo,
) -> Option<FnRef> {
    let candidates = by_name.get(site.callee.as_str())?;
    if site.is_method {
        let methods: Vec<FnRef> = candidates
            .iter()
            .copied()
            .filter(|&r| info(r).self_type.is_some())
            .collect();
        // A direct `self.foo()` (receiver exactly `self`, not a chain
        // through fields, whose tail is some other type) resolves
        // within the caller's own impl type.
        if site.receiver.len() == 1 && site.receiver[0] == "self" {
            if let Some(ty) = &caller.self_type {
                let own: Vec<FnRef> = methods
                    .iter()
                    .copied()
                    .filter(|&r| info(r).self_type.as_ref() == Some(ty))
                    .collect();
                if let [one] = own[..] {
                    return Some(one);
                }
            }
        }
        // Otherwise only a workspace-unique, non-generic name resolves.
        if COMMON_METHODS.contains(&site.callee.as_str()) {
            return None;
        }
        if let [one] = methods[..] {
            return Some(one);
        }
        return None;
    }
    if let Some(ty) = site.path.last() {
        // `Type::func(..)`: match the self type.
        let typed: Vec<FnRef> = candidates
            .iter()
            .copied()
            .filter(|&r| info(r).self_type.as_deref() == Some(ty.as_str()))
            .collect();
        if let [one] = typed[..] {
            return Some(one);
        }
        return None;
    }
    // Plain call: free functions only.
    let free: Vec<FnRef> = candidates
        .iter()
        .copied()
        .filter(|&r| info(r).self_type.is_none())
        .collect();
    if let [one] = free[..] {
        return Some(one);
    }
    None
}

/// Last token index at which the guard acquired at `acq` (the method
/// ident of `.lock()` etc.) is still held, plus the name the guard is
/// `let`-bound to when it is. See module docs for the scoping rules.
fn hold_span(toks: &[Token], f: &FnInfo, acq: usize) -> (usize, Option<String>) {
    let (body_open, body_close) = f.body;
    // The acquisition is a zero-arg call (`.lock ( )` at acq..acq+2).
    // A `.` right after means the guard is consumed as a temporary
    // (`self.m.lock().len()`), so a surrounding `let` binds the
    // *derived value*, not the guard.
    let consumed = toks.get(acq + 3).is_some_and(|t| t.is_punct("."));

    // Statement start: walk back to the nearest `;`, `{`, or `}`.
    let mut start = acq;
    while start > body_open {
        let t = &toks[start - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        start -= 1;
    }
    // `let g = ...` binding? (`if let` / `while let` are scrutinee
    // headers, not bindings — their temporaries live for the block,
    // which the header-block case below covers.)
    let mut bound: Option<&str> = None;
    let mut j = start;
    while !consumed && j < acq {
        if toks[j].is_ident("let") {
            let header =
                j > body_open && (toks[j - 1].is_ident("if") || toks[j - 1].is_ident("while"));
            if !header {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(name) = toks.get(k).filter(|t| t.kind == TokenKind::Ident) {
                    bound = Some(name.text.as_str());
                }
            }
            break;
        }
        j += 1;
    }

    // Statement end: first `;`, `{`, or `}` at group depth 0 after the
    // acquisition's argument list.
    let mut depth = 0i32;
    let mut stmt_end = body_close;
    let mut header_block = None;
    let mut k = acq + 1;
    while k <= body_close {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(";") || t.is_punct("}") {
                stmt_end = k;
                break;
            }
            if t.is_punct("{") {
                if bound.is_some() {
                    // `let g = match m.lock() { .. };`: the brace is an
                    // expression block inside the binding statement,
                    // not a header — skip it and keep looking for the
                    // terminating `;`.
                    k = matching_close(toks, k, body_close) + 1;
                    continue;
                }
                // `for x in m.lock().iter() {` / `if let Some(v) =
                // m.lock().get(k) {`-style header: the temporary lives
                // for the whole block — and for the `else` chain too
                // (scrutinee temporaries outlive the first arm).
                let mut close = matching_close(toks, k, body_close);
                while toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                    let mut m = close + 2;
                    while m <= body_close && !toks[m].is_punct("{") {
                        m += 1;
                    }
                    if m > body_close {
                        break;
                    }
                    close = matching_close(toks, m, body_close);
                }
                header_block = Some(close);
                break;
            }
        }
        k += 1;
    }

    let bound_name = bound.map(str::to_string);
    if let Some(name) = bound {
        // Held to the end of the enclosing block, or an earlier drop.
        let block_end = enclosing_block_end(toks, body_open, body_close, acq);
        let mut k = stmt_end;
        while k < block_end {
            if toks[k].is_ident("drop")
                && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
                && toks.get(k + 3).is_some_and(|t| t.is_punct(")"))
            {
                return (k, bound_name);
            }
            k += 1;
        }
        (block_end, bound_name)
    } else if let Some(close) = header_block {
        (close, None)
    } else {
        (stmt_end, None)
    }
}

/// Matching `}` for the `{` at `open`, bounded by `limit`.
fn matching_close(toks: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(limit + 1).skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    limit
}

/// Close index of the innermost block containing token `at`.
fn enclosing_block_end(toks: &[Token], body_open: usize, body_close: usize, at: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let stop = at.min(body_close);
    for (i, t) in toks.iter().enumerate().take(stop + 1).skip(body_open) {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            stack.pop();
        }
    }
    match stack.last() {
        Some(&open) => matching_close(toks, open, body_close),
        None => body_close,
    }
}

/// Enumerate elementary cycles in the lock graph, smallest-first and
/// deduplicated by node set. Each returned path is closed
/// (`[a, b, a]`). The graph is tiny (tens of nodes), so a DFS from
/// each node is plenty.
fn find_cycles(edges: &BTreeMap<(String, String), (String, usize, usize)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut out: Vec<Vec<String>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &root in &nodes {
        // DFS looking for a path back to root; only the lexically
        // smallest node in a cycle reports it, deduplicating rotations.
        let mut stack: Vec<(Vec<&str>, &str)> = vec![(vec![root], root)];
        while let Some((path, at)) = stack.pop() {
            for &next in adj.get(at).into_iter().flatten() {
                if next == root {
                    if path.iter().any(|n| *n < root) {
                        continue;
                    }
                    let mut set: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    set.sort();
                    if seen_sets.insert(set) {
                        let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                        cyc.push(root.to_string());
                        out.push(cyc);
                    }
                } else if !path.contains(&next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((p, next));
                }
            }
        }
    }
    out.sort();
    out
}
