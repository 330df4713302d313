//! The workspace call graph and the `fanout-purity` analysis.
//!
//! Roots are the argument lists (holding the worker closures) of every
//! `.spawn(` call outside test code and of every non-test call to a
//! function that itself contains such a spawn — a fan-out helper like
//! `junkyard_obs::fanout::map_slots` runs the caller's closure on its
//! workers, so without the second kind the helper would hide every
//! worker body. From each root the analysis walks
//! name-resolved call edges (see [`crate::symbols`]) to every reachable
//! function and checks each one for effects that would break the
//! bit-identical-at-any-worker-count contract: wall-clock reads,
//! ambient randomness, mutable statics, and iteration over hash-ordered
//! containers.
//!
//! The same reachability defines the **fan-out scope** used to re-scope
//! the declaration facet of `nondeterministic-iteration`: declaring a
//! `HashMap` only needs a justification when the declaration sits on a
//! fan-out path; serial bookkeeping between batches does not.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::parser::{matching_close, ParsedFile};
use crate::rules::{hash_bindings, hash_iteration_points, Finding, RuleId, AMBIENT_RNG_IDENTS};
use crate::source::SourceFile;
use crate::symbols::{Call, FnRef, Symbols};

/// The fan-out analysis results for the whole workspace.
#[derive(Debug, Default)]
pub struct Fanout {
    /// Per file: sorted significant-token ranges that are on a fan-out
    /// path (spawn-closure argument ranges and reachable fn bodies).
    pub scopes: Vec<Vec<(usize, usize)>>,
    /// `fanout-purity` findings.
    pub findings: Vec<Finding>,
}

impl Fanout {
    /// Whether significant-token index `i` of file `file_idx` is inside
    /// the fan-out scope.
    #[must_use]
    pub fn in_scope(&self, file_idx: usize, i: usize) -> bool {
        self.scopes
            .get(file_idx)
            .is_some_and(|ranges| ranges.iter().any(|&(lo, hi)| i >= lo && i < hi))
    }
}

/// One fan-out root: the argument list of a `.spawn(` call, or of a
/// call to a fn that spawns (its closure arguments run on the workers).
#[derive(Debug)]
struct Root {
    file: usize,
    /// Significant-token range of the call's argument list.
    range: (usize, usize),
    /// How findings name the root (`the \`thread::scope\` fan-out at
    /// path:line`).
    via: String,
}

/// Extracts every call expression in the sig range `[start, end)`,
/// with the sig index of the called name.
fn collect_calls(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, Call)> {
    let mut calls = Vec::new();
    let n = end.min(file.sig.len());
    for i in start..n {
        if file.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        if i + 1 >= n || file.sig_text(i + 1) != "(" {
            continue;
        }
        let name = file.sig_text(i).to_string();
        if i == 0 {
            calls.push((i, Call::Plain(name)));
            continue;
        }
        match file.sig_text(i - 1) {
            "fn" => {}
            "." => calls.push((i, Call::Method(name))),
            "::" => {
                if i >= 2 && file.sig_kind(i - 2) == TokenKind::Ident {
                    calls.push((i, Call::Qualified(file.sig_text(i - 2).to_string(), name)));
                } else {
                    calls.push((i, Call::Plain(name)));
                }
            }
            _ => calls.push((i, Call::Plain(name))),
        }
    }
    calls
}

/// Finds every non-test `.spawn(` call and the sig range of its
/// argument list (which contains the worker closure).
fn spawn_sites(files: &[SourceFile]) -> Vec<Root> {
    let mut sites = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let n = file.sig.len();
        for i in 0..n {
            if file.sig_text(i) != "spawn"
                || i == 0
                || file.sig_text(i - 1) != "."
                || i + 1 >= n
                || file.sig_text(i + 1) != "("
            {
                continue;
            }
            if file.sig_in_test(i) {
                continue;
            }
            sites.push(Root {
                file: file_idx,
                range: (i + 2, matching_close(file, i + 1)),
                via: format!(
                    "the `thread::scope` fan-out at {}:{}",
                    file.rel_path,
                    file.sig_line(i)
                ),
            });
        }
    }
    sites
}

/// Finds the argument lists of every non-test call to a fn whose body
/// holds one of the `spawns`.
fn helper_call_roots(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    symbols: &Symbols,
    spawns: &[Root],
) -> Vec<Root> {
    let helpers: BTreeSet<FnRef> = spawns
        .iter()
        .flat_map(|spawn| {
            let fns = parsed[spawn.file].fns.iter().enumerate();
            fns.filter(|(_, f)| {
                f.body
                    .is_some_and(|(lo, hi)| (lo..hi).contains(&spawn.range.0))
            })
            .map(|(fn_idx, _)| (spawn.file, fn_idx))
        })
        .collect();
    let mut roots = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        for (i, call) in collect_calls(file, 0, file.sig.len()) {
            if file.whole_file_test || file.sig_in_test(i) {
                continue;
            }
            if let Some(helper) = symbols
                .resolve(parsed, &call)
                .into_iter()
                .find(|r| helpers.contains(r))
            {
                roots.push(Root {
                    file: file_idx,
                    range: (i + 2, matching_close(file, i + 1)),
                    via: format!(
                        "the call to fan-out helper `{}` at {}:{}",
                        parsed[helper.0].fns[helper.1].qualified(),
                        file.rel_path,
                        file.sig_line(i)
                    ),
                });
            }
        }
    }
    roots
}

/// One impure effect found in a token range.
struct Impurity {
    line: u32,
    what: String,
}

/// Scans the sig range of `file` for effects that break replay
/// determinism. `clock_sanctioned` files (the bench crate and the obs
/// profiler module) are allowed wall clocks — that is their whole job.
///
/// The `recorder-in-fanout` facet is zero-tolerance everywhere: a
/// spawn-reachable range must never touch the serial-side
/// `TraceRecorder` (including its `.absorb(` merge). Workers record
/// through per-slot `TraceShard`s minted before the fan-out, so the
/// merged trace cannot depend on worker count or interleaving.
fn impurities(
    file: &SourceFile,
    start: usize,
    end: usize,
    clock_sanctioned: bool,
    iteration_points: &[(usize, String)],
) -> Vec<Impurity> {
    let mut out = Vec::new();
    let n = end.min(file.sig.len());
    for i in start..n {
        if file.sig_in_test(i) {
            continue;
        }
        let text = file.sig_text(i);
        if !clock_sanctioned && (text == "Instant" || text == "SystemTime") {
            out.push(Impurity {
                line: file.sig_line(i),
                what: format!("reads the wall clock (`{text}`)"),
            });
        }
        if text == "TraceRecorder" {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "touches the serial-side `TraceRecorder` (workers must record through per-slot `TraceShard`s)"
                    .to_string(),
            });
        }
        if text == "absorb" && i > 0 && file.sig_text(i - 1) == "." {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "merges trace shards (`.absorb(`) — a serial-side, slot-ordered operation"
                    .to_string(),
            });
        }
        if AMBIENT_RNG_IDENTS.contains(&text) {
            out.push(Impurity {
                line: file.sig_line(i),
                what: format!("draws ambient entropy (`{text}`)"),
            });
        }
        if text == "static" && i + 1 < n && file.sig_text(i + 1) == "mut" {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "touches a mutable static".to_string(),
            });
        }
    }
    for &(idx, ref desc) in iteration_points {
        if idx >= start && idx < n && !file.sig_in_test(idx) {
            out.push(Impurity {
                line: file.sig_line(idx),
                what: format!("observes hash iteration order ({desc})"),
            });
        }
    }
    out
}

/// Runs the whole fan-out analysis: spawn and helper-call roots →
/// reachability → purity findings + per-file scopes.
/// `clock_sanctioned[i]` marks files allowed to read wall clocks (the
/// bench crate and the obs profiler module).
#[must_use]
pub fn analyze(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    symbols: &Symbols,
    clock_sanctioned: &[bool],
) -> Fanout {
    let mut roots = spawn_sites(files);
    let helper_roots = helper_call_roots(files, parsed, symbols, &roots);
    roots.extend(helper_roots);
    // Per-file hash context, computed once.
    let per_file_bindings: Vec<Vec<String>> = files.iter().map(hash_bindings).collect();
    let per_file_points: Vec<Vec<(usize, String)>> = files
        .iter()
        .zip(&per_file_bindings)
        .map(|(f, b)| hash_iteration_points(f, b))
        .collect();

    // BFS over call edges from each root's closure.
    let mut visited: BTreeSet<FnRef> = BTreeSet::new();
    let mut origin: BTreeMap<FnRef, usize> = BTreeMap::new(); // root index
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for (root_idx, root) in roots.iter().enumerate() {
        let file = &files[root.file];
        for (_, call) in collect_calls(file, root.range.0, root.range.1) {
            for r in symbols.resolve(parsed, &call) {
                if files[r.0].whole_file_test || files[r.0].sig_in_test(parsed[r.0].fns[r.1].at) {
                    continue;
                }
                if visited.insert(r) {
                    origin.insert(r, root_idx);
                    queue.push_back(r);
                }
            }
        }
    }
    while let Some(r) = queue.pop_front() {
        let Some((start, end)) = parsed[r.0].fns[r.1].body else {
            continue;
        };
        let root_idx = origin[&r];
        for (_, call) in collect_calls(&files[r.0], start, end) {
            for next in symbols.resolve(parsed, &call) {
                if files[next.0].whole_file_test
                    || files[next.0].sig_in_test(parsed[next.0].fns[next.1].at)
                {
                    continue;
                }
                if visited.insert(next) {
                    origin.insert(next, root_idx);
                    queue.push_back(next);
                }
            }
        }
    }

    // Findings: direct impurities inside root closures...
    let mut findings = Vec::new();
    for root in &roots {
        let file = &files[root.file];
        for imp in impurities(
            file,
            root.range.0,
            root.range.1,
            clock_sanctioned[root.file],
            &per_file_points[root.file],
        ) {
            findings.push(Finding {
                rule: RuleId::FanoutPurity,
                path: file.rel_path.clone(),
                line: imp.line,
                message: format!("closure in {} {}", root.via, imp.what),
                suppressed: None,
            });
        }
    }
    // ... and impure reachable fns, one finding per fn.
    for &r in &visited {
        let f = &parsed[r.0].fns[r.1];
        let Some((start, end)) = f.body else { continue };
        let file = &files[r.0];
        let imps = impurities(
            file,
            start,
            end,
            clock_sanctioned[r.0],
            &per_file_points[r.0],
        );
        if imps.is_empty() {
            continue;
        }
        let mut whats: Vec<String> = imps.iter().map(|i| i.what.clone()).collect();
        whats.dedup();
        let shown = if whats.len() > 3 {
            format!("{}; and {} more", whats[..3].join("; "), whats.len() - 3)
        } else {
            whats.join("; ")
        };
        findings.push(Finding {
            rule: RuleId::FanoutPurity,
            path: file.rel_path.clone(),
            line: f.line,
            message: format!(
                "fn `{}` is reachable from {} and {shown}",
                f.qualified(),
                roots[origin[&r]].via
            ),
            suppressed: None,
        });
    }

    // Scopes: root ranges plus reachable fn bodies, per file.
    let mut scopes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
    for root in &roots {
        scopes[root.file].push(root.range);
    }
    for &r in &visited {
        if let Some(body) = parsed[r.0].fns[r.1].body {
            scopes[r.0].push(body);
        }
    }
    for ranges in &mut scopes {
        ranges.sort_unstable();
    }
    Fanout { scopes, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ParsedFile>, Fanout) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(path, src)| SourceFile::new((*path).to_string(), (*src).to_string(), false))
            .collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse).collect();
        let symbols = Symbols::build(&parsed);
        let clock_sanctioned = vec![false; files.len()];
        let fanout = analyze(&files, &parsed, &symbols, &clock_sanctioned);
        (files, parsed, fanout)
    }

    #[test]
    fn impure_fn_reachable_from_spawn_is_flagged_across_crates() {
        let (_, _, fanout) = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn run() {\n    std::thread::scope(|s| {\n        s.spawn(|| helper());\n    });\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {\n    let _t = std::time::Instant::now();\n}\n",
            ),
        ]);
        assert_eq!(fanout.findings.len(), 1);
        let f = &fanout.findings[0];
        assert_eq!(f.path, "crates/b/src/lib.rs");
        assert!(f.message.contains("wall clock"), "{}", f.message);
        assert!(f.message.contains("crates/a/src/lib.rs:3"), "{}", f.message);
    }

    #[test]
    fn cycles_terminate_and_still_flag() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| ping()); });\n}\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); let _ = rand::thread_rng(); }\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("ambient entropy"));
    }

    #[test]
    fn method_calls_resolve_to_impl_fns() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "struct W;\nimpl W {\n    fn step(&self) { static mut COUNTER: u64 = 0; let _ = COUNTER; }\n}\n\
             pub fn run(w: &W) {\n    std::thread::scope(|s| { s.spawn(|| w.step()); });\n}\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("mutable static"));
        assert!(fanout.findings[0].message.contains("W::step"));
    }

    #[test]
    fn later_methods_of_an_impl_are_reachable() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "struct W;\nimpl W {\n    fn first(&self) {}\n    fn second(&self) { let _t = std::time::Instant::now(); }\n}\n\
             pub fn run(w: &W) {\n    std::thread::scope(|s| { s.spawn(|| w.second()); });\n}\n",
        )]);
        assert_eq!(fanout.findings.len(), 1, "{:?}", fanout.findings);
        assert!(fanout.findings[0].message.contains("fn `W::second`"));
        assert_eq!(fanout.findings[0].line, 4);
    }

    #[test]
    fn closures_passed_to_a_spawning_helper_are_roots() {
        let (_, _, fanout) = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn map_all<F: Fn(u64) -> u64 + Sync>(n: u64, f: F) {\n    \
                 std::thread::scope(|s| { s.spawn(|| f(n)); });\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn drive() {\n    a::map_all(3, |x| x + stamp());\n    \
                 a::map_all(4, move |x| {\n        let _t = std::time::Instant::now();\n        x\n    });\n}\n\
                 fn stamp() -> u64 { std::time::SystemTime::now(); 0 }\n\
                 fn serial() -> u64 { stamp() }\n",
            ),
        ]);
        let lines: Vec<(&str, u32)> = fanout
            .findings
            .iter()
            .map(|f| (f.path.as_str(), f.line))
            .collect();
        // The inline closure's own clock read (line 4) and the helper it
        // calls (`stamp`, line 8) are both flagged.
        assert_eq!(
            lines,
            vec![("crates/b/src/lib.rs", 4), ("crates/b/src/lib.rs", 8)],
            "{:?}",
            fanout.findings
        );
        assert!(fanout.findings[0]
            .message
            .contains("closure in the call to fan-out helper `map_all` at crates/b/src/lib.rs:3"));
        assert!(fanout.findings[1].message.contains(
            "reachable from the call to fan-out helper `map_all` at crates/b/src/lib.rs:2"
        ));
    }

    #[test]
    fn pure_fanout_paths_are_silent_and_scoped() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| work(1)); });\n}\n\
             fn work(x: u64) -> u64 { x + 1 }\n\
             fn unrelated() -> u64 { 7 }\n",
        )]);
        assert!(fanout.findings.is_empty(), "{:?}", fanout.findings);
        // `work`'s body is in scope; `unrelated`'s is not.
        assert!(!fanout.scopes[0].is_empty());
    }

    #[test]
    fn recorder_in_fanout_is_flagged_but_shards_are_not() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn bad(rec: &mut u64) {\n    std::thread::scope(|s| {\n        s.spawn(|| merge(rec));\n    });\n}\n\
             fn merge(rec: &mut u64) { rec.absorb(7); }\n\
             pub fn worse() {\n    std::thread::scope(|s| {\n        s.spawn(|| { let r = TraceRecorder::new(); drop(r); });\n    });\n}\n\
             pub fn good(shard: &mut u64) {\n    std::thread::scope(|s| { s.spawn(|| { *shard += 1; }); });\n}\n",
        )]);
        // `merge` calls `.absorb(` from a reachable body; `worse` mints a
        // `TraceRecorder` directly inside its spawn closure; the
        // shard-style fan-out in `good` stays silent.
        assert_eq!(fanout.findings.len(), 2, "{:?}", fanout.findings);
        assert!(
            fanout
                .findings
                .iter()
                .any(|f| f.message.contains("TraceRecorder")),
            "{:?}",
            fanout.findings
        );
        assert!(
            fanout
                .findings
                .iter()
                .any(|f| f.message.contains("`merge`") && f.message.contains(".absorb(")),
            "{:?}",
            fanout.findings
        );
    }

    #[test]
    fn hash_iteration_in_reachable_fn_is_impure() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| tally()); });\n}\n\
             // lint:allow(nondeterministic-iteration): exercised in a purity test\n\
             fn tally() {\n    let m: HashMap<u64, u64> = HashMap::new();\n    for _ in m.iter() {}\n}\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("hash iteration order"));
    }
}
