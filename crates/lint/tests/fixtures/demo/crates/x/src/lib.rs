//! Golden fixture: every junkyard_lint rule fires here at least once,
//! every suppressible rule is also suppressed once, and test code shows
//! the rules staying quiet. This file is never compiled — the fixture
//! test points the engine at this tree and asserts the exact findings.

use std::collections::HashMap;

// Iterating a hash map leaks hash order into results everywhere, even
// off fan-out paths; declaring one is only flagged on fan-out paths.
pub fn tally(votes: &HashMap<String, u64>) -> u64 {
    votes.values().sum()
}

// A lookup-only map off every fan-out path needs no allow at all.
pub fn probe(cache: &HashMap<u64, u64>, key: u64) -> Option<u64> {
    cache.get(&key).copied()
}

pub fn fan_out(jobs: &[u64]) -> u64 {
    let mut total = 0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut seen: HashMap<u64, u64> = HashMap::new();
            seen.insert(jobs[0], 1);
            // lint:allow(nondeterministic-iteration): lookup-only scratch map
            let lookup: HashMap<u64, u64> = HashMap::new();
            let _ = lookup.get(&0);
            total = clocked(jobs) + stamped(jobs) + merge_trace(jobs);
        });
    });
    total
}

fn clocked(jobs: &[u64]) -> u64 {
    let t = std::time::Instant::now();
    let _ = t.elapsed();
    jobs.first().copied().unwrap_or(0)
}

// lint:allow(fanout-purity): fixture demonstrates suppression
fn stamped(jobs: &[u64]) -> u64 {
    let _t = std::time::SystemTime::now();
    jobs.last().copied().unwrap_or(0)
}

pub fn mix(window_ms: f64, budget_secs: f64) -> f64 {
    window_ms + budget_secs
}

pub fn relabel(span_ms: f64) -> f64 {
    // lint:allow(unit-suffix-consistency): fixture demonstrates suppression
    let span_hours = span_ms;
    span_hours
}

pub fn wall_elapsed() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_secs()
}

// lint:allow(wall-clock-in-sim): fixture demonstrates suppression
pub fn stamp() -> std::time::Instant { std::time::Instant::now() }

pub fn seed_from_air() -> u64 {
    let mut rng = thread_rng();
    rng.next_u64()
}

pub fn must(v: Option<u64>) -> u64 {
    v.unwrap()
}

// lint:allow(panic-in-library): fixture documents the invariant
pub fn must_too(v: Option<u64>) -> u64 { v.expect("fixture") }

pub fn shrink(x: f64) -> u32 {
    x as u32
}

pub fn idx(x: u64) -> usize {
    x as usize // lint:allow(unchecked-cast): fixture index is in range
}

// lint:allow(unchecked-cast)
pub fn truncate(x: f64) -> u32 {
    x as u32
}

// lint:allow(made-up-rule): this rule does not exist
pub fn unknown_rule_marker() {}

// lint:allow(ambient-rng): stale — the next line draws no entropy
pub fn stale_allow() {}

/// Fixture accounting totals.
///
/// lint: conserved
pub struct Totals {
    pub pinned_total: f64,
    pub forgotten_total: f64,
}

// Serial-side recorder dragged into the fan-out: the recorder-in-fanout
// facet flags the `TraceRecorder` mint and the `.absorb(` shard merge.
fn merge_trace(jobs: &[u64]) -> u64 {
    let mut recorder = TraceRecorder::new();
    recorder.absorb(jobs.len());
    0
}

// A local spawning helper hides the worker body from the spawn site, so
// the closure handed to it at each call site is a fan-out root too.
fn on_worker(job: impl Fn() -> u64 + Sync) -> u64 {
    std::thread::scope(|scope| scope.spawn(|| job()).join().unwrap_or(0))
}

pub fn helper_fan_out() -> u64 {
    on_worker(|| std::time::Instant::now().elapsed().as_secs())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn test_code_is_exempt() {
        let mut s = HashSet::new();
        s.insert(1u8);
        for x in s {
            let _ = x;
        }
        let _ = Option::<u8>::None.unwrap_or(0);
        let _ = 1.5_f64 as u32;
    }
}
