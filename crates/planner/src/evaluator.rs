//! The black-box evaluation layer: what it costs to score one candidate,
//! at what fidelity, and the memo cache that makes revisits free.
//!
//! The search engine never builds simulations itself — it hands
//! candidates to an [`Evaluator`] and receives [`Evaluation`]s. An
//! evaluation must be a *pure function* of `(candidate, fidelity)`: the
//! successive-halving rungs and the mutation loop both rely on cached
//! results being bit-identical to fresh ones, and the parallel fan-out
//! relies on results not depending on which worker computed them.

use std::collections::HashMap;

use junkyard_fleet::lifecycle::SiteConfigError;
use serde::{Deserialize, Serialize};

use crate::candidate::CandidateDeployment;
use crate::slo::Slo;

/// How much simulated time a candidate is scored over — the
/// successive-halving resource axis. Coarse rungs run a couple of days
/// at few windows; survivors earn longer horizons and finer slices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fidelity {
    horizon_days: usize,
    windows_per_day: usize,
    sim_slice_s: f64,
    warmup_s: f64,
}

impl Fidelity {
    /// Creates a fidelity level.
    ///
    /// # Panics
    ///
    /// Panics if the horizon or window count is zero, or the slice and
    /// warm-up are not whole seconds (the lifecycle engine buckets
    /// utilisation per second) with a strictly positive slice.
    #[must_use]
    pub fn new(
        horizon_days: usize,
        windows_per_day: usize,
        sim_slice_s: f64,
        warmup_s: f64,
    ) -> Self {
        assert!(horizon_days > 0, "fidelity needs at least one day");
        assert!(
            windows_per_day > 0,
            "fidelity needs at least one window per day"
        );
        assert!(
            sim_slice_s > 0.0 && sim_slice_s.fract() == 0.0,
            "slice must be a positive whole number of seconds"
        );
        assert!(
            warmup_s >= 0.0 && warmup_s.fract() == 0.0,
            "warm-up must be a whole number of seconds"
        );
        Self {
            horizon_days,
            windows_per_day,
            sim_slice_s,
            warmup_s,
        }
    }

    /// The cheapest useful score: two days, two routing windows per day,
    /// one-second slices, no warm-up.
    #[must_use]
    pub fn coarse() -> Self {
        Self::new(2, 2, 1.0, 0.0)
    }

    /// A week at four windows per day with a warm-up second.
    #[must_use]
    pub fn medium() -> Self {
        Self::new(7, 4, 1.0, 1.0)
    }

    /// Four weeks at six windows per day — long enough for battery wear
    /// and failures to register in the ranking.
    #[must_use]
    pub fn fine() -> Self {
        Self::new(28, 6, 2.0, 1.0)
    }

    /// Simulated days.
    #[must_use]
    pub fn horizon_days(&self) -> usize {
        self.horizon_days
    }

    /// Routing/accounting windows per day.
    #[must_use]
    pub fn windows_per_day(&self) -> usize {
        self.windows_per_day
    }

    /// Measured seconds of each microsim slice.
    #[must_use]
    pub fn sim_slice_s(&self) -> f64 {
        self.sim_slice_s
    }

    /// Warm-up seconds excluded from each slice.
    #[must_use]
    pub fn warmup_s(&self) -> f64 {
        self.warmup_s
    }

    /// A stable key for cache maps: whole-second slices and warm-ups
    /// make the float fields exactly representable as integers.
    #[must_use]
    pub fn key(&self) -> u64 {
        let mut key = self.horizon_days as u64;
        key = key
            .wrapping_mul(0x1_0001)
            .wrapping_add(self.windows_per_day as u64);
        key = key
            .wrapping_mul(0x1_0001)
            .wrapping_add(self.sim_slice_s as u64);
        key.wrapping_mul(0x1_0001)
            .wrapping_add(self.warmup_s as u64)
    }
}

/// What one candidate scored at one fidelity: the carbon objective, the
/// SLO-relevant latencies and shed, and the frontier's secondary axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    grams_per_request: Option<f64>,
    worst_median_ms: f64,
    worst_tail_ms: f64,
    worst_p99_ms: f64,
    shed_fraction: f64,
    requests: f64,
    total_carbon_kg: f64,
    devices: usize,
}

impl Evaluation {
    /// Assembles an evaluation from measured results.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grams_per_request: Option<f64>,
        worst_median_ms: f64,
        worst_tail_ms: f64,
        worst_p99_ms: f64,
        shed_fraction: f64,
        requests: f64,
        total_carbon_kg: f64,
        devices: usize,
    ) -> Self {
        Self {
            grams_per_request,
            worst_median_ms,
            worst_tail_ms,
            worst_p99_ms,
            shed_fraction,
            requests,
            total_carbon_kg,
            devices,
        }
    }

    /// A shorthand constructor for unit tests.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn for_tests(
        grams_per_request: Option<f64>,
        median: f64,
        tail: f64,
        p99: f64,
        shed: f64,
        devices: usize,
    ) -> Self {
        Self::new(
            grams_per_request,
            median,
            tail,
            p99,
            shed,
            1_000.0,
            1.0,
            devices,
        )
    }

    /// The objective: amortised grams of CO2e per served request, or
    /// `None` when the deployment served nothing.
    #[must_use]
    pub fn grams_per_request(&self) -> Option<f64> {
        self.grams_per_request
    }

    /// Worst measured median latency across the horizon, ms.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.worst_median_ms
    }

    /// Worst measured tail (90th percentile) latency, ms.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.worst_tail_ms
    }

    /// Worst measured 99th-percentile latency, ms — a frontier axis.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.worst_p99_ms
    }

    /// Fraction of offered demand that was shed.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        self.shed_fraction
    }

    /// Requests served over the evaluated horizon.
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Total carbon emitted over the evaluated horizon, kg.
    #[must_use]
    pub fn total_carbon_kg(&self) -> f64 {
        self.total_carbon_kg
    }

    /// Phones the candidate provisions — a frontier axis.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Whether this evaluation satisfies `slo` (see [`Slo::admits`]).
    #[must_use]
    pub fn meets(&self, slo: &Slo) -> bool {
        slo.admits(self)
    }
}

/// Why a candidate could not be scored. Failures are deterministic
/// properties of the candidate (a cohort the placement cannot fit, a
/// workload the application does not define), so they are cached like
/// successes and simply excluded from ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvalError {
    /// The candidate's deployment could not be assembled.
    Build(String),
    /// A site builder rejected the candidate's configuration: a device
    /// that cannot fill a cohort slot, or a parameter out of range.
    Site(SiteConfigError),
    /// The simulation rejected the run.
    Sim(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Build(why) => write!(f, "candidate build failed: {why}"),
            EvalError::Site(why) => write!(f, "candidate site misconfigured: {why}"),
            EvalError::Sim(why) => write!(f, "candidate simulation failed: {why}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SiteConfigError> for EvalError {
    fn from(error: SiteConfigError) -> Self {
        EvalError::Site(error)
    }
}

/// A black-box scorer of candidate deployments.
///
/// `Sync` because the search engine fans evaluations across scoped
/// worker threads. Implementations must be pure: the same
/// `(candidate, fidelity)` pair must always produce the same result.
pub trait Evaluator: Sync {
    /// Scores one candidate at one fidelity.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the candidate cannot be assembled or
    /// simulated; the search treats such candidates as infeasible.
    fn evaluate(
        &self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
    ) -> Result<Evaluation, EvalError>;

    /// A cheap upper bound on the offered load the candidate can serve
    /// within the SLO's latency bounds, if the evaluator can estimate
    /// one (for example from per-cohort saturation sweeps). `None` means
    /// "unknown — do not prune".
    fn sustainable_capacity_qps(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        let _ = (candidate, slo);
        None
    }

    /// The fraction of the horizon's offered demand that would be shed
    /// if the fleet could sustain at most `capacity_qps`, if the
    /// evaluator can estimate one from its demand curve. Used together
    /// with
    /// [`sustainable_capacity_qps`](Evaluator::sustainable_capacity_qps)
    /// to pre-screen candidates whose forced shed would violate the
    /// SLO's ceiling: a candidate that only sheds a sliver of demand at
    /// the daily peak must *not* be pruned. `None` means "unknown — do
    /// not prune".
    fn demand_shed_fraction(&self, capacity_qps: f64) -> Option<f64> {
        let _ = capacity_qps;
        None
    }
}

/// The memoised evaluation store, keyed by `(candidate fingerprint,
/// fidelity key)`. All bookkeeping happens serially between parallel
/// batches (see the search engine), so hit/miss counts — not just cached
/// values — are identical at any worker count.
#[derive(Debug, Default)]
pub struct EvalCache {
    // The cache is only ever probed by exact (fingerprint, fidelity)
    // key and never iterated, so hash order is unobservable.
    entries: HashMap<(u64, u64), Result<Evaluation, EvalError>>,
    hits: u64,
    misses: u64,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a previously-scored `(candidate, fidelity)` pair,
    /// counting the lookup as a hit or miss.
    pub fn lookup(
        &mut self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
    ) -> Option<Result<Evaluation, EvalError>> {
        let found = self.entries.get(&(candidate.fingerprint(), fidelity.key()));
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found.cloned()
    }

    /// Stores a freshly-computed result.
    pub fn insert(
        &mut self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
        result: Result<Evaluation, EvalError>,
    ) {
        self.entries
            .insert((candidate.fingerprint(), fidelity.key()), result);
    }

    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh evaluation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Distinct `(candidate, fidelity)` results stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_keys_distinguish_every_level() {
        let levels = [
            Fidelity::coarse(),
            Fidelity::medium(),
            Fidelity::fine(),
            Fidelity::new(2, 2, 2.0, 0.0),
            Fidelity::new(2, 4, 1.0, 0.0),
            Fidelity::new(4, 2, 1.0, 0.0),
            Fidelity::new(2, 2, 1.0, 1.0),
        ];
        for (i, a) in levels.iter().enumerate() {
            for (j, b) in levels.iter().enumerate().skip(i + 1) {
                assert_ne!(a.key(), b.key(), "levels {i} and {j} collide");
            }
        }
    }

    #[test]
    fn cache_counts_hits_and_misses_deterministically() {
        let mut cache = EvalCache::new();
        let candidate = CandidateDeployment::new(vec![0], 0, 0, 0, 0);
        let fidelity = Fidelity::coarse();
        assert!(cache.lookup(&candidate, fidelity).is_none());
        let result = Ok(Evaluation::for_tests(Some(1.0), 5.0, 9.0, 12.0, 0.0, 4));
        cache.insert(&candidate, fidelity, result.clone());
        assert_eq!(cache.lookup(&candidate, fidelity), Some(result));
        // A finer fidelity is a distinct entry.
        assert!(cache.lookup(&candidate, Fidelity::fine()).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "whole number of seconds")]
    fn fractional_slices_panic() {
        let _ = Fidelity::new(1, 1, 0.5, 0.0);
    }
}
