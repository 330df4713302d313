//! `planner-search`: the quick planner study over a list of seeds derived
//! from the run's seed, one study run per query. The same lifecycle layer
//! as `lifecycle-decade`, used for many short runs where per-run costs
//! dominate, plus the planner's screen, cache and fan-out.

use std::sync::Mutex;
use std::time::Instant;

use junkyard_core::planner_study::{PlannerStudy, PlannerStudyResult};
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::TraceRecorder;
use junkyard_planner::search::search_with;
use junkyard_planner::{
    CandidateDeployment, EvalCache, EvalError, Evaluation, Evaluator, Fidelity, PlannerSpace,
    SearchConfig, SearchOutcome, Slo,
};

use crate::drive::{drive, setup, timed, Ctx, Samples};
use crate::stats::{digest, parallel_efficiency, process_cpu_seconds, self_time, union_length};
use crate::Outcome;

/// Distinct study seeds a run cycles through.
const SEEDS: u64 = 4;
/// Peak-hour demand, requests per second: fixed here so the input size
/// does not follow the study's default.
const BASE_QPS: f64 = 1_600.0;
/// Days in a year, for the lifecycle engine's (year, site) cells.
const DAYS_PER_YEAR: usize = 365;

/// The quick study's fidelity ladder, coarsest first. The study keeps it
/// private; the traced run rebuilds it and checks that the rebuilt search
/// reproduces the study's outcome exactly.
fn quick_rungs() -> Vec<Fidelity> {
    vec![Fidelity::coarse(), Fidelity::new(4, 2, 1.0, 0.0)]
}

fn study(seed: u64, workers: usize) -> PlannerStudy {
    PlannerStudy::quick()
        .base_qps(BASE_QPS)
        .seed(seed)
        .parallelism(workers)
}

/// One `evaluate` call as the decorator saw it.
#[derive(Debug, Clone)]
struct Call {
    /// Seconds since the decorator's epoch when the call began.
    start: f64,
    /// Seconds since the epoch when it returned.
    end: f64,
    /// The fidelity it was asked for.
    fidelity: Fidelity,
    /// The candidate it scored.
    candidate: CandidateDeployment,
}

/// An [`Evaluator`] that forwards every call to `inner` and records when
/// each `evaluate` ran, at which fidelity, for which candidate.
struct TimingEvaluator<'a, E: ?Sized> {
    inner: &'a E,
    epoch: Instant,
    calls: Mutex<Vec<Call>>,
}

impl<'a, E: Evaluator + ?Sized> TimingEvaluator<'a, E> {
    /// Wraps `inner`; call times count from now.
    fn new(inner: &'a E) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the epoch.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The recorded calls, in the order they returned.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while recording.
    fn into_calls(self) -> Vec<Call> {
        self.calls
            .into_inner()
            .expect("no evaluation panicked while recording")
    }
}

impl<E: Evaluator + ?Sized> Evaluator for TimingEvaluator<'_, E> {
    fn evaluate(
        &self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
    ) -> Result<Evaluation, EvalError> {
        let start = self.now();
        let result = self.inner.evaluate(candidate, fidelity);
        let call = Call {
            start,
            end: self.now(),
            fidelity,
            candidate: candidate.clone(),
        };
        self.calls
            .lock()
            .expect("no evaluation panicked while recording")
            .push(call);
        result
    }

    fn sustainable_capacity_qps(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        self.inner.sustainable_capacity_qps(candidate, slo)
    }

    fn demand_shed_fraction(&self, capacity_qps: f64) -> Option<f64> {
        self.inner.demand_shed_fraction(capacity_qps)
    }
}

/// Sites a candidate deploys: one per non-empty regional cohort, plus the
/// leased fallback when it takes a share.
fn sites_of(space: &PlannerSpace, candidate: &CandidateDeployment) -> usize {
    let cohorts = (0..space.regions().len())
        .filter(|&r| !space.cohort_of(candidate, r).is_empty())
        .count();
    cohorts + usize::from(space.fallback_share_of(candidate) > 0.0)
}

fn check(result: &PlannerStudyResult) -> Result<u64, String> {
    let best = result
        .best()
        .ok_or_else(|| "the search found no feasible deployment".to_owned())?;
    if !best.evaluation().meets(&result.slo()) {
        return Err(format!("the argmin {} misses the SLO", best.label()));
    }
    if !result.matches_or_beats_baseline() {
        return Err("the argmin is worse than the hand-built baseline".to_owned());
    }
    Ok(digest(&format!("{:?}", result.outcome())))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error if the evaluator cannot be built.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..SEEDS).map(|i| decorrelate_seed(ctx.seed, i)).collect();
    let seed_of = |i: usize| seeds[i % seeds.len()];
    // Set-up builds the evaluator of each seed in turn: its saturation
    // sweeps depend on the seed.
    let mut built = 0;
    let (_, setup_s) = setup(|| {
        built += 1;
        study(seed_of(built - 1), ctx.workers)
            .evaluator()
            .map_err(|e| e.to_string())
    })?;

    let mut layers = Samples::default();
    let mut notes = Vec::new();
    let (plain, traced) = drive(
        ctx,
        |i| {
            let (result, seconds) = timed(|| study(seed_of(i), ctx.workers).run());
            let checked = result
                .map_err(|e| e.to_string())
                .and_then(|r| check(&r).map(|d| (d, r.outcome().clone())));
            (seconds, checked)
        },
        |i, reference: &SearchOutcome| {
            let planner = study(seed_of(i), ctx.workers);
            let slo = planner.slo_bounds();
            let rungs = quick_rungs();
            let config = SearchConfig::new()
                .seed(seed_of(i))
                .rungs(rungs.clone())
                .local_search(4, 2, 2)
                .pin(planner.baseline_candidate())
                .parallelism(ctx.workers);
            let start = Instant::now();
            let evaluator = match planner.evaluator() {
                Ok(e) => e,
                Err(e) => return (start.elapsed().as_secs_f64(), Err(e.to_string())),
            };
            let screen_build_s = start.elapsed().as_secs_f64();
            let timing = TimingEvaluator::new(&evaluator);
            let mut recorder = TraceRecorder::new();
            let cpu = process_cpu_seconds();
            let (outcome, search_s) = timed(|| {
                search_with(
                    evaluator.space(),
                    &timing,
                    &slo,
                    &config,
                    &mut EvalCache::new(),
                    &mut recorder,
                )
            });
            let cpu = process_cpu_seconds() - cpu;
            let seconds = start.elapsed().as_secs_f64();
            if &outcome != reference {
                return (
                    seconds,
                    Err("the rebuilt search differs from the study's outcome".to_owned()),
                );
            }
            let calls = timing.into_calls();
            if calls.len() as u64 != outcome.fresh_evaluations() {
                return (
                    seconds,
                    Err(format!(
                        "{} evaluate calls but {} fresh evaluations",
                        calls.len(),
                        outcome.fresh_evaluations()
                    )),
                );
            }
            let intervals: Vec<(f64, f64)> = calls.iter().map(|c| (c.start, c.end)).collect();
            let busy: f64 = calls.iter().map(|c| c.end - c.start).sum();
            let covered = union_length(&intervals);
            let space = evaluator.space();
            let (mut site_days, mut cells) = (0, 0);
            for call in &calls {
                let sites = sites_of(space, &call.candidate);
                let days = call.fidelity.horizon_days();
                site_days += sites * days;
                cells += sites * days.div_ceil(DAYS_PER_YEAR);
            }
            for (rung, name) in ["planner.evaluations.rung0", "planner.evaluations.rung1"]
                .into_iter()
                .enumerate()
            {
                let n = calls.iter().filter(|c| c.fidelity == rungs[rung]).count();
                layers.push(name, n as f64);
            }
            let evaluations = calls.len() as f64;
            layers.push("planner.screen_build_s", screen_build_s);
            layers.push("planner.search_s", search_s);
            layers.push(
                "planner.candidates_enumerated",
                outcome.candidates_enumerated() as f64,
            );
            layers.push("planner.screened_out", outcome.screened_out() as f64);
            layers.push("planner.evaluations", evaluations);
            layers.push("planner.cache_hits", outcome.cache_hits() as f64);
            layers.push("planner.cache_hit_rate", outcome.cache_hit_rate());
            layers.push("planner.eval_busy_s", busy);
            layers.push("planner.eval_covered_s", covered);
            layers.push("planner.self_s", self_time(search_s, &intervals));
            layers.push(
                "planner.eval_parallel_efficiency",
                parallel_efficiency(busy, ctx.workers, covered),
            );
            layers.push(
                "planner.frontier_yield",
                outcome.frontier().len() as f64 / evaluations,
            );
            layers.push("lifecycle.runs", evaluations);
            layers.push("lifecycle.site_days", site_days as f64);
            layers.push("lifecycle.cells", cells as f64);
            layers.push("lifecycle.busy_s", busy);
            layers.push("lifecycle.ms_per_site_day", busy * 1e3 / site_days as f64);
            layers.push(
                "lifecycle.parallel_efficiency",
                parallel_efficiency(cpu, ctx.workers, search_s),
            );
            if notes.is_empty() {
                notes.push(crate::kind_counts(&recorder.counts()));
            }
            (seconds, Ok((digest(&format!("{outcome:?}")), ())))
        },
    );
    notes.push(format!("workers: planner={}", ctx.workers));
    layers.push("planner.workers", ctx.workers as f64);
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        notes,
    })
}
