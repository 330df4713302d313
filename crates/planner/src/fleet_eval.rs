//! The concrete [`Evaluator`]: candidates become [`LifecycleSim`] runs
//! over the compiled microsim engine.
//!
//! Each cohort option is assembled exactly like the hand-built lifecycle
//! deployments — catalog devices become microsim nodes and
//! [`CohortDevice`] slots with their Reuse-Factor second-life embodied
//! share — so a planner score and a hand-built study score are directly
//! comparable. The optional saturation screen sweeps every cohort option
//! once up front; a candidate is pruned when the demand beyond its
//! [`LatencyCurve::max_sustainable_qps`] (under the SLO's latency
//! bounds) would shed more of the horizon's traffic than the SLO's
//! ceiling allows — all before any lifecycle run is paid.

use junkyard_battery::charging::SmartChargePolicy;
use junkyard_carbon::units::{GramsCo2e, Qps, TimeSpan, Watts};
use junkyard_fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleSim, LifecycleSite, SiteConfigError,
};
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::site::GridRegion;
use junkyard_microsim::app::Application;
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::NodeSpec;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::Simulation;
use junkyard_microsim::sweep::{decorrelate_seed, LatencyCurve, SweepConfig};

use crate::candidate::CandidateDeployment;
use crate::evaluator::{EvalError, Evaluation, Evaluator, Fidelity};
use crate::slo::Slo;
use crate::space::{CohortOption, PlannerSpace};

/// The percentile-headroom multiplier of every candidate charging
/// policy (the paper's value; candidates vary the battery floor).
const CHARGE_HEADROOM: f64 = 1.25;

/// Load fractions of nominal capacity the saturation screen sweeps.
const SCREEN_FRACTIONS: [f64; 3] = [0.6, 0.8, 1.0];

/// Seed of the swarm-spread placement shuffle every cohort simulation
/// is built with.
const PLACEMENT_SEED: u64 = 11;

/// Scores candidates by building and running a [`LifecycleSim`] per
/// `(candidate, fidelity)` pair. Every internal run is forced serial —
/// the planner parallelises *across* candidates — and workload seeds are
/// derived from the candidate fingerprint, so evaluation is a pure
/// function of its inputs.
///
/// Two modelling biases are inherited from the lifecycle layer and
/// apply to every candidate alike: outage-day latency is measured on
/// the full-strength topology (see the `LifecycleResult::worst_*`
/// docs), and wear-driven battery replacements beyond the evaluation
/// horizon are unbilled (see
/// [`FleetEvaluator::amortize_install`]).
#[derive(Debug, Clone)]
pub struct FleetEvaluator {
    space: PlannerSpace,
    app: Application,
    network: NetworkModel,
    request_type: Option<String>,
    schedule: DiurnalSchedule,
    /// The leased site at full share; candidates rent a share of it.
    leased: Option<LifecycleSite>,
    site_overhead_power: Watts,
    site_overhead_embodied: GramsCo2e,
    mtbf_days: f64,
    install_amortization: Option<TimeSpan>,
    seed: u64,
    /// Per cohort option: its serving simulation, built once (`None`
    /// for empty options, `Err` for recipes the placement cannot fit).
    /// Evaluations reuse these instead of re-assembling the app and
    /// placement on every `(candidate, fidelity)` score.
    cohort_sims: Vec<Option<Result<Simulation, EvalError>>>,
    /// Per cohort option: the saturation sweep of a site built from it
    /// (`None` for empty options or unbuildable cohorts). Empty until
    /// [`FleetEvaluator::with_saturation_screen`] runs.
    screen_curves: Vec<Option<LatencyCurve>>,
    leased_curve: Option<LatencyCurve>,
}

impl FleetEvaluator {
    /// Creates an evaluator scoring candidates of `space` serving
    /// `app`'s traffic over one repeated `schedule` day.
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers more than one day (the lifecycle
    /// repeats a single day curve over the horizon).
    #[must_use]
    pub fn new(
        space: PlannerSpace,
        app: Application,
        network: NetworkModel,
        schedule: DiurnalSchedule,
        seed: u64,
    ) -> Self {
        assert_eq!(
            schedule.day_count(),
            1,
            "the evaluator repeats a one-day schedule over the horizon"
        );
        let mut evaluator = Self {
            space,
            app,
            network,
            request_type: None,
            schedule,
            leased: None,
            site_overhead_power: Watts::ZERO,
            site_overhead_embodied: GramsCo2e::ZERO,
            mtbf_days: 0.0,
            install_amortization: None,
            seed,
            cohort_sims: Vec::new(),
            screen_curves: Vec::new(),
            leased_curve: None,
        };
        evaluator.cohort_sims = evaluator
            .space
            .cohort_options()
            .iter()
            .map(|option| (!option.is_empty()).then(|| evaluator.build_cohort_sim(option)))
            .collect();
        evaluator
    }

    /// The prebuilt simulation of one (non-empty) cohort option.
    fn cohort_sim(&self, cohort: usize) -> Result<&Simulation, EvalError> {
        match &self.cohort_sims[cohort] {
            Some(Ok(sim)) => Ok(sim),
            Some(Err(error)) => Err(error.clone()),
            None => Err(EvalError::Build(
                "empty cohort options build no simulation".to_owned(),
            )),
        }
    }

    /// Restricts every site's workload to a single request type.
    #[must_use]
    pub fn request_type(mut self, name: impl Into<String>) -> Self {
        self.request_type = Some(name.into());
        self
    }

    /// Registers the leased datacenter site candidates may blend in via
    /// their fallback share: a share `s` rents
    /// [`LifecycleSite::leased_share`]`(s)` of it.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] if `site` is a cohort site, whose
    /// capacity no fallback share can scale.
    pub fn leased(mut self, site: LifecycleSite) -> Result<Self, SiteConfigError> {
        // The full share is the site itself, bit for bit; taking it
        // rejects a cohort site here rather than at every evaluation.
        self.leased = Some(site.leased_share(1.0)?);
        Ok(self)
    }

    /// Sets the per-cloudlet overhead: an always-on draw (server fan,
    /// switch) and its embodied carbon, charged to every non-empty
    /// cohort site.
    #[must_use]
    pub fn site_overhead(mut self, power: Watts, embodied: GramsCo2e) -> Self {
        self.site_overhead_power = power;
        self.site_overhead_embodied = embodied;
        self
    }

    /// Enables stochastic device failures with the given mean days
    /// between failures per device (candidates pick the refill lag).
    ///
    /// # Panics
    ///
    /// Panics if not strictly positive.
    #[must_use]
    pub fn failures(mut self, mtbf_days: f64) -> Self {
        assert!(mtbf_days > 0.0, "MTBF must be positive");
        self.mtbf_days = mtbf_days;
        self
    }

    /// Amortises each cohort's install embodied carbon over an assumed
    /// service lifetime instead of charging it in full against the
    /// evaluation horizon.
    ///
    /// The lifecycle simulator charges a cohort's install bill on day 0,
    /// which is the right accounting for a multi-year trajectory — but a
    /// planner scoring candidates over a few simulated days would then
    /// weigh the whole install against a sliver of the requests it buys,
    /// and every comparison would collapse towards the leased backend
    /// (whose embodied share is already lease-amortised). Scaling the
    /// charged install to `horizon / lifetime` makes a short-horizon
    /// score a steady-state estimate of the lifetime-amortised
    /// gCO2e/request, directly comparable across cohort and leased
    /// candidates. Wear-driven battery replacements beyond the horizon
    /// remain unbilled — a small pro-cohort bias that applies to every
    /// cohort candidate alike.
    ///
    /// # Panics
    ///
    /// Panics if the lifetime is not strictly positive.
    #[must_use]
    pub fn amortize_install(mut self, lifetime: TimeSpan) -> Self {
        assert!(
            lifetime.seconds() > 0.0,
            "service lifetime must be positive"
        );
        self.install_amortization = Some(lifetime);
        self
    }

    /// Runs the saturation screen: every cohort option (and the leased
    /// site) is swept once at a few fractions of its nominal
    /// capacity, so [`Evaluator::sustainable_capacity_qps`] can prune
    /// undersized candidates without a lifecycle run. The sweeps are
    /// serial and seeded, so screening is deterministic.
    #[must_use]
    pub fn with_saturation_screen(mut self) -> Self {
        let screen_seed = decorrelate_seed(self.seed, 0x5c_4ee4);
        self.screen_curves = self
            .space
            .cohort_options()
            .iter()
            .enumerate()
            .map(|(index, option)| {
                let sim = match self.cohort_sims.get(index)? {
                    Some(Ok(sim)) => sim,
                    _ => return None,
                };
                Some(self.sweep(
                    &sim.compile(),
                    option.capacity_qps(),
                    decorrelate_seed(screen_seed, index as u64 + 1),
                ))
            })
            .collect();
        self.leased_curve = self.leased.as_ref().map(|site| {
            self.sweep(
                site.sim(),
                site.full_capacity_qps(),
                decorrelate_seed(screen_seed, 0x1ea5ed),
            )
        });
        self
    }

    /// The space this evaluator scores candidates of.
    #[must_use]
    pub fn space(&self) -> &PlannerSpace {
        &self.space
    }

    /// Sweeps a site simulation at the screen's capacity fractions.
    fn sweep(&self, sim: &CompiledSim, capacity_qps: f64, seed: u64) -> LatencyCurve {
        let points: Vec<f64> = SCREEN_FRACTIONS.iter().map(|f| f * capacity_qps).collect();
        let mut config = SweepConfig::new(points, 2.0, 0.5)
            .seed(seed)
            .decorrelated_seeds()
            .parallelism(1);
        if let Some(request_type) = &self.request_type {
            config = config.request_type(request_type.clone());
        }
        config
            .run_compiled("screen", sim)
            .expect("screen sweeps use the evaluator's own request type")
    }

    /// Builds the serving simulation of one cohort option.
    fn build_cohort_sim(&self, option: &CohortOption) -> Result<Simulation, EvalError> {
        let mut nodes = Vec::with_capacity(option.device_count());
        for (slot, (device, _, count)) in option.slots().iter().enumerate() {
            for i in 0..*count {
                nodes.push(NodeSpec::from_device(
                    format!("s{slot}-{}-{i}", device.name()),
                    device,
                ));
            }
        }
        let app = self.app.clone();
        let placement = Placement::swarm_spread(&app, &nodes, PLACEMENT_SEED)
            .map_err(|e| EvalError::Build(format!("{}: {e:?}", option.label())))?;
        Simulation::new(app, nodes, placement, self.network)
            .map_err(|e| EvalError::Build(format!("{}: {e}", option.label())))
    }

    /// Builds one cohort lifecycle site for a candidate's region choice.
    fn build_cohort_site(
        &self,
        candidate: &CandidateDeployment,
        region: &GridRegion,
        cohort: usize,
        horizon_days: usize,
    ) -> Result<LifecycleSite, EvalError> {
        let option = &self.space.cohort_options()[cohort];
        let sim = self.cohort_sim(cohort)?;
        let mut devices = Vec::with_capacity(option.device_count());
        for (device, qps, count) in option.slots() {
            for _ in 0..*count {
                devices.push(CohortDevice::from_spec(device, Qps::from_per_second(*qps))?);
            }
        }
        let mut install: GramsCo2e = devices
            .iter()
            .map(CohortDevice::replacement_embodied)
            .sum::<GramsCo2e>()
            + self.site_overhead_embodied;
        if let Some(lifetime) = self.install_amortization {
            let horizon = TimeSpan::from_days(horizon_days as f64);
            install = install * (horizon.seconds() / lifetime.seconds()).min(1.0);
        }
        let floor = self.space.charge_floor_of(candidate);
        let mut site =
            LifecycleSite::try_cohort(region.name(), sim, region.clone(), devices, install)?
                .overhead_power(self.site_overhead_power)
                .charge_policy(SmartChargePolicy::new(floor, CHARGE_HEADROOM));
        if self.mtbf_days > 0.0 {
            site = site.failures(self.mtbf_days, self.space.refill_lag_of(candidate))?;
        }
        if let Some(request_type) = &self.request_type {
            site = site.request_type(request_type.clone());
        }
        Ok(site)
    }

    /// Builds the scaled leased site for a candidate's fallback share.
    fn build_leased_site(&self, share: f64) -> Result<LifecycleSite, EvalError> {
        let mut site = self
            .leased
            .as_ref()
            .ok_or_else(|| {
                EvalError::Build(
                    "candidate wants a leased fallback but no leased site is registered".to_owned(),
                )
            })?
            .leased_share(share)?;
        if let Some(request_type) = &self.request_type {
            site = site.request_type(request_type.clone());
        }
        Ok(site)
    }
}

impl Evaluator for FleetEvaluator {
    fn evaluate(
        &self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
    ) -> Result<Evaluation, EvalError> {
        if !self.space.is_valid(candidate) {
            return Err(EvalError::Build(
                "candidate indexes outside the space or provisions nothing".to_owned(),
            ));
        }
        let mut sites = Vec::new();
        for (r, region) in self.space.regions().iter().enumerate() {
            let cohort = candidate.site_cohorts()[r];
            if self.space.cohort_options()[cohort].is_empty() {
                continue;
            }
            sites.push(self.build_cohort_site(
                candidate,
                region,
                cohort,
                fidelity.horizon_days(),
            )?);
        }
        let share = self.space.fallback_share_of(candidate);
        if share > 0.0 {
            sites.push(self.build_leased_site(share)?);
        }

        let days = fidelity.horizon_days();
        let config = LifecycleConfig::new(1)
            .horizon_days(days)
            .windows_per_day(fidelity.windows_per_day())
            .sim_slice_s(fidelity.sim_slice_s())
            .warmup_s(fidelity.warmup_s())
            .seed(decorrelate_seed(self.seed, candidate.fingerprint()))
            .parallelism(1);
        let result = LifecycleSim::new(
            sites,
            self.schedule.clone(),
            self.space.routing_of(candidate),
            config,
        )
        .run()
        .map_err(|e| EvalError::Sim(e.to_string()))?;

        Ok(Evaluation::new(
            result.grams_per_request(),
            result.worst_median_ms(),
            result.worst_tail_ms(),
            result.worst_p99_ms(),
            result.shed_fraction(),
            result.total_requests(),
            result.total_carbon().kilograms(),
            self.space.total_devices(candidate),
        ))
    }

    fn sustainable_capacity_qps(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        if self.screen_curves.is_empty() {
            return None;
        }
        let mut sustainable = 0.0;
        for &cohort in candidate.site_cohorts() {
            let option = &self.space.cohort_options()[cohort];
            if option.is_empty() {
                continue;
            }
            // An unbuildable cohort contributes nothing (and will fail
            // its build during evaluation anyway).
            if let Some(curve) = &self.screen_curves[cohort] {
                let knee = curve
                    .max_sustainable_qps(slo.median_limit_ms(), slo.tail_limit_ms())
                    .unwrap_or(0.0);
                sustainable += knee.min(option.capacity_qps());
            }
        }
        let share = self.space.fallback_share_of(candidate);
        if share > 0.0 {
            if let (Some(site), Some(curve)) = (&self.leased, &self.leased_curve) {
                let knee = curve
                    .max_sustainable_qps(slo.median_limit_ms(), slo.tail_limit_ms())
                    .unwrap_or(0.0);
                // The scaled site keeps the full site's simulation —
                // only the router's capacity cap shrinks with the share —
                // so its sustainable load is min(knee, share × capacity).
                // Scaling the knee itself would understate it and could
                // prune feasible candidates.
                sustainable += knee.min(share * site.full_capacity_qps());
            }
        }
        Some(sustainable)
    }

    /// Horizon-wide shed estimate under the routing layer's semantics:
    /// a window's assignment is scaled by `min(1, capacity / peak)`, so
    /// a capacity-capped fleet sheds `mean × (1 − capacity/peak)` of
    /// each window whose peak exceeds it. Hourly windows track the
    /// demand curve at least as finely as any evaluation fidelity, so
    /// this estimate never exceeds the shed a real evaluation would
    /// measure — pruning on it is sound.
    fn demand_shed_fraction(&self, capacity_qps: f64) -> Option<f64> {
        let mut offered = 0.0;
        let mut shed = 0.0;
        for window in self.schedule.windows(24) {
            let mean = window.mean_qps();
            let peak = window.peak_qps();
            offered += mean;
            if peak > capacity_qps {
                shed += mean * (1.0 - (capacity_qps / peak).max(0.0));
            }
        }
        if offered > 0.0 {
            Some(shed / offered)
        } else {
            Some(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalCache;
    use crate::search::{evaluate_batch, search, SearchConfig};
    use crate::testutil::{flat_region, pixel_option};
    use junkyard_microsim::app::hotel_reservation;

    fn tiny_space() -> PlannerSpace {
        PlannerSpace::new(
            vec![CohortOption::empty(), pixel_option(2), pixel_option(4)],
            vec![flat_region("west", 120.0), flat_region("east", 420.0)],
        )
    }

    fn evaluator() -> FleetEvaluator {
        FleetEvaluator::new(
            tiny_space(),
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(700.0),
            7,
        )
    }

    #[test]
    fn evaluation_measures_a_real_lifecycle_run() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![1, 1], 1, 0, 0, 0);
        let evaluation = evaluator.evaluate(&candidate, Fidelity::coarse()).unwrap();
        assert!(evaluation.grams_per_request().unwrap() > 0.0);
        assert!(evaluation.worst_median_ms() > 0.0);
        assert!(evaluation.worst_p99_ms() >= evaluation.worst_tail_ms());
        assert_eq!(evaluation.devices(), 4);
        assert!(evaluation.requests() > 0.0);
    }

    #[test]
    fn evaluation_is_a_pure_function_of_candidate_and_fidelity() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![2, 0], 0, 0, 0, 0);
        let first = evaluator.evaluate(&candidate, Fidelity::coarse()).unwrap();
        let second = evaluator.evaluate(&candidate, Fidelity::coarse()).unwrap();
        assert_eq!(first, second);
        // A different fidelity is a genuinely different measurement.
        let finer = evaluator
            .evaluate(&candidate, Fidelity::new(3, 2, 1.0, 0.0))
            .unwrap();
        assert_ne!(first, finer);
    }

    #[test]
    fn fallback_without_a_blueprint_fails_the_build() {
        let space = tiny_space().fallback_shares(vec![0.0, 1.0]);
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(300.0),
            7,
        );
        let candidate = CandidateDeployment::new(vec![0, 0], 0, 0, 0, 1);
        assert!(matches!(
            evaluator.evaluate(&candidate, Fidelity::coarse()),
            Err(EvalError::Build(_))
        ));
    }

    #[test]
    fn a_device_that_cannot_fill_a_slot_is_a_typed_site_error() {
        // A catalog server carries no battery, so `from_spec` rejects it
        // as a cohort slot; the evaluator hands back that typed error.
        let server = CohortOption::uniform(junkyard_devices::catalog::poweredge_r740(), 1, 300.0);
        let space = PlannerSpace::new(
            vec![CohortOption::empty(), server],
            vec![flat_region("west", 120.0)],
        );
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(300.0),
            7,
        );
        let candidate = CandidateDeployment::new(vec![1], 0, 0, 0, 0);
        match evaluator.evaluate(&candidate, Fidelity::coarse()) {
            Err(EvalError::Site(error)) => assert!(
                error.message().contains("battery"),
                "unexpected site error: {error}"
            ),
            other => panic!("expected a typed site error, got {other:?}"),
        }
    }

    #[test]
    fn registering_a_cohort_site_as_the_lease_is_an_error() {
        let pixel = junkyard_devices::catalog::pixel_3a();
        let slot = CohortDevice::from_spec(&pixel, Qps::from_per_second(300.0)).unwrap();
        let cohort = LifecycleSite::try_cohort(
            "cloudlet",
            evaluator().cohort_sim(1).unwrap(),
            flat_region("west", 120.0),
            vec![slot],
            GramsCo2e::ZERO,
        )
        .unwrap();
        assert!(evaluator().leased(cohort).is_err());
    }

    #[test]
    fn saturation_screen_prunes_undersized_candidates() {
        let evaluator = evaluator().with_saturation_screen();
        let slo = Slo::paper_default();
        // A two-phone site sustains ~600 QPS within the SLO, but the
        // office-day demand peaks at ~800 QPS: single-site candidates
        // are undersized and must be pruned before any lifecycle run.
        let big = CandidateDeployment::new(vec![2, 2], 1, 0, 0, 0);
        let big_cap = evaluator.sustainable_capacity_qps(&big, &slo).unwrap();
        let small = CandidateDeployment::new(vec![1, 0], 1, 0, 0, 0);
        let small_cap = evaluator.sustainable_capacity_qps(&small, &slo).unwrap();
        assert!(big_cap > small_cap);
        // The shed estimate orders with capacity and vanishes once the
        // fleet covers the whole curve.
        let small_shed = evaluator.demand_shed_fraction(small_cap).unwrap();
        let big_shed = evaluator.demand_shed_fraction(big_cap).unwrap();
        assert!(small_shed > slo.max_shed_fraction(), "shed {small_shed}");
        assert!(big_shed <= small_shed);
        assert_eq!(evaluator.demand_shed_fraction(1e9), Some(0.0));
        // The full search screens at least the empty-ish deployments out.
        let mut cache = EvalCache::new();
        let config = SearchConfig::new()
            .rungs(vec![Fidelity::coarse()])
            .local_search(2, 1, 1)
            .parallelism(2);
        let outcome = search(evaluator.space(), &evaluator, &slo, &config, &mut cache);
        assert!(outcome.screened_out() > 0, "screen never fired");
        for planned in outcome.frontier() {
            assert!(planned.evaluation().meets(&slo));
        }
    }

    #[test]
    fn leased_screen_caps_at_share_capacity_not_scaled_knee() {
        // A leased site whose declared capacity is far beyond the
        // simulation's latency knee: the scaled site keeps the full sim,
        // so any share with share x capacity >= knee sustains the whole
        // knee. The old `share x knee` formula halved it.
        let space = tiny_space().fallback_shares(vec![0.0, 0.5, 1.0]);
        let leased_sim = {
            use junkyard_microsim::node::NodeSpec;
            use junkyard_microsim::placement::Placement;
            let app = hotel_reservation();
            let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
            let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
            Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
        };
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(700.0),
            7,
        )
        .leased(
            LifecycleSite::try_leased(
                "oversized-lease",
                &leased_sim,
                flat_region("gas", 420.0),
                Qps::from_per_second(1_000.0),
            )
            .unwrap(),
        )
        .unwrap()
        .with_saturation_screen();
        let slo = Slo::paper_default();
        let leased_only =
            |share_index: usize| CandidateDeployment::new(vec![0, 0], 0, 0, 0, share_index);
        let full = evaluator
            .sustainable_capacity_qps(&leased_only(2), &slo)
            .unwrap();
        let half = evaluator
            .sustainable_capacity_qps(&leased_only(1), &slo)
            .unwrap();
        // The half-share site still runs the full simulation, so it
        // sustains min(knee, 500): exactly 500 whenever the knee clears
        // half the declared capacity. The old `share x knee` formula
        // reported strictly less than 500 for any knee below 1,000.
        assert!(full > 500.0, "knee {full} must clear half the capacity");
        assert!((half - 500.0).abs() < 1e-9, "half-share {half}");
    }

    #[test]
    fn cache_hits_reproduce_fresh_evaluations_bit_for_bit() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![1, 2], 1, 0, 0, 0);
        let mut cache = EvalCache::new();
        let mut fresh = 0;
        let first = evaluate_batch(
            &mut cache,
            &evaluator,
            std::slice::from_ref(&candidate),
            Fidelity::coarse(),
            1,
            &mut fresh,
        );
        assert_eq!(fresh, 1);
        let cached = evaluate_batch(
            &mut cache,
            &evaluator,
            std::slice::from_ref(&candidate),
            Fidelity::coarse(),
            1,
            &mut fresh,
        );
        assert_eq!(fresh, 1, "second lookup is served from the cache");
        assert_eq!(first, cached);
        assert_eq!(cache.hits(), 1);
    }
}
