//! The resilience study: what a "nine" of availability costs in carbon.
//!
//! The two-region CAISO cloudlet setup from the lifecycle study is run
//! under an identical deterministic fault plan — regional grid outages,
//! firmware-batch failures and thermal mass-shutdowns — with a stale
//! health view (the router learns about dead capacity one detection lag
//! late). Five strategies face the same chaos:
//!
//! 1. **fault-free baseline** — the fault machinery disabled; must be
//!    bit-identical to a run that never constructed it (and is checked).
//! 2. **unmitigated** — faults land, nothing recovers; the floor for
//!    availability and the floor for carbon.
//! 3. **N+1 overprovisioning** — spare Pixel slots per cloudlet buy
//!    headroom with embodied + idle carbon paid up front, faults or not.
//! 4. **retry-to-fallback** — bounded retries with a hedged fallback to
//!    a leased datacenter kept on standby; every retry and hedge is
//!    charged its network and marginal compute carbon, and the standby
//!    pays idle + amortised embodied all horizon long.
//! 5. **degrade-in-place** — reroute to surviving capacity, shed
//!    low-priority work, brown out the latency target; no new hardware,
//!    availability bought with degraded service instead of carbon.
//!
//! The output orders the strategies on the availability/carbon plane so
//! the gCO2e/request price of each additional nine is explicit.

use junkyard_fleet::faults::{DegradationLadder, FaultConfig, ResiliencePolicy, RetryPolicy};
use junkyard_fleet::lifecycle::{LifecycleResult, LifecycleSim};
use junkyard_fleet::routing::RoutingPolicy;

use crate::deployments::DeploymentError;
use crate::lifecycle_study::LifecycleStudy;
use crate::report::Table;

/// Nines of availability: `-log10(1 - availability)`, capped at nine
/// nines so a perfect run stays finite (and JSON-representable).
#[must_use]
pub fn availability_nines(availability: f64) -> f64 {
    if availability >= 1.0 - 1e-9 {
        9.0
    } else {
        -(1.0 - availability).log10()
    }
}

/// Configuration of the fault-injection resilience study. The demand,
/// seed, horizon, routing windows, slice and worker cap are the inner
/// [`LifecycleStudy`]'s own; this study adds the fault plan and the
/// strategies.
#[derive(Debug, Clone)]
pub struct ResilienceStudy {
    study: LifecycleStudy,
    faults: FaultConfig,
    detection_lag_windows: usize,
    spare_pixels: usize,
    max_retries: usize,
    low_priority_fraction: f64,
    brownout_stretch: f64,
}

impl ResilienceStudy {
    /// The full-scale study: one year, hourly routing windows, monthly
    /// regional outages (half a day each), firmware batches knocking out
    /// 40% of a cohort for two days every ~45 days, thermal shutdowns
    /// every two months, and a two-hour detection lag.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            study: LifecycleStudy::paper_scale().horizon_days(365),
            faults: FaultConfig::disabled()
                .grid_outages(30.0, 12)
                .firmware_batches(45.0, 0.4, 48)
                .thermal_shutdowns(60.0, 6),
            detection_lag_windows: 2,
            spare_pixels: 2,
            max_retries: 3,
            low_priority_fraction: 0.5,
            brownout_stretch: 1.25,
        }
    }

    /// A reduced study for quick runs and CI: eight weeks, four 6-hour
    /// windows per day, faults aggressive enough to strike several times
    /// within the short horizon, a one-window detection lag.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            study: LifecycleStudy::quick().horizon_days(56),
            faults: FaultConfig::disabled()
                .grid_outages(14.0, 4)
                .firmware_batches(18.0, 0.5, 8)
                .thermal_shutdowns(21.0, 2),
            detection_lag_windows: 1,
            spare_pixels: 2,
            max_retries: 3,
            low_priority_fraction: 0.5,
            brownout_stretch: 1.25,
        }
    }

    /// Overrides the simulated horizon in days.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn horizon_days(mut self, days: usize) -> Self {
        self.study = self.study.horizon_days(days);
        self
    }

    /// Overrides the peak-hour fleet demand, requests per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative.
    #[must_use]
    pub fn base_qps(mut self, qps: f64) -> Self {
        self.study = self.study.base_qps(qps);
        self
    }

    /// Overrides the random seed (grid traces, workloads and the fault
    /// plan all derive from it deterministically).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.study = self.study.seed(seed);
        self
    }

    /// Caps the worker threads; `1` forces serial runs.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.study = self.study.parallelism(workers);
        self
    }

    /// Overrides the routing windows per day.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn windows_per_day(mut self, windows_per_day: usize) -> Self {
        self.study = self.study.windows_per_day(windows_per_day);
        self
    }

    /// The shared fault plan configuration every faulty strategy faces.
    #[must_use]
    pub fn fault_config(&self) -> FaultConfig {
        self.faults
    }

    /// The two-cloudlet fleet (plus an optional datacenter standby as the
    /// last site) under carbon-aware routing, with `spares` extra Pixel
    /// slots per cloudlet.
    fn build_fleet(
        &self,
        spares: usize,
        with_standby: bool,
        faults: Option<FaultConfig>,
        policy: Option<ResiliencePolicy>,
    ) -> Result<LifecycleSim, DeploymentError> {
        let factory = self.study.clone().spare_pixels(spares);
        let (west, east) = factory.two_region_traces();
        let mut sites = vec![
            factory.phone_site("cloudlet-west", west)?,
            factory.phone_site("cloudlet-east", east)?,
        ];
        if with_standby {
            sites.push(factory.datacenter_site("datacenter-standby")?);
        }
        let mut sim = LifecycleSim::new(
            sites,
            self.study.schedule(),
            RoutingPolicy::carbon_aware(),
            self.study.config(),
        );
        if let Some(faults) = faults {
            sim = sim.with_faults(faults);
        }
        if let Some(policy) = policy {
            sim = sim.with_resilience(policy);
        }
        Ok(sim)
    }

    fn lagged_policy(&self) -> ResiliencePolicy {
        ResiliencePolicy::new().detection_lag_windows(self.detection_lag_windows)
    }

    /// The fully mitigated fleet as a buildable simulation: the shared
    /// fault plan, bounded retries hedged to a datacenter standby, and
    /// the degradation ladder, all at once. The richest single run the
    /// study can express — the `trace` binary executes it with a
    /// recorder attached so every transition kind actually fires.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a site cannot be built.
    pub fn mitigated_fleet(&self) -> Result<LifecycleSim, DeploymentError> {
        self.build_fleet(
            0,
            true,
            Some(self.faults),
            Some(
                self.lagged_policy()
                    .retry(RetryPolicy::new(self.max_retries).hedge_to_fallback())
                    .fallback_site(2)
                    .degradation(
                        DegradationLadder::new()
                            .shed_low_priority(self.low_priority_fraction)
                            .brownout(self.brownout_stretch),
                    ),
            ),
        )
    }

    /// Runs every strategy against the identical fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a fleet cannot be built or a
    /// simulation fails.
    pub fn run(&self) -> Result<ResilienceStudyResult, DeploymentError> {
        let run = |sim: LifecycleSim| sim.run().map_err(DeploymentError::Sim);

        // The fault-free baseline, twice: once without the machinery and
        // once with it disabled. Anything but bit-identity is a defect in
        // the failure-aware path.
        let baseline = run(self.build_fleet(0, false, None, None)?)?;
        let disabled = run(self.build_fleet(
            0,
            false,
            Some(FaultConfig::disabled()),
            Some(
                self.lagged_policy()
                    .retry(RetryPolicy::new(self.max_retries)),
            ),
        )?)?;
        let baseline_bit_identical = baseline == disabled;

        let faults = self.faults;
        let unmitigated =
            run(self.build_fleet(0, false, Some(faults), Some(self.lagged_policy()))?)?;
        let overprovisioned = run(self.build_fleet(
            self.spare_pixels,
            false,
            Some(faults),
            Some(self.lagged_policy()),
        )?)?;
        let retry_to_fallback = run(self.build_fleet(
            0,
            true,
            Some(faults),
            Some(
                self.lagged_policy()
                    .retry(RetryPolicy::new(self.max_retries).hedge_to_fallback())
                    .fallback_site(2),
            ),
        )?)?;
        let degrade_in_place = run(self.build_fleet(
            0,
            false,
            Some(faults),
            Some(
                self.lagged_policy()
                    .retry(RetryPolicy::new(self.max_retries))
                    .degradation(
                        DegradationLadder::new()
                            .shed_low_priority(self.low_priority_fraction)
                            .brownout(self.brownout_stretch),
                    ),
            ),
        )?)?;

        let strategies = vec![
            StrategyOutcome::new(
                "fault-free-baseline",
                "no faults injected; the pre-fault-layer serving path",
                baseline,
            ),
            StrategyOutcome::new(
                "unmitigated",
                "faults land on a stale health view; nothing recovers",
                unmitigated,
            ),
            StrategyOutcome::new(
                "n-plus-one",
                format!(
                    "{} spare Pixel slots per cloudlet absorb correlated losses",
                    self.spare_pixels
                ),
                overprovisioned,
            ),
            StrategyOutcome::new(
                "retry-to-fallback",
                format!(
                    "{} bounded retries, hedged to a leased datacenter standby",
                    self.max_retries
                ),
                retry_to_fallback,
            ),
            StrategyOutcome::new(
                "degrade-in-place",
                format!(
                    "reroute, shed {:.0}% low-priority, brown out {:.0}%",
                    self.low_priority_fraction * 100.0,
                    (self.brownout_stretch - 1.0) * 100.0
                ),
                degrade_in_place,
            ),
        ];
        Ok(ResilienceStudyResult {
            strategies,
            baseline_bit_identical,
        })
    }
}

/// One strategy's full lifecycle accounting under the shared fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    name: String,
    description: String,
    result: LifecycleResult,
}

impl StrategyOutcome {
    fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        result: LifecycleResult,
    ) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            result,
        }
    }

    /// Stable identifier of the strategy.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description of what the strategy does.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying lifecycle result.
    #[must_use]
    pub fn result(&self) -> &LifecycleResult {
        &self.result
    }

    /// Fraction of non-declined demand that was eventually served (or
    /// deliberately shed, which counts as a decision, not a failure).
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.result.availability()
    }

    /// Availability expressed as nines.
    #[must_use]
    pub fn nines(&self) -> f64 {
        availability_nines(self.result.availability())
    }

    /// Lifetime carbon divided by requests actually served, gCO2e.
    #[must_use]
    pub fn grams_per_request(&self) -> f64 {
        self.result.grams_per_request().unwrap_or(0.0)
    }

    /// Carbon spent purely on retries and hedges, gCO2e.
    #[must_use]
    pub fn retry_grams(&self) -> f64 {
        self.result.total_retry_carbon().grams()
    }
}

/// Result of the resilience study: every strategy on the
/// availability/carbon plane, plus the baseline integrity check.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceStudyResult {
    strategies: Vec<StrategyOutcome>,
    baseline_bit_identical: bool,
}

impl ResilienceStudyResult {
    /// All strategies, baseline first.
    #[must_use]
    pub fn strategies(&self) -> &[StrategyOutcome] {
        &self.strategies
    }

    /// Looks a strategy up by its stable name.
    #[must_use]
    pub fn strategy(&self, name: &str) -> Option<&StrategyOutcome> {
        self.strategies.iter().find(|s| s.name() == name)
    }

    /// The fault-free baseline outcome.
    ///
    /// # Panics
    ///
    /// Panics if the study did not record a baseline (it always does).
    #[must_use]
    pub fn baseline(&self) -> &StrategyOutcome {
        self.strategy("fault-free-baseline")
            .expect("the study always runs a baseline")
    }

    /// Whether the disabled fault machinery reproduced the plain run
    /// bit for bit. `false` means the failure-aware path leaks into
    /// healthy serving — a regression.
    #[must_use]
    pub fn baseline_bit_identical(&self) -> bool {
        self.baseline_bit_identical
    }

    /// The carbon price of availability between two strategies:
    /// `(Δ gCO2e/request) / (Δ nines)`, positive when `better` buys its
    /// extra nines with extra carbon. `None` when the nines don't differ.
    #[must_use]
    pub fn grams_per_nine(&self, worse: &str, better: &str) -> Option<f64> {
        let worse = self.strategy(worse)?;
        let better = self.strategy(better)?;
        let delta_nines = better.nines() - worse.nines();
        if delta_nines.abs() < 1e-12 {
            return None;
        }
        Some((better.grams_per_request() - worse.grams_per_request()) / delta_nines)
    }

    /// The strategy comparison table the README quotes.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "buying availability with carbon (identical fault plan)",
            vec![
                "strategy".into(),
                "availability".into(),
                "nines".into(),
                "failed (M)".into(),
                "shed (M)".into(),
                "gCO2e/request".into(),
                "retry kg".into(),
                "downtime windows".into(),
            ],
        );
        for s in &self.strategies {
            table.push_row(vec![
                s.name().to_owned(),
                format!("{:.6}", s.availability()),
                format!("{:.2}", s.nines()),
                format!("{:.3}", s.result().failed_requests() / 1e6),
                format!("{:.3}", s.result().low_priority_shed_requests() / 1e6),
                format!("{:.6}", s.grams_per_request()),
                format!("{:.3}", s.retry_grams() / 1e3),
                s.result().downtime_windows(0.5).to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use junkyard_fleet::lifecycle::LifecycleConfig;

    use super::*;

    fn tiny_study() -> ResilienceStudy {
        ResilienceStudy::quick()
            .horizon_days(10)
            .windows_per_day(2)
            .base_qps(900.0)
    }

    #[test]
    fn baseline_is_clean_and_bit_identical() {
        let result = tiny_study().run().unwrap();
        assert!(result.baseline_bit_identical());
        let baseline = result.baseline();
        assert_eq!(baseline.result().failed_requests(), 0.0);
        assert_eq!(baseline.availability(), 1.0);
        assert_eq!(baseline.nines(), 9.0);
        assert_eq!(baseline.retry_grams(), 0.0);
    }

    #[test]
    fn strategies_trade_availability_for_carbon() {
        // A seed whose short-horizon fault plan actually strikes.
        let result = tiny_study().seed(7).run().unwrap();
        let unmitigated = result.strategy("unmitigated").unwrap();
        assert!(
            unmitigated.result().failed_requests() > 0.0,
            "the quick fault plan must strike within the horizon"
        );
        assert!(unmitigated.availability() < 1.0);

        // Retry-to-fallback recovers requests and pays for it explicitly.
        let fallback = result.strategy("retry-to-fallback").unwrap();
        assert!(fallback.availability() > unmitigated.availability());
        assert!(fallback.retry_grams() > 0.0);

        // Degrade-in-place converts failures into sheds and retries.
        let degrade = result.strategy("degrade-in-place").unwrap();
        assert!(degrade.availability() > unmitigated.availability());
        assert!(
            degrade.result().failed_requests() < unmitigated.result().failed_requests(),
            "the ladder must absorb some of the unmitigated failures"
        );

        // The price of the nines is well-defined and reported.
        assert!(result
            .grams_per_nine("unmitigated", "retry-to-fallback")
            .is_some());
        assert_eq!(result.strategies().len(), 5);
        assert_eq!(result.summary_table().rows().len(), 5);
    }

    #[test]
    fn engine_configs_are_pinned_at_both_scales() {
        // The run, horizon and fault knobs each study feeds its engines,
        // written out in full at both scales.
        let quick_run = LifecycleConfig::new(5)
            .windows_per_day(4)
            .sim_slice_s(1.0)
            .warmup_s(1.0)
            .seed(42);
        let paper_run = LifecycleConfig::new(10)
            .windows_per_day(24)
            .sim_slice_s(2.0)
            .warmup_s(1.0)
            .seed(42);
        assert_eq!(LifecycleStudy::quick().config(), quick_run);
        assert_eq!(LifecycleStudy::paper_scale().config(), paper_run);

        let quick = ResilienceStudy::quick();
        assert_eq!(
            quick.fault_config(),
            FaultConfig::disabled()
                .grid_outages(14.0, 4)
                .firmware_batches(18.0, 0.5, 8)
                .thermal_shutdowns(21.0, 2)
        );
        assert_eq!(
            *quick.mitigated_fleet().unwrap().config(),
            quick_run.horizon_days(56)
        );
        let paper = ResilienceStudy::paper_scale();
        assert_eq!(
            paper.fault_config(),
            FaultConfig::disabled()
                .grid_outages(30.0, 12)
                .firmware_batches(45.0, 0.4, 48)
                .thermal_shutdowns(60.0, 6)
        );
        assert_eq!(
            *paper.mitigated_fleet().unwrap().config(),
            paper_run.horizon_days(365)
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = tiny_study().run().unwrap();
        let b = tiny_study().parallelism(4).run().unwrap();
        assert_eq!(a, b);
    }
}
