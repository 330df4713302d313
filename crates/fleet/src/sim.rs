//! The fleet simulation: every (window, site) cell of the schedule driven
//! through the compiled microsim engine, with operational and embodied
//! carbon integrated per window.
//!
//! Cells are independent simulations, so [`FleetSim::run`] fans them out
//! through [`fanout::map_slots`] like the sweep layer: results come back
//! in cell order and totals are accumulated serially after the join, so
//! the result is identical whatever the worker count. Per-cell workload
//! seeds come from [`decorrelate_seed`], so neighbouring cells replay
//! independent arrival sequences.

use serde::{Deserialize, Serialize};

use junkyard_carbon::convert::index_u64;
use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Millis, Qps, TimeSpan};
use junkyard_microsim::sim::SimError;
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::{fanout, NoopRecorder, Recorder};

pub use crate::config::FleetConfig;
use crate::routing::{plan_window, RoutingPolicy, WindowAssignment};
use crate::schedule::{DiurnalSchedule, LoadWindow};
use crate::site::FleetSite;
use crate::{measure_slice, SliceMeasure};

/// One (window, site) cell of the accounting grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetCell {
    window: usize,
    site: usize,
    qps_start: Qps,
    qps_end: Qps,
    requests: f64,
    #[serde(default)]
    dropped_requests: f64,
    utilization: f64,
    median_ms: Millis,
    tail_ms: Millis,
    energy: Joules,
    intensity: CarbonIntensity,
    operational: GramsCo2e,
    embodied: GramsCo2e,
}

impl FleetCell {
    /// Window index of the cell.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Site index of the cell.
    #[must_use]
    pub fn site(&self) -> usize {
        self.site
    }

    /// Assigned offered load at the window start, requests/second.
    #[must_use]
    pub fn qps_start(&self) -> f64 {
        self.qps_start.per_second()
    }

    /// Assigned offered load at the window end, requests/second.
    #[must_use]
    pub fn qps_end(&self) -> f64 {
        self.qps_end.per_second()
    }

    /// Requests *served* by the site over the window: the assigned demand
    /// (mean rate × window) minus the slice-measured queue-drop share.
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Requests the site accepted but dropped at bounded application
    /// queues over the window (zero under the default unbounded
    /// `ServerModel`).
    #[must_use]
    pub fn dropped_requests(&self) -> f64 {
        self.dropped_requests
    }

    /// Demand the router assigned to the site over the window, served or
    /// not.
    #[must_use]
    pub fn offered_requests(&self) -> f64 {
        self.requests + self.dropped_requests
    }

    /// Mean CPU utilisation (0–1) measured across the site's nodes.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Median request latency of the cell's slice, ms (0 when idle).
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        self.median_ms.millis()
    }

    /// Tail (90th percentile) latency of the cell's slice, ms (0 when
    /// idle).
    #[must_use]
    pub fn tail_ms(&self) -> f64 {
        self.tail_ms.millis()
    }

    /// Electrical energy drawn over the window.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Window-mean grid carbon intensity of the site's region.
    #[must_use]
    pub fn intensity(&self) -> CarbonIntensity {
        self.intensity
    }

    /// Operational carbon of the window (grid intensity × energy, scaled).
    #[must_use]
    pub fn operational(&self) -> GramsCo2e {
        self.operational
    }

    /// Amortised embodied carbon charged to the window.
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Total carbon of the cell.
    #[must_use]
    pub fn carbon(&self) -> GramsCo2e {
        self.operational + self.embodied
    }
}

/// Result of a fleet run: the full accounting grid plus totals.
///
/// lint: conserved — every numeric field below must be pinned by a test
/// under `tests/` (the conservation audit fails otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    policy: RoutingPolicy,
    site_names: Vec<String>,
    windows: usize,
    window_duration: TimeSpan,
    /// Window-major: `cells[window * sites + site]`.
    cells: Vec<FleetCell>,
    declined_requests: f64,
    #[serde(default)]
    dropped_requests: f64,
    total_requests: f64,
    total_operational: GramsCo2e,
    total_embodied: GramsCo2e,
}

impl FleetResult {
    /// The routing policy the run used.
    #[must_use]
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Site names, in cell order.
    #[must_use]
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Number of accounting windows.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Length of one accounting window.
    #[must_use]
    pub fn window_duration(&self) -> TimeSpan {
        self.window_duration
    }

    /// The full accounting grid, window-major.
    #[must_use]
    pub fn cells(&self) -> &[FleetCell] {
        &self.cells
    }

    /// The cell of one (window, site) pair.
    #[must_use]
    pub fn cell(&self, window: usize, site: usize) -> &FleetCell {
        &self.cells[window * self.site_names.len() + site]
    }

    /// Requests the router could not place anywhere (demand beyond the
    /// fleet's aggregate capacity cap).
    #[must_use]
    pub fn router_declined_requests(&self) -> f64 {
        self.declined_requests
    }

    /// Requests sites accepted but dropped at bounded application queues
    /// (zero under the default unbounded `ServerModel`).
    #[must_use]
    pub fn queue_dropped_requests(&self) -> f64 {
        self.dropped_requests
    }

    /// Requests lost anywhere: router-declined plus queue-dropped. The
    /// two components are reported separately by
    /// [`Self::router_declined_requests`] and
    /// [`Self::queue_dropped_requests`]; this sum is the historical
    /// "shed" total and satisfies
    /// `offered == total_requests + shed_requests` within float noise.
    #[must_use]
    pub fn shed_requests(&self) -> f64 {
        self.declined_requests + self.dropped_requests
    }

    /// Requests served across the fleet and the schedule.
    #[must_use]
    pub fn total_requests(&self) -> f64 {
        self.total_requests
    }

    /// Fleet-wide operational carbon.
    #[must_use]
    pub fn total_operational(&self) -> GramsCo2e {
        self.total_operational
    }

    /// Fleet-wide amortised embodied carbon.
    #[must_use]
    pub fn total_embodied(&self) -> GramsCo2e {
        self.total_embodied
    }

    /// Fleet-wide total carbon.
    #[must_use]
    pub fn total_carbon(&self) -> GramsCo2e {
        self.total_operational + self.total_embodied
    }

    /// The headline metric: grams of CO2e per served request, or `None`
    /// when the schedule offered no traffic.
    #[must_use]
    pub fn grams_per_request(&self) -> Option<f64> {
        if self.total_requests > 0.0 {
            Some(self.total_carbon().grams() / self.total_requests)
        } else {
            None
        }
    }

    /// Carbon per request within one window, or `None` for an idle window.
    #[must_use]
    pub fn window_grams_per_request(&self, window: usize) -> Option<f64> {
        let sites = self.site_names.len();
        let cells = &self.cells[window * sites..(window + 1) * sites];
        let requests: f64 = cells.iter().map(FleetCell::requests).sum();
        if requests > 0.0 {
            Some(cells.iter().map(|c| c.carbon().grams()).sum::<f64>() / requests)
        } else {
            None
        }
    }

    /// Total requests served by one site across the schedule.
    #[must_use]
    pub fn site_requests(&self, site: usize) -> f64 {
        self.site_cells(site).map(FleetCell::requests).sum()
    }

    /// Total carbon attributed to one site across the schedule.
    #[must_use]
    pub fn site_carbon(&self, site: usize) -> GramsCo2e {
        self.site_cells(site).map(FleetCell::carbon).sum()
    }

    /// The worst tail latency any cell of a site saw, ms.
    #[must_use]
    pub fn site_worst_tail_ms(&self, site: usize) -> f64 {
        self.site_cells(site)
            .map(FleetCell::tail_ms)
            .fold(0.0, f64::max)
    }

    fn site_cells(&self, site: usize) -> impl Iterator<Item = &FleetCell> {
        self.cells.iter().filter(move |c| c.site == site)
    }
}

/// A carbon-aware cloudlet fleet: sites, a schedule, a routing policy and
/// the run configuration.
#[derive(Debug, Clone)]
pub struct FleetSim {
    sites: Vec<FleetSite>,
    schedule: DiurnalSchedule,
    policy: RoutingPolicy,
    config: FleetConfig,
}

impl FleetSim {
    /// Assembles a fleet.
    ///
    /// # Panics
    ///
    /// Panics if there are no sites.
    #[must_use]
    pub fn new(
        sites: Vec<FleetSite>,
        schedule: DiurnalSchedule,
        policy: RoutingPolicy,
        config: FleetConfig,
    ) -> Self {
        assert!(!sites.is_empty(), "a fleet needs at least one site");
        Self {
            sites,
            schedule,
            policy,
            config,
        }
    }

    /// The same fleet under a different routing policy — sites (with
    /// their compiled simulations), schedule and configuration are kept,
    /// so policy comparisons do not repeat the setup work.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The fleet's sites.
    #[must_use]
    pub fn sites(&self) -> &[FleetSite] {
        &self.sites
    }

    /// The load schedule.
    #[must_use]
    pub fn schedule(&self) -> &DiurnalSchedule {
        &self.schedule
    }

    /// The routing plan for every window of the schedule. Assignments
    /// depend only on the schedule, the capacities and the intensity
    /// traces — never on measured results — so they are computed once, up
    /// front, and every cell simulation is independent.
    #[must_use]
    pub fn assignments(&self) -> Vec<WindowAssignment> {
        self.schedule
            .windows(self.config.windows_per_day)
            .iter()
            .map(|w| plan_window(self.policy, &self.sites, w))
            .collect()
    }

    /// Runs the fleet and returns the accounting grid.
    ///
    /// Cells fan out through [`fanout::map_slots`], which returns them in
    /// cell order; the totals are accumulated serially afterwards, so the
    /// result is bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors (for example a request-type restriction
    /// the site's application does not define); with multiple failures the
    /// lowest-index cell's error wins.
    pub fn run(&self) -> Result<FleetResult, SimError> {
        self.run_with(&mut NoopRecorder)
    }

    /// [`FleetSim::run`] with routing tracing: one `route` event per
    /// (window, site) share the planner assigned traffic to, plus one
    /// per window for declined load, recorded into `recorder` on the
    /// serial side before the cell fan-out. The returned
    /// [`FleetResult`] is bit-identical to [`FleetSim::run`] for any
    /// recorder.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors; with multiple failures the
    /// lowest-index cell's error wins.
    pub fn run_with<R: Recorder>(&self, recorder: &mut R) -> Result<FleetResult, SimError> {
        let windows = self.schedule.windows(self.config.windows_per_day);
        let assignments = self.assignments();
        if recorder.enabled() {
            for (window, assignment) in windows.iter().zip(&assignments) {
                assignment.record_routes(recorder, window, self.sites.iter().map(FleetSite::name));
            }
        }
        let sites = self.sites.len();
        let n = windows.len() * sites;
        let workers = fanout::workers(self.config.parallelism, n);
        let cell_inputs: Vec<(usize, usize)> = (0..n).map(|i| (i / sites, i % sites)).collect();
        let cells = fanout::map_slots(workers, cell_inputs, |_, (w, s)| {
            self.measure_cell(w, s, &windows[w], &assignments[w])
        })?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let mut total_requests = 0.0;
        let mut dropped_requests = 0.0;
        let mut total_operational = GramsCo2e::ZERO;
        let mut total_embodied = GramsCo2e::ZERO;
        for cell in &cells {
            total_requests += cell.requests;
            dropped_requests += cell.dropped_requests;
            total_operational += cell.operational;
            total_embodied += cell.embodied;
        }
        let window_duration = windows[0].duration();
        let declined_requests = assignments
            .iter()
            .map(|a| a.declined_mean_qps() * window_duration.seconds())
            .sum();
        Ok(FleetResult {
            policy: self.policy,
            site_names: self.sites.iter().map(|s| s.name().to_owned()).collect(),
            windows: windows.len(),
            window_duration,
            cells,
            declined_requests,
            dropped_requests,
            total_requests,
            total_operational,
            total_embodied,
        })
    }

    /// Simulates and accounts one (window, site) cell.
    ///
    /// Loaded cells run a representative microsim slice (warm-up at the
    /// window's start rate, then a ramp to its end rate) whose measured
    /// utilisation and latency are extrapolated to the window; idle cells
    /// skip the simulation but still pay idle power and amortised embodied
    /// carbon.
    fn measure_cell(
        &self,
        window_idx: usize,
        site_idx: usize,
        window: &LoadWindow,
        assignment: &WindowAssignment,
    ) -> Result<FleetCell, SimError> {
        let site = &self.sites[site_idx];
        let (qps_start, qps_end) = assignment.shares()[site_idx];
        let mean_qps = (qps_start + qps_end) / 2.0;
        let cell_index = index_u64(window_idx * self.sites.len() + site_idx);

        let slice = if mean_qps > 0.0 {
            measure_slice(
                site.sim(),
                site.request_type_name(),
                self.config.warmup_s,
                self.config.sim_slice_s,
                qps_start,
                qps_end,
                decorrelate_seed(self.config.seed, cell_index),
            )?
        } else {
            SliceMeasure::default()
        };
        let energy = site.power_at(slice.utilization) * window.duration();
        let intensity = site
            .region()
            .mean_intensity_between(window.start(), window.end());
        let operational = intensity.emissions_for(energy) * site.operational_scale_factor();
        let embodied = site.embodied_over(window.duration());
        let offered = mean_qps * window.duration().seconds();
        Ok(FleetCell {
            window: window_idx,
            site: site_idx,
            qps_start: Qps::from_per_second(qps_start),
            qps_end: Qps::from_per_second(qps_end),
            requests: offered * (1.0 - slice.drop_fraction),
            dropped_requests: offered * slice.drop_fraction,
            utilization: slice.utilization,
            median_ms: Millis::from_millis(slice.median_ms),
            tail_ms: Millis::from_millis(slice.tail_ms),
            energy,
            intensity,
            operational,
            embodied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{flat_region, tiny_sim};
    use junkyard_carbon::units::Watts;

    fn site(name: &str, grams: f64, capacity: f64) -> FleetSite {
        FleetSite::new(name, &tiny_sim(), flat_region(grams), capacity)
            .power(Watts::new(2.0), Watts::new(14.0))
            .embodied(GramsCo2e::from_kilograms(3.0), TimeSpan::from_years(3.0))
    }

    fn quick_config() -> FleetConfig {
        FleetConfig::new()
            .windows_per_day(4)
            .sim_slice_s(1.0)
            .warmup_s(1.0)
    }

    #[test]
    fn fleet_run_accounts_every_cell() {
        let fleet = FleetSim::new(
            vec![site("clean", 100.0, 600.0), site("dirty", 400.0, 600.0)],
            DiurnalSchedule::office_day(500.0),
            RoutingPolicy::Static,
            quick_config(),
        );
        let result = fleet.run().unwrap();
        assert_eq!(result.windows(), 4);
        assert_eq!(result.cells().len(), 8);
        assert!(result.total_requests() > 0.0);
        assert!(result.grams_per_request().unwrap() > 0.0);
        // Loaded cells record utilisation and latency.
        let busy = result.cell(1, 0);
        assert!(busy.utilization() > 0.0);
        assert!(busy.median_ms() > 0.0);
        assert!(busy.tail_ms() >= busy.median_ms());
        // Energy never drops below idle for any cell.
        for cell in result.cells() {
            assert!(
                cell.energy().value()
                    >= (Watts::new(2.0) * result.window_duration()).value() - 1e-9
            );
        }
    }

    #[test]
    fn carbon_aware_beats_static_on_unequal_grids() {
        let sites = || vec![site("clean", 100.0, 900.0), site("dirty", 400.0, 900.0)];
        let schedule = DiurnalSchedule::office_day(700.0);
        let baseline = FleetSim::new(
            sites(),
            schedule.clone(),
            RoutingPolicy::Static,
            quick_config(),
        )
        .run()
        .unwrap();
        let aware = FleetSim::new(
            sites(),
            schedule,
            RoutingPolicy::carbon_aware(),
            quick_config(),
        )
        .run()
        .unwrap();
        assert!(
            aware.grams_per_request().unwrap() < baseline.grams_per_request().unwrap(),
            "aware {:?} vs static {:?}",
            aware.grams_per_request(),
            baseline.grams_per_request()
        );
        // Both policies served the same demand.
        assert!((aware.total_requests() - baseline.total_requests()).abs() < 1e-6);
    }

    #[test]
    fn threaded_run_is_identical_to_serial() {
        let fleet = |workers: usize| {
            FleetSim::new(
                vec![site("a", 150.0, 700.0), site("b", 350.0, 700.0)],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::carbon_aware(),
                quick_config().parallelism(workers),
            )
            .run()
            .unwrap()
        };
        let serial = fleet(1);
        let threaded = fleet(4);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn idle_fleet_still_pays_idle_power_and_embodied() {
        let fleet = FleetSim::new(
            vec![site("a", 200.0, 500.0)],
            DiurnalSchedule::flat(0.0),
            RoutingPolicy::Static,
            quick_config(),
        );
        let result = fleet.run().unwrap();
        assert_eq!(result.total_requests(), 0.0);
        assert!(result.grams_per_request().is_none());
        assert!(result.total_operational().grams() > 0.0);
        assert!(result.total_embodied().grams() > 0.0);
        for cell in result.cells() {
            assert_eq!(cell.utilization(), 0.0);
            assert_eq!(cell.requests(), 0.0);
        }
    }

    #[test]
    fn bounded_queues_split_shed_into_declined_and_dropped() {
        use crate::site::FleetSite;
        use junkyard_microsim::sim::ServerModel;
        // Capacity cap far above the two-phone site's real knee: the
        // router assigns everything and the site drops the excess at its
        // bounded application queues.
        let bounded = tiny_sim().with_server_model(ServerModel::new().with_queue_size(Some(2)));
        let fleet = FleetSim::new(
            vec![FleetSite::new("hot", &bounded, flat_region(200.0), 5_000.0)
                .power(Watts::new(2.0), Watts::new(14.0))],
            DiurnalSchedule::flat(4_000.0),
            RoutingPolicy::Static,
            quick_config(),
        );
        let result = fleet.run().unwrap();
        assert_eq!(result.router_declined_requests(), 0.0);
        assert!(result.queue_dropped_requests() > 0.0);
        assert!(
            (result.shed_requests()
                - result.router_declined_requests()
                - result.queue_dropped_requests())
            .abs()
                < 1e-9 * result.shed_requests().max(1.0)
        );
        for cell in result.cells() {
            // Relative tolerance: these totals are ~1e8, where one ulp is
            // already ~1.5e-8.
            assert!(
                (cell.offered_requests() - cell.requests() - cell.dropped_requests()).abs()
                    < 1e-9 * cell.offered_requests().max(1.0)
            );
        }
        // The default unbounded model never queue-drops.
        let unbounded = FleetSim::new(
            vec![
                FleetSite::new("hot", &tiny_sim(), flat_region(200.0), 5_000.0)
                    .power(Watts::new(2.0), Watts::new(14.0)),
            ],
            DiurnalSchedule::flat(4_000.0),
            RoutingPolicy::Static,
            quick_config(),
        )
        .run()
        .unwrap();
        assert_eq!(unbounded.queue_dropped_requests(), 0.0);
        assert_eq!(
            unbounded.shed_requests(),
            unbounded.router_declined_requests()
        );
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_fleet_panics() {
        let _ = FleetSim::new(
            vec![],
            DiurnalSchedule::flat(10.0),
            RoutingPolicy::Static,
            FleetConfig::new(),
        );
    }

    #[test]
    fn unknown_request_type_surfaces_as_an_error() {
        let bad = site("a", 200.0, 500.0).request_type("no-such-request");
        let fleet = FleetSim::new(
            vec![bad],
            DiurnalSchedule::flat(100.0),
            RoutingPolicy::Static,
            quick_config(),
        );
        assert!(matches!(
            fleet.run().unwrap_err(),
            SimError::UnknownRequestType(_)
        ));
    }
}
