//! The carbon-aware fleet study: the paper's cloudlet serving results
//! (Figures 7–9) coupled end to end.
//!
//! Two junk-phone cloudlets sit in two grid regions whose diurnal carbon
//! intensity curves are half a day out of phase (a synthetic CAISO-like
//! grid and its antipodal twin), with a c5.9xlarge datacenter backend on a
//! flat gas-heavy grid. A diurnal compose-post load is routed across the
//! three either with the paper's static capacity-proportional placement or
//! with the carbon-aware policy that fills the cleanest region first; the
//! fleet simulation measures serving performance per window with the
//! compiled microsim engine and integrates operational plus amortised
//! embodied carbon into gCO2e per request.

use junkyard_carbon::embodied::battery_replacement_carbon;
use junkyard_carbon::units::{Qps, TimeSpan, Watts};
use junkyard_devices::catalog;
use junkyard_fleet::lifecycle::CohortDevice;
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::sim::{FleetConfig, FleetResult, FleetSim};
use junkyard_fleet::site::{smart_charging_scale, FleetSite, GridRegion};
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};

use crate::cloudlet_study::CloudletWorkload;
use crate::deployments::{
    antipodal_twin, build_deployment, c5_lease, c5_serving_sim, gas_heavy_region, DeploymentError,
    DeploymentKind, C5_DYNAMIC_POWER, C5_IDLE_POWER, FAN_EMBODIED, FAN_POWER,
};
use crate::report::{Chart, SeriesLine, Table};

/// Serving power per phone under load (Section 6.3).
const PHONE_SERVING_WATTS: f64 = 1.7;

/// Configuration of the two-region fleet study.
#[derive(Debug, Clone)]
pub struct FleetStudy {
    base_qps: f64,
    days: usize,
    config: FleetConfig,
}

impl FleetStudy {
    /// The full-scale study: one simulated day in 24 one-hour windows, a
    /// 4-second measured slice per cell, a 4,000-QPS peak-hour demand.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            base_qps: 4_000.0,
            days: 1,
            config: FleetConfig::new().sim_slice_s(4.0),
        }
    }

    /// A reduced study for quick runs and tests: six 4-hour windows with
    /// short slices.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            base_qps: 4_000.0,
            days: 1,
            config: FleetConfig::new().windows_per_day(6).sim_slice_s(1.0),
        }
    }

    /// Overrides the peak-hour fleet demand, requests per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative.
    #[must_use]
    pub fn base_qps(mut self, qps: f64) -> Self {
        assert!(qps >= 0.0, "offered load cannot be negative");
        self.base_qps = qps;
        self
    }

    /// Overrides the number of simulated days.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn days(mut self, days: usize) -> Self {
        assert!(days > 0, "the study needs at least one day");
        self.days = days;
        self
    }

    /// Overrides the random seed (regions, workloads and routing stay
    /// deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Caps the fleet's worker threads; `1` forces serial runs.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config = self.config.parallelism(workers);
        self
    }

    /// The synthetic two-region pair: a CAISO-like west grid and its
    /// antipodal twin whose day curve is shifted by twelve hours, so the
    /// solar trough of one lines up with the evening peak of the other.
    #[must_use]
    pub fn two_region_traces(&self) -> (IntensityTrace, IntensityTrace) {
        // Smart charging needs at least one full previous day of history.
        let trace_days = self.days.max(2);
        let west = CaisoSynthesizer::new(self.config.root_seed(), trace_days).intensity_trace();
        let east = antipodal_twin(&west);
        (west, east)
    }

    /// Builds one junk-phone cloudlet site on `trace`'s grid.
    ///
    /// Couples all four substrate crates: the compiled microsim serves the
    /// traffic, the grid trace prices each window's energy, the battery
    /// crate's smart-charging policy scales operational carbon, and the
    /// carbon crate's Reuse Factor (Eq. 8) plus battery-replacement
    /// schedule (Eq. 10) set the amortised embodied bill.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the cloudlet cannot be assembled.
    pub fn phone_site(
        &self,
        name: &str,
        trace: IntensityTrace,
    ) -> Result<FleetSite, DeploymentError> {
        let app = social_network();
        let sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)?;
        let pixel = catalog::pixel_3a();
        let slot = CohortDevice::from_spec(
            &pixel,
            Qps::from_per_second(self.phone_capacity_qps() / 10.0),
        )?;
        let battery = slot.battery();
        let amortization = TimeSpan::from_years(3.0);

        // Embodied: the non-reused component share of ten phones (Reuse
        // Factor, Eq. 8), the new server fan, and the replacement battery
        // packs consumed over the amortisation lifetime (Eq. 10).
        let per_phone = slot.replacement_embodied();
        let replacements = battery_replacement_carbon(
            battery.embodied(),
            amortization,
            battery.projected_lifetime(Watts::new(PHONE_SERVING_WATTS)),
        );
        let embodied = per_phone * 10.0 + FAN_EMBODIED + replacements * 10.0;

        // Operational: smart charging shifts wall draw into the region's
        // cleanest hours; its median daily saving scales the site's
        // operational carbon (Section 4.3).
        let charging_scale = smart_charging_scale(Watts::new(PHONE_SERVING_WATTS), battery, &trace);

        // Idle/full-load power from the measured Pixel curve, plus the fan.
        let idle = Watts::new(10.0 * pixel.power().idle().value() + FAN_POWER.value());
        let dynamic = Watts::new(
            10.0 * (pixel.power().at_full_load().value() - pixel.power().idle().value()),
        );

        Ok(FleetSite::new(
            name,
            &sim,
            GridRegion::new(name, trace),
            self.phone_capacity_qps(),
        )
        .request_type(SN_COMPOSE_POST)
        .power(idle, dynamic)
        .embodied(embodied, amortization)
        .operational_scale(charging_scale))
    }

    /// Builds the c5.9xlarge datacenter backend on a flat gas-heavy grid.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the deployment cannot be assembled.
    pub fn datacenter_site(&self, name: &str) -> Result<FleetSite, DeploymentError> {
        let (embodied, lease) = c5_lease();
        Ok(FleetSite::new(
            name,
            &c5_serving_sim()?,
            gas_heavy_region(self.days.max(2)),
            CloudletWorkload::SocialNetworkWrite.paper_c5_9xlarge_qps(),
        )
        .request_type(SN_COMPOSE_POST)
        .power(C5_IDLE_POWER, C5_DYNAMIC_POWER)
        .embodied(embodied, lease))
    }

    /// Sustainable compose-post throughput of one phone cloudlet (the
    /// paper's measured saturation point).
    #[must_use]
    pub fn phone_capacity_qps(&self) -> f64 {
        CloudletWorkload::SocialNetworkWrite.paper_phone_qps()
    }

    /// Assembles the three-site fleet under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if any site cannot be built.
    pub fn build_fleet(&self, policy: RoutingPolicy) -> Result<FleetSim, DeploymentError> {
        let (west, east) = self.two_region_traces();
        let sites = vec![
            self.phone_site("cloudlet-west", west)?,
            self.phone_site("cloudlet-east", east)?,
            self.datacenter_site("datacenter")?,
        ];
        let schedule = DiurnalSchedule::office_day(self.base_qps).days(self.days);
        Ok(FleetSim::new(sites, schedule, policy, self.config))
    }

    /// Runs the study: the static-placement baseline and the carbon-aware
    /// policy over the same fleet, schedule and seeds.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a deployment cannot be built or a
    /// simulation fails.
    pub fn run(&self) -> Result<FleetStudyResult, DeploymentError> {
        // Build the fleet once — sites (compiled simulations, traces,
        // smart-charging scales) are policy-independent — and rerun it
        // under each routing policy.
        let fleet = self.build_fleet(RoutingPolicy::Static)?;
        let baseline = fleet.run().map_err(DeploymentError::Sim)?;
        let carbon_aware = fleet
            .with_policy(RoutingPolicy::carbon_aware())
            .run()
            .map_err(DeploymentError::Sim)?;
        Ok(FleetStudyResult {
            baseline,
            carbon_aware,
        })
    }
}

/// Result of the fleet study: the same fleet under both routing policies.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStudyResult {
    baseline: FleetResult,
    carbon_aware: FleetResult,
}

impl FleetStudyResult {
    /// The static-placement baseline.
    #[must_use]
    pub fn baseline(&self) -> &FleetResult {
        &self.baseline
    }

    /// The carbon-aware run.
    #[must_use]
    pub fn carbon_aware(&self) -> &FleetResult {
        &self.carbon_aware
    }

    /// Percentage of carbon per request the carbon-aware policy saves over
    /// the static baseline.
    #[must_use]
    pub fn savings_percent(&self) -> f64 {
        let base = self
            .baseline
            .grams_per_request()
            .expect("the study offers traffic");
        let aware = self
            .carbon_aware
            .grams_per_request()
            .expect("the study offers traffic");
        (1.0 - aware / base) * 100.0
    }

    /// Carbon per request over the day, one line per policy.
    #[must_use]
    pub fn chart(&self) -> Chart {
        let mut chart = Chart::new(
            "fleet — carbon per request over the day",
            "window start (hours)",
            "mgCO2e/request",
        );
        for result in [&self.baseline, &self.carbon_aware] {
            let points = (0..result.windows())
                .filter_map(|w| {
                    result
                        .window_grams_per_request(w)
                        .map(|g| (result.window_duration().hours() * w as f64, g * 1_000.0))
                })
                .collect();
            chart.push_line(SeriesLine::new(result.policy().label(), points));
        }
        chart
    }

    /// Per-site accounting table across both policies.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fleet carbon accounting by site",
            vec![
                "policy".into(),
                "site".into(),
                "requests (M)".into(),
                "carbon (kg)".into(),
                "worst tail (ms)".into(),
            ],
        );
        for result in [&self.baseline, &self.carbon_aware] {
            for (site, name) in result.site_names().iter().enumerate() {
                table.push_row(vec![
                    result.policy().label().to_owned(),
                    name.clone(),
                    format!("{:.3}", result.site_requests(site) / 1e6),
                    format!("{:.2}", result.site_carbon(site).kilograms()),
                    format!("{:.1}", result.site_worst_tail_ms(site)),
                ]);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carbon_aware_routing_cuts_carbon_per_request() {
        let result = FleetStudy::quick().run().unwrap();
        let base = result.baseline().grams_per_request().unwrap();
        let aware = result.carbon_aware().grams_per_request().unwrap();
        assert!(
            aware < base,
            "carbon-aware {aware} should beat static {base}"
        );
        assert!(result.savings_percent() > 0.0);
        // Both policies serve the same demand, and nothing is shed (the
        // fleet's aggregate capacity covers the evening peak).
        assert!(
            (result.baseline().total_requests() - result.carbon_aware().total_requests()).abs()
                < 1e-6
        );
        assert_eq!(result.baseline().shed_requests(), 0.0);
    }

    #[test]
    fn study_is_deterministic_across_thread_counts() {
        let serial = FleetStudy::quick().parallelism(1).run().unwrap();
        let threaded = FleetStudy::quick().parallelism(4).run().unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn report_artifacts_cover_both_policies() {
        let result = FleetStudy::quick().run().unwrap();
        let chart = result.chart();
        assert_eq!(chart.lines().len(), 2);
        assert!(chart.line("static").is_some());
        assert!(chart.line("carbon-aware").is_some());
        let table = result.table();
        assert_eq!(table.rows().len(), 6);
    }

    #[test]
    fn two_region_traces_are_half_a_day_out_of_phase() {
        let study = FleetStudy::quick();
        let (west, east) = study.two_region_traces();
        assert_eq!(west.len(), east.len());
        let offset = TimeSpan::from_hours(12.0);
        for h in [0.0, 6.0, 13.0, 20.0] {
            let t = TimeSpan::from_hours(h);
            assert_eq!(west.value_at(t + offset), east.value_at(t));
        }
    }

    /// `(total requests, total gCO2e, gCO2e/request)` as bit patterns.
    fn total_bits(result: &FleetResult) -> [u64; 3] {
        [
            result.total_requests().to_bits(),
            result.total_carbon().grams().to_bits(),
            result.grams_per_request().unwrap().to_bits(),
        ]
    }

    #[test]
    fn quick_study_totals_are_pinned_bit_for_bit() {
        // The fleet study writes no JSON golden, so its quick-scale
        // totals are pinned here: a refactor of the study's config or
        // sites must leave every bit of both policies' results in place.
        let result = FleetStudy::quick().run().unwrap();
        assert_eq!(
            total_bits(result.baseline()),
            [
                0x41ae_b16c_0000_0000,
                0x40a4_ee1b_a8a2_2581,
                0x3ee5_d243_3277_b029
            ]
        );
        assert_eq!(
            total_bits(result.carbon_aware()),
            [
                0x41ae_b16c_0000_0000,
                0x40a3_4d18_8541_a532,
                0x3ee4_1f7e_4d2f_6905
            ]
        );
    }

    #[test]
    fn phone_sites_carry_embodied_and_smart_charging() {
        let study = FleetStudy::quick();
        let (west, _) = study.two_region_traces();
        let site = study.phone_site("west", west).unwrap();
        // Reuse factor < 1 leaves a non-zero embodied share; battery
        // replacements and the fan add to it.
        assert!(site.embodied_total().kilograms() > 9.3);
        // Smart charging saves a few percent of operational carbon.
        let scale = site.operational_scale_factor();
        assert!(scale < 1.0 && scale > 0.8, "scale {scale}");
        assert!(site.idle_power().value() > 0.0);
    }
}
