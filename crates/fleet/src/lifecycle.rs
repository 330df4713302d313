//! Multi-year, day-stepped fleet lifecycle simulation.
//!
//! The paper's headline claim rests on *amortisation over time*: a
//! junk-phone cloudlet only beats a cloud instance on lifetime carbon if
//! the phones survive years of service, absorbing battery replacements
//! and device churn along the way (Sections 5–6). The other layers of
//! this crate each model one slice of that story — a day of smart
//! charging, one routing window of serving — and this module couples
//! them over a deployment lifetime:
//!
//! * every cohort site carries per-device [`BatteryState`]s whose wear is
//!   integrated day by day from the *simulated* smart-charging/discharge
//!   schedule (not a static replacement constant); worn packs are
//!   replaced and charged their embodied carbon on the day it happens;
//! * devices fail stochastically (seeded through [`decorrelate_seed`],
//!   so runs are deterministic at any worker count) and are replaced from
//!   junkyard stock after a configurable lag, each replacement charging
//!   its Reuse-Factor embodied share;
//! * grid traces extend periodically over the horizon
//!   ([`IntensityTrace::day_periodic`] tiling), and routing is re-planned
//!   every window from the cohort capacity actually alive that day;
//! * accounting cells are one *(year, site)* pair, fanned out through
//!   `junkyard_obs::fanout` like the sweep and fleet layers, so results
//!   are bit-identical serial or threaded.
//!
//! The serving measurements reuse the compiled microsim: within a cell,
//! identical `(start, end)` load windows share one measured slice (the
//! schedule repeats daily and capacities are piecewise-constant between
//! failure events, so the memo keeps multi-year horizons tractable).
//! While part of a cohort is down the full-strength compiled topology
//! still serves the slice and the measured utilisation is scaled by the
//! inverse alive fraction — latency during outages is therefore slightly
//! optimistic, which is acceptable for carbon accounting.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use junkyard_battery::charging::SmartChargePolicy;
use junkyard_battery::sim::simulate_day;
use junkyard_battery::state::BatteryState;
use junkyard_battery::trace_ext::DayStats;
use junkyard_carbon::convert::{count_f64, counts_ratio, index_u64, unit_draw};
use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, Millis, Qps, TimeSpan, Watts};
use junkyard_devices::battery::BatterySpec;
use junkyard_devices::components::ComponentBreakdown;
use junkyard_devices::device::DeviceSpec;
use junkyard_devices::power::LoadProfile;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::sim::{SimError, Simulation};
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::{fanout, ConservedLedger, EventKind, NoopRecorder, Recorder, TraceEvent};

pub use crate::config::LifecycleConfig;
use crate::faults::{
    resolve_window, FaultConfig, FaultPlan, ResiliencePolicy, RetryPolicy, WindowResolution,
};
use crate::routing::{plan_window_inputs, RoutingPolicy, SiteWindowInput, WindowAssignment};
use crate::schedule::{DiurnalSchedule, LoadWindow};
use crate::site::{second_life_embodied, GridRegion};
use crate::{measure_slice, SliceMeasure};

/// Days per simulated year (the lifecycle steps whole days; leap days are
/// ignored like the paper's month-granular accounting).
pub const DAYS_PER_YEAR: usize = 365;

/// A site-builder configuration error: the requested option does not
/// apply to the site's backend kind, or a parameter is out of range. The
/// message says what to do instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteConfigError {
    message: String,
}

impl SiteConfigError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The actionable error message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for SiteConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SiteConfigError {}

/// One device slot of a cohort site: the phone model occupying it, its
/// battery, what a junkyard replacement costs in embodied carbon and what
/// the slot contributes to serving capacity and power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortDevice {
    model: String,
    serving_power: Watts,
    battery: BatterySpec,
    replacement_embodied: GramsCo2e,
    capacity_qps: f64,
    idle_power: Watts,
    dynamic_power: Watts,
}

impl CohortDevice {
    /// Creates a device slot. `serving_power` is the average draw the
    /// smart-charging schedule plans against; `replacement_embodied` is
    /// the second-life (Reuse-Factor) share charged each time this slot is
    /// refilled from junkyard stock; `capacity_qps` is the slot's share of
    /// the site's serving capacity.
    ///
    /// # Panics
    ///
    /// Panics if `serving_power` or `capacity_qps` is not strictly
    /// positive.
    #[must_use]
    pub fn new(
        model: impl Into<String>,
        serving_power: Watts,
        battery: BatterySpec,
        replacement_embodied: GramsCo2e,
        capacity_qps: f64,
    ) -> Self {
        assert!(
            serving_power.value() > 0.0,
            "serving power must be positive"
        );
        assert!(capacity_qps > 0.0, "device capacity must be positive");
        Self {
            model: model.into(),
            serving_power,
            battery,
            replacement_embodied,
            capacity_qps,
            idle_power: Watts::ZERO,
            dynamic_power: Watts::ZERO,
        }
    }

    /// The slot a catalog phone fills: its Reuse-Factor replacement share
    /// as a compute node (Eq. 8), light-medium serving power and measured
    /// idle/full-load power curve. `capacity` must be strictly positive,
    /// as [`CohortDevice::new`] asserts.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] if the model carries no battery or no
    /// component breakdown (a catalog server, say).
    pub fn from_spec(device: &DeviceSpec, capacity: Qps) -> Result<Self, SiteConfigError> {
        let missing = |what| SiteConfigError::new(format!("{} carries no {what}", device.name()));
        let battery = device.battery().ok_or_else(|| missing("battery"))?;
        let components = device
            .components()
            .ok_or_else(|| missing("component breakdown"))?;
        let reuse = components.reuse_factor(&ComponentBreakdown::compute_node_role());
        let curve = device.power();
        Ok(Self::new(
            device.name(),
            device.average_power(&LoadProfile::light_medium()),
            battery,
            second_life_embodied(device.embodied(), &reuse),
            capacity.per_second(),
        )
        .power(curve.idle(), curve.at_full_load() - curve.idle()))
    }

    /// Sets the slot's electrical power model: `idle` always drawn while
    /// the device is alive, `dynamic` added at 100 % utilisation.
    #[must_use]
    pub fn power(mut self, idle: Watts, dynamic: Watts) -> Self {
        self.idle_power = idle;
        self.dynamic_power = dynamic;
        self
    }

    /// The phone model occupying the slot.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The slot's battery pack specification.
    #[must_use]
    pub fn battery(&self) -> BatterySpec {
        self.battery
    }

    /// The slot's share of the site's serving capacity, requests/second.
    #[must_use]
    pub fn capacity_qps(&self) -> f64 {
        self.capacity_qps
    }

    /// Embodied carbon charged when the slot is refilled from stock.
    #[must_use]
    pub fn replacement_embodied(&self) -> GramsCo2e {
        self.replacement_embodied
    }
}

/// How one lifecycle site is provisioned.
#[derive(Debug, Clone)]
enum Backend {
    /// A cohort of repurposed phones: per-device batteries, wear,
    /// failures and junkyard replacements.
    Cohort {
        devices: Vec<CohortDevice>,
        install_embodied: GramsCo2e,
        overhead_power: Watts,
        policy: SmartChargePolicy,
        mean_days_between_failures: f64,
        replacement_lag_days: usize,
    },
    /// Rented capacity (the cloud backend): fixed capacity, a fixed power
    /// model and embodied carbon amortised linearly over a lease lifetime.
    Leased {
        capacity_qps: f64,
        idle_power: Watts,
        dynamic_power: Watts,
        embodied: GramsCo2e,
        amortization: TimeSpan,
    },
}

/// One site of a lifecycle fleet: a compiled serving simulation, a grid
/// region (extended periodically over the horizon) and either a device
/// cohort or leased capacity.
#[derive(Debug, Clone)]
pub struct LifecycleSite {
    name: String,
    sim: CompiledSim,
    request_type: Option<String>,
    region: GridRegion,
    backend: Backend,
}

impl LifecycleSite {
    /// Creates a cohort site: `devices` drawn from the junkyard catalog
    /// serve `sim`'s traffic from `region`'s grid. `install_embodied` is
    /// charged on day 0 (the Reuse-Factor share of the initial cohort plus
    /// any new peripherals); batteries wear under the default
    /// smart-charging policy and failures are disabled until
    /// [`LifecycleSite::failures`] turns them on.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] if the cohort is empty, the region's
    /// trace does not cover a whole number of days (at least one: periodic
    /// day tiling and the sample-level wrap-around of window means must
    /// agree over a multi-year horizon), or the trace contains a
    /// non-finite intensity sample.
    pub fn try_cohort(
        name: impl Into<String>,
        sim: &Simulation,
        region: GridRegion,
        devices: Vec<CohortDevice>,
        install_embodied: GramsCo2e,
    ) -> Result<Self, SiteConfigError> {
        if devices.is_empty() {
            return Err(SiteConfigError::new(
                "a cohort needs at least one device — add CohortDevice entries or use a \
                 leased site",
            ));
        }
        Self::check_region(&region)?;
        Ok(Self {
            name: name.into(),
            sim: sim.compile(),
            request_type: None,
            region,
            backend: Backend::Cohort {
                devices,
                install_embodied,
                overhead_power: Watts::ZERO,
                policy: SmartChargePolicy::paper_default(),
                mean_days_between_failures: 0.0,
                replacement_lag_days: 0,
            },
        })
    }

    /// Creates a leased site (the datacenter backend): fixed `capacity`,
    /// no power draw and no embodied carbon until the builders set them.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] if the capacity is not strictly
    /// positive and finite, the region's trace does not cover a whole
    /// number of days, or the trace contains a non-finite intensity
    /// sample.
    pub fn try_leased(
        name: impl Into<String>,
        sim: &Simulation,
        region: GridRegion,
        capacity: Qps,
    ) -> Result<Self, SiteConfigError> {
        let capacity_qps = capacity.per_second();
        if !(capacity_qps > 0.0 && capacity_qps.is_finite()) {
            return Err(SiteConfigError::new(format!(
                "site capacity must be positive and finite, got {capacity_qps}"
            )));
        }
        Self::check_region(&region)?;
        Ok(Self {
            name: name.into(),
            sim: sim.compile(),
            request_type: None,
            region,
            backend: Backend::Leased {
                capacity_qps,
                idle_power: Watts::ZERO,
                dynamic_power: Watts::ZERO,
                embodied: GramsCo2e::ZERO,
                amortization: TimeSpan::from_years(3.0),
            },
        })
    }

    /// Shared `try_*` validation: whole-day trace coverage (periodic day
    /// tiling and sample-level wrap-around of window means must agree
    /// over a multi-year horizon) and finite intensity samples.
    fn check_region(region: &GridRegion) -> Result<(), SiteConfigError> {
        let days = region.trace().duration().days();
        if !(days >= 1.0 - 1e-9 && (days - days.round()).abs() < 1e-9) {
            return Err(SiteConfigError::new(format!(
                "a lifecycle region trace must cover a whole number of days, got {days}"
            )));
        }
        if let Some(pos) = region
            .trace()
            .values()
            .iter()
            .position(|v| !v.grams_per_kwh().is_finite())
        {
            return Err(SiteConfigError::new(format!(
                "region trace sample {pos} is not finite — carbon accounting would poison \
                 every window mean"
            )));
        }
        Ok(())
    }

    /// Restricts the site's workload to a single request type.
    #[must_use]
    pub fn request_type(mut self, name: impl Into<String>) -> Self {
        self.request_type = Some(name.into());
        self
    }

    /// Sets a cohort site's always-on overhead draw (server fan, switch).
    ///
    /// # Panics
    ///
    /// Panics on a leased site.
    #[must_use]
    pub fn overhead_power(mut self, power: Watts) -> Self {
        match &mut self.backend {
            Backend::Cohort { overhead_power, .. } => *overhead_power = power,
            Backend::Leased { .. } => panic!("overhead power applies to cohort sites"),
        }
        self
    }

    /// Overrides a cohort site's smart-charging policy.
    ///
    /// # Panics
    ///
    /// Panics on a leased site.
    #[must_use]
    pub fn charge_policy(mut self, new_policy: SmartChargePolicy) -> Self {
        match &mut self.backend {
            Backend::Cohort { policy, .. } => *policy = new_policy,
            Backend::Leased { .. } => panic!("charging policy applies to cohort sites"),
        }
        self
    }

    /// Enables stochastic device failures on a cohort site: each alive
    /// device fails with daily hazard `1 - exp(-1 / mean_days)` and its
    /// slot stays empty for `lag_days` whole days before a junkyard
    /// replacement (fresh pack included free with the donor) takes over,
    /// charging the slot's Reuse-Factor embodied share.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] on a leased site (leased backends
    /// have no device slots to fail — model their unavailability with a
    /// [`crate::faults::FaultConfig`] grid outage instead) or when
    /// `mean_days` is not strictly positive.
    pub fn failures(mut self, mean_days: f64, lag_days: usize) -> Result<Self, SiteConfigError> {
        if mean_days <= 0.0 || !mean_days.is_finite() {
            return Err(SiteConfigError::new(format!(
                "failures({mean_days}, {lag_days}) on site '{}': the mean days \
                 between failures must be a positive finite number",
                self.name
            )));
        }
        match &mut self.backend {
            Backend::Cohort {
                mean_days_between_failures,
                replacement_lag_days,
                ..
            } => {
                *mean_days_between_failures = mean_days;
                *replacement_lag_days = lag_days;
            }
            Backend::Leased { .. } => {
                return Err(SiteConfigError::new(format!(
                    "failures({mean_days}, {lag_days}) on site '{}': stochastic \
                     device failures apply to cohort sites only — a leased backend \
                     has no device slots to fail. Model a leased site's \
                     unavailability with a `FaultConfig` grid outage instead",
                    self.name
                )));
            }
        }
        Ok(self)
    }

    /// Sets a leased site's power model.
    ///
    /// # Panics
    ///
    /// Panics on a cohort site (cohort power comes from its devices).
    #[must_use]
    pub fn power(mut self, idle: Watts, dynamic: Watts) -> Self {
        match &mut self.backend {
            Backend::Leased {
                idle_power,
                dynamic_power,
                ..
            } => {
                *idle_power = idle;
                *dynamic_power = dynamic;
            }
            Backend::Cohort { .. } => panic!("cohort power comes from its devices"),
        }
        self
    }

    /// Sets a leased site's embodied carbon and its amortisation lifetime.
    ///
    /// # Panics
    ///
    /// Panics on a cohort site or if the lifetime is not strictly
    /// positive.
    #[must_use]
    pub fn embodied(mut self, total: GramsCo2e, lifetime: TimeSpan) -> Self {
        assert!(
            lifetime.seconds() > 0.0,
            "amortisation lifetime must be positive"
        );
        match &mut self.backend {
            Backend::Leased {
                embodied,
                amortization,
                ..
            } => {
                *embodied = total;
                *amortization = lifetime;
            }
            Backend::Cohort { .. } => panic!("cohort embodied carbon accrues from events"),
        }
        self
    }

    /// A `share` of this leased site: capacity, idle and dynamic power
    /// and the embodied bill scale with it, while the serving simulation
    /// and the amortisation lifetime stay the same.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] on a cohort site (its capacity comes
    /// from device slots) or if `share` is not strictly positive and
    /// finite.
    pub fn leased_share(&self, share: f64) -> Result<Self, SiteConfigError> {
        let mut site = self.clone();
        let Backend::Leased {
            capacity_qps,
            idle_power,
            dynamic_power,
            embodied,
            ..
        } = &mut site.backend
        else {
            return Err(SiteConfigError::new(format!(
                "site '{}' is a cohort site: only a leased site can be rented by share",
                self.name
            )));
        };
        if !(share > 0.0 && share.is_finite()) {
            return Err(SiteConfigError::new(format!(
                "a leased share must be positive and finite, got {share}"
            )));
        }
        *capacity_qps *= share;
        *idle_power = *idle_power * share;
        *dynamic_power = *dynamic_power * share;
        *embodied = *embodied * share;
        Ok(site)
    }

    /// Site name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid region powering the site.
    #[must_use]
    pub fn region(&self) -> &GridRegion {
        &self.region
    }

    /// The site's compiled serving simulation.
    #[must_use]
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// Serving capacity with every device alive, requests/second.
    #[must_use]
    pub fn full_capacity_qps(&self) -> f64 {
        match &self.backend {
            Backend::Cohort { devices, .. } => devices.iter().map(CohortDevice::capacity_qps).sum(),
            Backend::Leased { capacity_qps, .. } => *capacity_qps,
        }
    }

    /// Number of device slots (zero for leased sites).
    #[must_use]
    pub fn device_count(&self) -> usize {
        match &self.backend {
            Backend::Cohort { devices, .. } => devices.len(),
            Backend::Leased { .. } => 0,
        }
    }
}

/// The per-day state of one site, produced by the serial dynamics pass:
/// who is alive, what the site can serve, what its power model looks like
/// and what embodied carbon the day's events charged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DayDynamics {
    alive: usize,
    capacity_qps: f64,
    idle_power: Watts,
    dynamic_power: Watts,
    /// Always-on draw with no battery behind it (fan, switch): billed at
    /// the grid's intensity unscaled, because smart charging cannot
    /// time-shift it.
    overhead_power: Watts,
    utilization_scale: f64,
    operational_scale: f64,
    embodied: GramsCo2e,
    battery_replacements: u32,
    device_failures: u32,
    devices_replaced: u32,
}

impl DayDynamics {
    /// Devices alive at the start of the day (zero for leased sites).
    #[must_use]
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// Serving capacity available to the router that day.
    #[must_use]
    pub fn capacity_qps(&self) -> f64 {
        self.capacity_qps
    }

    /// Operational-carbon scale earned by the day's simulated
    /// smart-charging schedule (1.0 for leased sites and flat grids).
    #[must_use]
    pub fn operational_scale(&self) -> f64 {
        self.operational_scale
    }

    /// Embodied carbon charged to the day (install, battery packs, device
    /// replacements, or the leased amortisation slice).
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Worn-out battery packs replaced during the day.
    #[must_use]
    pub fn battery_replacements(&self) -> u32 {
        self.battery_replacements
    }

    /// Devices that failed at the end of the day.
    #[must_use]
    pub fn device_failures(&self) -> u32 {
        self.device_failures
    }

    /// Failed slots refilled from junkyard stock at the start of the day.
    #[must_use]
    pub fn devices_replaced(&self) -> u32 {
        self.devices_replaced
    }
}

/// The per-day ledger merged across a fleet: what the day served and
/// emitted, for cumulative (lifetime-amortised) trajectories at day
/// granularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DayLedger {
    requests: f64,
    operational: GramsCo2e,
    embodied: GramsCo2e,
    #[serde(default)]
    retry: GramsCo2e,
}

impl DayLedger {
    /// Requests served during the day.
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Operational carbon of the day.
    #[must_use]
    pub fn operational(&self) -> GramsCo2e {
        self.operational
    }

    /// Embodied carbon charged to the day.
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Network and marginal-compute carbon of the day's retries, hedges
    /// and degraded serving (zero on a fault-free run).
    #[must_use]
    pub fn retry_carbon(&self) -> GramsCo2e {
        self.retry
    }

    /// Total carbon of the day.
    #[must_use]
    pub fn carbon(&self) -> GramsCo2e {
        self.operational + self.embodied + self.retry
    }
}

/// One (year, site) cell of the lifecycle accounting grid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LifecycleCell {
    year: usize,
    site: usize,
    requests: f64,
    #[serde(default)]
    dropped_requests: f64,
    operational: GramsCo2e,
    embodied: GramsCo2e,
    #[serde(default)]
    retry_carbon: GramsCo2e,
    battery_replacements: u32,
    device_failures: u32,
    devices_replaced: u32,
    mean_alive: f64,
    worst_median_ms: Millis,
    worst_tail_ms: Millis,
    worst_p99_ms: Millis,
    daily: Vec<DayLedger>,
}

impl LifecycleCell {
    /// Year index of the cell (0-based).
    #[must_use]
    pub fn year(&self) -> usize {
        self.year
    }

    /// Site index of the cell.
    #[must_use]
    pub fn site(&self) -> usize {
        self.site
    }

    /// Requests the site served during the year (assigned demand minus
    /// the slice-measured queue-drop share).
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Requests the site accepted but dropped at bounded application
    /// queues during the year (zero under the default unbounded
    /// `ServerModel`).
    #[must_use]
    pub fn dropped_requests(&self) -> f64 {
        self.dropped_requests
    }

    /// Operational carbon of the year.
    #[must_use]
    pub fn operational(&self) -> GramsCo2e {
        self.operational
    }

    /// Embodied carbon charged during the year (install on day 0, battery
    /// packs, device replacements, leased amortisation slices).
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Network and marginal-compute carbon of retries, hedges and
    /// degraded serving charged to the site during the year (zero on a
    /// fault-free run).
    #[must_use]
    pub fn retry_carbon(&self) -> GramsCo2e {
        self.retry_carbon
    }

    /// Total carbon of the cell.
    #[must_use]
    pub fn carbon(&self) -> GramsCo2e {
        self.operational + self.embodied + self.retry_carbon
    }

    /// Battery packs replaced during the year.
    #[must_use]
    pub fn battery_replacements(&self) -> u32 {
        self.battery_replacements
    }

    /// Device failures during the year.
    #[must_use]
    pub fn device_failures(&self) -> u32 {
        self.device_failures
    }

    /// Failed slots refilled from junkyard stock during the year.
    #[must_use]
    pub fn devices_replaced(&self) -> u32 {
        self.devices_replaced
    }

    /// Mean devices alive across the year (zero for leased sites).
    #[must_use]
    pub fn mean_alive(&self) -> f64 {
        self.mean_alive
    }

    /// The worst measured median latency of the year's slices, ms.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.worst_median_ms.millis()
    }

    /// The worst measured tail (90th percentile) latency of the year's
    /// slices, ms.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.worst_tail_ms.millis()
    }

    /// The worst measured 99th-percentile latency of the year's slices,
    /// ms.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.worst_p99_ms.millis()
    }

    /// The site's per-day ledger for the year.
    #[must_use]
    pub fn daily(&self) -> &[DayLedger] {
        &self.daily
    }
}

/// The serving health of one routing window: what the router assigned to
/// sites, what was actually delivered (including retries, hedges and
/// degraded serving), and what finally failed. Request counts, not rates;
/// queue drops are accounted separately in the cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowHealth {
    offered: f64,
    served: f64,
    failed: f64,
}

impl WindowHealth {
    /// Requests the router assigned to sites during the window.
    #[must_use]
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Requests delivered during the window (first attempts plus
    /// retries, hedges, reroutes and brown-out serving).
    #[must_use]
    pub fn served(&self) -> f64 {
        self.served
    }

    /// Requests that failed during the window after the whole
    /// retry/degradation ladder.
    #[must_use]
    pub fn failed(&self) -> f64 {
        self.failed
    }

    /// The window's success rate: delivered over assigned (1.0 for an
    /// idle window).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.offered > 0.0 {
            (self.offered - self.failed) / self.offered
        } else {
            1.0
        }
    }
}

/// Result of a lifecycle run: the (year, site) accounting grid, a
/// fleet-wide per-day ledger and lifetime totals.
///
/// lint: conserved — every numeric field below must be pinned by a test
/// under `tests/` (the conservation audit fails otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleResult {
    policy: RoutingPolicy,
    site_names: Vec<String>,
    years: usize,
    /// Year-major: `cells[year * sites + site]`.
    cells: Vec<LifecycleCell>,
    day_ledger: Vec<DayLedger>,
    declined_requests: f64,
    #[serde(default)]
    dropped_requests: f64,
    total_requests: f64,
    total_operational: GramsCo2e,
    total_embodied: GramsCo2e,
    #[serde(default)]
    failed_requests: f64,
    #[serde(default)]
    retried_ok_requests: f64,
    #[serde(default)]
    hedged_requests: f64,
    #[serde(default)]
    rerouted_requests: f64,
    #[serde(default)]
    brownout_requests: f64,
    #[serde(default)]
    low_priority_shed_requests: f64,
    #[serde(default)]
    total_retry_carbon: GramsCo2e,
    #[serde(default)]
    window_health: Vec<WindowHealth>,
    #[serde(default)]
    horizon_seconds: f64,
}

impl LifecycleResult {
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

    /// Simulated years.
    #[must_use]
    pub fn years(&self) -> usize {
        self.years
    }

    /// The full accounting grid, year-major.
    #[must_use]
    pub fn cells(&self) -> &[LifecycleCell] {
        &self.cells
    }

    /// The cell of one (year, site) pair.
    #[must_use]
    pub fn cell(&self, year: usize, site: usize) -> &LifecycleCell {
        &self.cells[year * self.site_names.len() + site]
    }

    /// The fleet-wide per-day ledger (length `years * 365`).
    #[must_use]
    pub fn day_ledger(&self) -> &[DayLedger] {
        &self.day_ledger
    }

    /// Requests the router could not place anywhere over the horizon
    /// (demand beyond the fleet's aggregate capacity cap).
    #[must_use]
    pub fn router_declined_requests(&self) -> f64 {
        self.declined_requests
    }

    /// Requests sites accepted but dropped at bounded application queues
    /// over the horizon (zero under the default unbounded `ServerModel`).
    #[must_use]
    pub fn queue_dropped_requests(&self) -> f64 {
        self.dropped_requests
    }

    /// Requests deliberately lost anywhere: router-declined plus
    /// queue-dropped plus low-priority shed from the degradation ladder
    /// — the historical "shed" total. The components are reported
    /// separately by [`Self::router_declined_requests`],
    /// [`Self::queue_dropped_requests`] and
    /// [`Self::low_priority_shed_requests`]. Requests that *failed*
    /// (landed on dead capacity and exhausted the ladder) are not shed —
    /// see [`Self::failed_requests`].
    #[must_use]
    pub fn shed_requests(&self) -> f64 {
        self.declined_requests + self.dropped_requests + self.low_priority_shed_requests
    }

    /// Requests that failed over the horizon: sent to capacity that was
    /// not actually there (stale health view) and not recovered by
    /// retries, hedging or the degradation ladder. Zero on a fault-free
    /// run.
    #[must_use]
    pub fn failed_requests(&self) -> f64 {
        self.failed_requests
    }

    /// Requests recovered by client retries over the horizon.
    #[must_use]
    pub fn retried_ok_requests(&self) -> f64 {
        self.retried_ok_requests
    }

    /// Requests recovered by hedging to the standby fallback site.
    #[must_use]
    pub fn hedged_requests(&self) -> f64 {
        self.hedged_requests
    }

    /// Requests recovered by the operator reroute rung.
    #[must_use]
    pub fn rerouted_requests(&self) -> f64 {
        self.rerouted_requests
    }

    /// Requests served at degraded quality by the brown-out rung.
    #[must_use]
    pub fn brownout_requests(&self) -> f64 {
        self.brownout_requests
    }

    /// Requests shed as low-priority by the degradation ladder.
    #[must_use]
    pub fn low_priority_shed_requests(&self) -> f64 {
        self.low_priority_shed_requests
    }

    /// Network and marginal-compute carbon of every retry, hedge and
    /// degraded serving attempt over the horizon — the explicit carbon
    /// price of the resilience machinery, kept out of
    /// [`Self::total_operational`] so it is separately attributable.
    #[must_use]
    pub fn total_retry_carbon(&self) -> GramsCo2e {
        self.total_retry_carbon
    }

    /// Everything the schedule offered over the horizon, reconstructed
    /// from the conserved buckets: served + declined + queue-dropped +
    /// low-priority shed + failed.
    #[must_use]
    pub fn offered_requests(&self) -> f64 {
        self.total_requests
            + self.declined_requests
            + self.dropped_requests
            + self.low_priority_shed_requests
            + self.failed_requests
    }

    /// Request availability over the horizon: the fraction of requests
    /// assigned to sites that did not fail (1.0 when nothing was
    /// assigned). Declines are capacity planning, not failures, so they
    /// do not count against availability.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let assigned = self.total_requests
            + self.dropped_requests
            + self.low_priority_shed_requests
            + self.failed_requests;
        if assigned > 0.0 {
            1.0 - self.failed_requests / assigned
        } else {
            1.0
        }
    }

    /// The simulated horizon in seconds (window count times window
    /// duration).
    #[must_use]
    pub fn horizon_seconds(&self) -> f64 {
        self.horizon_seconds
    }

    /// The per-window serving health series (one entry per routing
    /// window; all-healthy on a fault-free run).
    #[must_use]
    pub fn window_health(&self) -> &[WindowHealth] {
        &self.window_health
    }

    /// Per-window success rates, in window order.
    #[must_use]
    pub fn window_success_rates(&self) -> Vec<f64> {
        self.window_health
            .iter()
            .map(WindowHealth::success_rate)
            .collect()
    }

    /// Number of downtime windows: windows whose success rate fell
    /// strictly below `threshold` (e.g. `0.5` for majority-failed).
    #[must_use]
    pub fn downtime_windows(&self, threshold: f64) -> usize {
        self.window_health
            .iter()
            .filter(|h| h.success_rate() < threshold)
            .count()
    }

    /// Goodput: successfully served requests per second of horizon.
    #[must_use]
    pub fn goodput_qps(&self) -> f64 {
        if self.horizon_seconds > 0.0 {
            self.total_requests / self.horizon_seconds
        } else {
            0.0
        }
    }

    /// Requests served across the fleet and the horizon.
    #[must_use]
    pub fn total_requests(&self) -> f64 {
        self.total_requests
    }

    /// Lifetime operational carbon.
    #[must_use]
    pub fn total_operational(&self) -> GramsCo2e {
        self.total_operational
    }

    /// Lifetime embodied carbon.
    #[must_use]
    pub fn total_embodied(&self) -> GramsCo2e {
        self.total_embodied
    }

    /// Lifetime total carbon, the retry/hedge carbon included.
    #[must_use]
    pub fn total_carbon(&self) -> GramsCo2e {
        self.total_operational + self.total_embodied + self.total_retry_carbon
    }

    /// Lifetime-amortised grams of CO2e per served request, or `None` if
    /// nothing was served.
    #[must_use]
    pub fn grams_per_request(&self) -> Option<f64> {
        if self.total_requests > 0.0 {
            Some(self.total_carbon().grams() / self.total_requests)
        } else {
            None
        }
    }

    /// Cumulative (lifetime-amortised) grams per request through the end
    /// of day `day` (0-based), or `None` if nothing was served yet.
    #[must_use]
    pub fn grams_per_request_through_day(&self, day: usize) -> Option<f64> {
        let mut requests = 0.0;
        let mut carbon = 0.0;
        for ledger in &self.day_ledger[..=day.min(self.day_ledger.len() - 1)] {
            requests += ledger.requests();
            carbon += ledger.carbon().grams();
        }
        if requests > 0.0 {
            Some(carbon / requests)
        } else {
            None
        }
    }

    /// The Figure 7-style amortised trajectory: cumulative gCO2e/request
    /// through the end of each year, as `(years_elapsed, grams)` points.
    #[must_use]
    pub fn yearly_trajectory(&self) -> Vec<(f64, f64)> {
        let mut requests = 0.0;
        let mut carbon = 0.0;
        let mut points = Vec::with_capacity(self.years);
        for year in 0..self.years {
            for site in 0..self.site_names.len() {
                let cell = self.cell(year, site);
                requests += cell.requests();
                carbon += cell.carbon().grams();
            }
            if requests > 0.0 {
                points.push((count_f64(year + 1), carbon / requests));
            }
        }
        points
    }

    /// The first day whose cumulative amortised carbon per request is
    /// strictly below `other`'s, or `None` if it never crosses: the
    /// crossover day of a cloudlet-versus-datacenter comparison.
    #[must_use]
    pub fn first_day_cheaper_than(&self, other: &LifecycleResult) -> Option<usize> {
        let days = self.day_ledger.len().min(other.day_ledger.len());
        let (mut req_a, mut co2_a, mut req_b, mut co2_b) = (0.0, 0.0, 0.0, 0.0);
        for day in 0..days {
            req_a += self.day_ledger[day].requests();
            co2_a += self.day_ledger[day].carbon().grams();
            req_b += other.day_ledger[day].requests();
            co2_b += other.day_ledger[day].carbon().grams();
            if req_a > 0.0 && req_b > 0.0 && co2_a / req_a < co2_b / req_b {
                return Some(day);
            }
        }
        None
    }

    /// The worst measured median latency across every cell, ms — the
    /// planner's median-SLO hook.
    ///
    /// Slices are measured on the full-strength topology even on days
    /// when part of a cohort is down (only utilisation is rescaled by
    /// the alive fraction — see the module docs), so outage-day
    /// latencies are optimistic. Capacity-driven effects still register:
    /// routing re-plans against the alive capacity, and overload shows
    /// up as shed. This caveat applies to all three `worst_*` hooks.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_median_ms)
            .fold(0.0, f64::max)
    }

    /// The worst measured tail (90th percentile) latency across every
    /// cell, ms — the planner's tail-SLO hook.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_tail_ms)
            .fold(0.0, f64::max)
    }

    /// The worst measured 99th-percentile latency across every cell, ms.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_p99_ms)
            .fold(0.0, f64::max)
    }

    /// Fraction of the offered demand lost anywhere — router-declined or
    /// queue-dropped — out of everything offered (0 when nothing was
    /// offered). The planner's shed-ceiling hook; under the default
    /// unbounded `ServerModel` it reduces to the router-declined fraction.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.total_requests + self.shed_requests();
        if offered > 0.0 {
            self.shed_requests() / offered
        } else {
            0.0
        }
    }

    /// Battery packs replaced across the fleet and the horizon.
    #[must_use]
    pub fn total_battery_replacements(&self) -> u32 {
        self.cells
            .iter()
            .map(LifecycleCell::battery_replacements)
            .sum()
    }

    /// Device failures across the fleet and the horizon.
    #[must_use]
    pub fn total_device_failures(&self) -> u32 {
        self.cells.iter().map(LifecycleCell::device_failures).sum()
    }

    /// Failed slots refilled from junkyard stock across the horizon.
    #[must_use]
    pub fn total_devices_replaced(&self) -> u32 {
        self.cells.iter().map(LifecycleCell::devices_replaced).sum()
    }
}

/// The runtime state of one cohort slot during the dynamics pass.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    battery: BatteryState,
    /// `Some(day)` while the slot is down: it refills at the start of
    /// `day`.
    down_until: Option<usize>,
}

/// A multi-year fleet lifecycle simulation.
#[derive(Debug, Clone)]
pub struct LifecycleSim {
    sites: Vec<LifecycleSite>,
    schedule: DiurnalSchedule,
    policy: RoutingPolicy,
    config: LifecycleConfig,
    faults: FaultConfig,
    resilience: ResiliencePolicy,
}

impl LifecycleSim {
    /// Assembles a lifecycle run. `schedule`'s day curve is repeated over
    /// the whole horizon (its own day count is overridden).
    ///
    /// # Panics
    ///
    /// Panics if there are no sites.
    #[must_use]
    pub fn new(
        sites: Vec<LifecycleSite>,
        schedule: DiurnalSchedule,
        policy: RoutingPolicy,
        config: LifecycleConfig,
    ) -> Self {
        assert!(!sites.is_empty(), "a lifecycle needs at least one site");
        Self {
            sites,
            schedule,
            policy,
            config,
            faults: FaultConfig::disabled(),
            resilience: ResiliencePolicy::new(),
        }
    }

    /// Injects a correlated fault schedule: a deterministic
    /// [`FaultPlan`] of grid outages, firmware-batch failures and
    /// thermal shutdowns is generated from `config` (seeded from the run
    /// seed) and applied on top of the per-device daily dynamics. A
    /// disabled config is exactly equivalent to no faults at all —
    /// bit-identical results.
    #[must_use]
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        self.faults = config;
        self
    }

    /// Installs the failure-aware serving policy: health-view detection
    /// lag, client retries/hedging and the operator degradation ladder.
    /// Without faults and without a standby fallback site this changes
    /// nothing — results stay bit-identical to the plain run.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a fallback site index out of range.
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        if let Some(site) = policy.fallback() {
            assert!(
                site < self.sites.len(),
                "fallback site index {site} out of range ({} sites)",
                self.sites.len()
            );
        }
        self.resilience = policy;
        self
    }

    /// The fleet's sites.
    #[must_use]
    pub fn sites(&self) -> &[LifecycleSite] {
        &self.sites
    }

    /// The run configuration.
    #[must_use]
    pub fn config(&self) -> &LifecycleConfig {
        &self.config
    }

    /// The serial dynamics pass for one site: day-stepped battery wear
    /// under the smart-charging schedule, pack replacements, stochastic
    /// failures and junkyard refills. Deterministic for a given seed —
    /// worker threads never touch this state.
    fn simulate_dynamics(&self, site_index: usize, days: usize) -> Vec<DayDynamics> {
        let site = &self.sites[site_index];
        match &site.backend {
            Backend::Leased {
                capacity_qps,
                idle_power,
                dynamic_power,
                embodied,
                amortization,
            } => {
                let daily_embodied =
                    *embodied * (TimeSpan::from_days(1.0).seconds() / amortization.seconds());
                (0..days)
                    .map(|_| DayDynamics {
                        alive: 0,
                        capacity_qps: *capacity_qps,
                        idle_power: *idle_power,
                        dynamic_power: *dynamic_power,
                        overhead_power: Watts::ZERO,
                        utilization_scale: 1.0,
                        operational_scale: 1.0,
                        embodied: daily_embodied,
                        battery_replacements: 0,
                        device_failures: 0,
                        devices_replaced: 0,
                    })
                    .collect()
            }
            Backend::Cohort {
                devices,
                install_embodied,
                overhead_power,
                policy,
                mean_days_between_failures,
                replacement_lag_days,
            } => {
                let trace = site.region().trace();
                let trace_days = trace.day_count();
                let day_traces: Vec<IntensityTrace> =
                    (0..trace_days).filter_map(|d| trace.day(d)).collect();
                let day_stats: Vec<DayStats> =
                    day_traces.iter().map(DayStats::from_trace).collect();

                let site_seed = decorrelate_seed(self.config.seed, index_u64(site_index) + 1);
                let daily_hazard = if *mean_days_between_failures > 0.0 {
                    1.0 - (-1.0 / mean_days_between_failures).exp()
                } else {
                    0.0
                };

                let mut slots: Vec<SlotState> = devices
                    .iter()
                    .map(|d| SlotState {
                        battery: BatteryState::new_full(d.battery),
                        down_until: None,
                    })
                    .collect();
                let mut dynamics = Vec::with_capacity(days);

                for day in 0..days {
                    let mut embodied_today = GramsCo2e::ZERO;
                    let mut devices_replaced = 0;
                    if day == 0 {
                        embodied_today += *install_embodied;
                    }
                    // Junkyard refills due today: a fresh donor device with
                    // its own (free) pack fills the slot.
                    for (slot, device) in slots.iter_mut().zip(devices) {
                        if slot.down_until == Some(day) {
                            slot.battery = BatteryState::new_full(device.battery);
                            slot.down_until = None;
                            devices_replaced += 1;
                            embodied_today += device.replacement_embodied();
                        }
                    }

                    let mut alive = 0;
                    let mut capacity = 0.0;
                    let mut idle = Watts::ZERO;
                    let mut dynamic = Watts::ZERO;
                    let mut baseline = GramsCo2e::ZERO;
                    let mut smart = GramsCo2e::ZERO;
                    let mut battery_replacements = 0;
                    let day_trace = &day_traces[day % trace_days];
                    let previous = if day == 0 {
                        None
                    } else {
                        Some(&day_stats[(day + trace_days - 1) % trace_days])
                    };
                    for (slot, device) in slots.iter_mut().zip(devices) {
                        if slot.down_until.is_some() {
                            continue;
                        }
                        alive += 1;
                        capacity += device.capacity_qps();
                        idle += device.idle_power;
                        dynamic += device.dynamic_power;
                        let run = simulate_day(
                            *policy,
                            device.serving_power,
                            &mut slot.battery,
                            day_trace,
                            previous,
                            None,
                        );
                        baseline += run.baseline_carbon();
                        smart += run.smart_carbon();
                        battery_replacements += run.packs_replaced();
                        embodied_today +=
                            device.battery.embodied() * f64::from(run.packs_replaced());
                    }

                    // Failures strike at the end of the day; the slot is
                    // down for `lag` whole days starting tomorrow.
                    let mut device_failures = 0;
                    if daily_hazard > 0.0 {
                        for (index, slot) in slots.iter_mut().enumerate() {
                            if slot.down_until.is_some() {
                                continue;
                            }
                            let draw = decorrelate_seed(
                                site_seed,
                                index_u64(day * devices.len() + index) + 1,
                            );
                            let unit = unit_draw(draw);
                            if unit < daily_hazard {
                                slot.down_until = Some(day + 1 + replacement_lag_days);
                                device_failures += 1;
                            }
                        }
                    }

                    dynamics.push(DayDynamics {
                        alive,
                        capacity_qps: capacity,
                        idle_power: idle,
                        dynamic_power: dynamic,
                        overhead_power: *overhead_power,
                        utilization_scale: if alive > 0 {
                            counts_ratio(devices.len(), alive)
                        } else {
                            1.0
                        },
                        operational_scale: if baseline.grams() > 0.0 {
                            smart.grams() / baseline.grams()
                        } else {
                            1.0
                        },
                        embodied: embodied_today,
                        battery_replacements,
                        device_failures,
                        devices_replaced,
                    });
                }
                dynamics
            }
        }
    }

    /// Runs the lifecycle and returns the accounting grid.
    ///
    /// The serial stages (per-site daily dynamics, the fault plan,
    /// per-window routing plans and resolutions) run first; the
    /// (year, site) measurement cells then fan out across scoped worker
    /// threads into pre-assigned slots, so the result is bit-identical at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors; with multiple failures the
    /// lowest-index cell's error wins.
    pub fn run(&self) -> Result<LifecycleResult, SimError> {
        self.run_with(&mut NoopRecorder)
    }

    /// [`LifecycleSim::run`] with lifecycle tracing: per-(window, site)
    /// routing decisions, fault/retry/hedge/degradation transitions,
    /// and the conservation ledger (per-window request identity,
    /// per-day carbon identity) are recorded into `recorder`.
    ///
    /// Every hook fires on the **serial driver side**, from state the
    /// plain run already computes — the (year, site) fan-out is
    /// untouched and the returned [`LifecycleResult`] is bit-identical
    /// to [`LifecycleSim::run`] for any recorder.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors; with multiple failures the
    /// lowest-index cell's error wins. A violated conservation identity
    /// is not an error here — it is recorded as a `ledger` event with
    /// `"violation"` as its key, so the trace stays a faithful witness.
    pub fn run_with<R: Recorder>(&self, recorder: &mut R) -> Result<LifecycleResult, SimError> {
        let plan = self.plan_windows(recorder);
        let sites = self.sites.len();
        let n = plan.years() * sites;
        let cell_inputs: Vec<(usize, usize)> = (0..n).map(|i| (i / sites, i % sites)).collect();
        let cells = fanout::map_slots(
            fanout::workers(self.config.parallelism, n),
            cell_inputs,
            |_, (year, site)| self.measure_cell(&plan, year, site),
        )?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(self.fold(&plan, cells, recorder))
    }

    /// Site names, in site order.
    fn site_names(&self) -> impl Iterator<Item = &str> {
        self.sites.iter().map(LifecycleSite::name)
    }

    /// The serial stages, in order: per-site daily dynamics, the
    /// correlated fault plan, the per-window routing plans (traced as
    /// `route` events) and the per-window resolutions (traced as fault
    /// and recovery events).
    fn plan_windows<R: Recorder>(&self, recorder: &mut R) -> WindowPlan {
        let days = self.config.total_days();
        let wpd = self.config.windows_per_day;
        let sites = self.sites.len();
        let windows = self.schedule.clone().days(days).windows(wpd);
        let dynamics: Vec<Vec<DayDynamics>> = (0..sites)
            .map(|s| self.simulate_dynamics(s, days))
            .collect();
        let fault_seed = decorrelate_seed(self.config.seed, 1 << 32);
        let faults = FaultPlan::generate(&self.faults, windows.len(), sites, wpd, fault_seed);
        let (routes, intensities) = self.route_windows(&windows, &dynamics, &faults, recorder);
        let resolutions = self.resolve_windows(&dynamics, &faults, &routes);
        let plan = WindowPlan {
            days,
            windows,
            dynamics,
            routes,
            intensities,
            resolutions,
            healthy: WindowResolution::healthy(sites),
            retry_grams: self
                .resilience
                .retry_policy()
                .map_or(0.0, RetryPolicy::attempt_grams),
        };
        if recorder.enabled() {
            for window in &plan.windows {
                plan.resolution(window.index()).record_transitions(
                    recorder,
                    window,
                    self.site_names(),
                );
            }
        }
        plan
    }

    /// The capacity the router believes site `s` has in window `w`: the
    /// day's capacity times the availability that was true `lag` windows
    /// earlier (before anything could be observed, everything looks
    /// healthy).
    fn observed_capacity(
        &self,
        dynamics: &[Vec<DayDynamics>],
        faults: &FaultPlan,
        w: usize,
        s: usize,
    ) -> f64 {
        let lag = self.resilience.lag_windows();
        let avail = if w >= lag {
            faults.availability(w - lag, s)
        } else {
            1.0
        };
        dynamics[s][w / self.config.windows_per_day].capacity_qps * avail
    }

    /// Per-window routing plans against the capacity the router
    /// *believes* is alive (a standby fallback site is planned at zero so
    /// it takes no primary traffic), plus the window-mean intensities the
    /// cells charge energy at.
    fn route_windows<R: Recorder>(
        &self,
        windows: &[LoadWindow],
        dynamics: &[Vec<DayDynamics>],
        faults: &FaultPlan,
        recorder: &mut R,
    ) -> (Vec<WindowAssignment>, Vec<Vec<CarbonIntensity>>) {
        let fallback = self.resilience.fallback();
        let mut routes = Vec::with_capacity(windows.len());
        let mut intensities = Vec::with_capacity(windows.len());
        for window in windows {
            let w = window.index();
            let window_intensities: Vec<CarbonIntensity> = self
                .sites
                .iter()
                .map(|site| {
                    site.region()
                        .mean_intensity_between(window.start(), window.end())
                })
                .collect();
            let inputs: Vec<SiteWindowInput> = (0..self.sites.len())
                .map(|s| SiteWindowInput {
                    capacity_qps: if Some(s) == fallback {
                        0.0
                    } else {
                        self.observed_capacity(dynamics, faults, w, s)
                    },
                    intensity: window_intensities[s],
                })
                .collect();
            let route = plan_window_inputs(self.policy, &inputs, window);
            if recorder.enabled() {
                route.record_routes(recorder, window, self.site_names());
            }
            routes.push(route);
            intensities.push(window_intensities);
        }
        (routes, intensities)
    }

    /// Each window's serving outcome when faults or a standby fallback
    /// can change it: first attempts against *true* capacity, then the
    /// retry rounds aimed by the stale view, the hedge, and the
    /// degradation ladder. A run with neither resolves nothing — every
    /// window reads the shared [`WindowResolution::healthy`].
    fn resolve_windows(
        &self,
        dynamics: &[Vec<DayDynamics>],
        faults: &FaultPlan,
        routes: &[WindowAssignment],
    ) -> Vec<WindowResolution> {
        if faults.is_fault_free() && self.resilience.fallback().is_none() {
            return Vec::new();
        }
        let sites = 0..self.sites.len();
        routes
            .iter()
            .enumerate()
            .map(|(w, route)| {
                let day = w / self.config.windows_per_day;
                let assigned: Vec<f64> = sites.clone().map(|s| route.site_mean_qps(s)).collect();
                let avail: Vec<f64> = sites.clone().map(|s| faults.availability(w, s)).collect();
                let true_cap: Vec<f64> = sites
                    .clone()
                    .map(|s| dynamics[s][day].capacity_qps * avail[s])
                    .collect();
                let observed_cap: Vec<f64> = sites
                    .clone()
                    .map(|s| self.observed_capacity(dynamics, faults, w, s))
                    .collect();
                resolve_window(
                    &assigned,
                    &true_cap,
                    &observed_cap,
                    &avail,
                    Some(&self.resilience),
                )
            })
            .collect()
    }

    /// Aggregates one (year, site) cell: every window of the year at this
    /// site, with microsim slices memoised by their `(start, end)` load
    /// pair — the schedule repeats daily and capacity is
    /// piecewise-constant between failure events, so only a handful of
    /// distinct slices are actually simulated.
    fn measure_cell(
        &self,
        plan: &WindowPlan,
        year: usize,
        site_idx: usize,
    ) -> Result<LifecycleCell, SimError> {
        let site = &self.sites[site_idx];
        let wpd = self.config.windows_per_day;
        let sites = self.sites.len();
        // lint:allow(nondeterministic-iteration): lookup-only memo keyed by exact (start, end) bits; window order drives the accumulation
        let mut memo: HashMap<(u64, u64), SliceMeasure> = HashMap::new();

        // The cell covers at most one year; a day-capped horizon leaves
        // the last cell short.
        let cell_start = year * DAYS_PER_YEAR;
        let cell_end = ((year + 1) * DAYS_PER_YEAR).min(plan.days);
        let year_days = &plan.dynamics[site_idx][cell_start..cell_end];
        let mut cell = LifecycleCell {
            year,
            site: site_idx,
            daily: Vec::with_capacity(year_days.len()),
            ..LifecycleCell::default()
        };
        let mut alive_sum = 0usize;
        let (mut worst_median_ms, mut worst_tail_ms, mut worst_p99_ms) =
            (0.0_f64, 0.0_f64, 0.0_f64);
        for (offset, state) in year_days.iter().enumerate() {
            let day = cell_start + offset;
            alive_sum += state.alive;
            cell.battery_replacements += state.battery_replacements;
            cell.device_failures += state.device_failures;
            cell.devices_replaced += state.devices_replaced;
            let mut day_requests = 0.0;
            let mut day_operational = GramsCo2e::ZERO;
            let mut day_retry = GramsCo2e::ZERO;
            for k in 0..wpd {
                let w = day * wpd + k;
                let window = &plan.windows[w];
                let (qps_start, qps_end) = plan.routes[w].shares()[site_idx];
                let mean_qps = (qps_start + qps_end) / 2.0;
                // The window's resolved outcome at this site: delivered
                // first-attempt ratio, true availability, and the
                // retry/hedge/degradation traffic landed here.
                let r = plan.resolution(w);
                let (ratio, avail) = (r.delivered_ratio[site_idx], r.avail[site_idx]);
                let extra_mean = r.extra_served_mean[site_idx];
                let attempt_mean = r.retry_attempt_mean[site_idx];
                // The measured slice replays only the traffic actually
                // delivered on first attempt; the scaled endpoints are the
                // memo key.
                let (eff_start, eff_end) = (qps_start * ratio, qps_end * ratio);
                let (slice, utilization) = if (eff_start + eff_end) / 2.0 > 0.0 {
                    let key = (eff_start.to_bits(), eff_end.to_bits());
                    let slice = if let Some(cached) = memo.get(&key) {
                        *cached
                    } else {
                        let seed =
                            decorrelate_seed(self.config.seed, index_u64(w * sites + site_idx) + 1);
                        let measured = measure_slice(
                            &site.sim,
                            site.request_type.as_deref(),
                            self.config.warmup_s,
                            self.config.sim_slice_s,
                            eff_start,
                            eff_end,
                            seed,
                        )?;
                        memo.insert(key, measured);
                        measured
                    };
                    // The alive *and available* devices do all the work:
                    // the independent-failure scale is further inflated
                    // by the fault availability (strictly positive here,
                    // or nothing would have been delivered to measure).
                    let scale = state.utilization_scale / avail;
                    (slice, (slice.utilization * scale).min(1.0))
                } else {
                    (SliceMeasure::default(), 0.0)
                };
                worst_median_ms = worst_median_ms.max(slice.median_ms);
                worst_tail_ms = worst_tail_ms.max(slice.tail_ms);
                worst_p99_ms = worst_p99_ms.max(slice.p99_ms);
                // Battery-backed device energy earns the smart-charging
                // scale; the overhead draw (fan, switch) has no battery
                // to time-shift it and is billed at face value. During a
                // fault, only the surviving fraction of devices draws
                // power; a fully dark site loses its overhead draw too.
                let idle_effective = state.idle_power * avail;
                let dynamic_effective = state.dynamic_power * avail;
                let device_energy =
                    (idle_effective + dynamic_effective * utilization) * window.duration();
                let overhead_energy = state.overhead_power * window.duration();
                let intensity = plan.intensities[w][site_idx];
                let op = intensity.emissions_for(device_energy) * state.operational_scale
                    + if avail > 0.0 {
                        intensity.emissions_for(overhead_energy)
                    } else {
                        GramsCo2e::ZERO
                    };
                day_operational += op;
                // The day ledger and cell totals count *served* requests;
                // the queue-dropped share is accumulated separately. Only
                // the delivered first-attempt share passes through the
                // site's queues; retry/degradation traffic landed here is
                // added on top (its queueing is folded into the marginal
                // retry-carbon charge below).
                let offered = mean_qps * window.duration().seconds();
                day_requests += offered * ratio * (1.0 - slice.drop_fraction);
                cell.dropped_requests += offered * ratio * slice.drop_fraction;
                if extra_mean > 0.0 {
                    day_requests += extra_mean * window.duration().seconds();
                }
                // Every retry/hedge attempt aimed here is charged its
                // network carbon whether it landed or not; the extras
                // that did land are charged the marginal compute of the
                // surviving devices serving them.
                if attempt_mean > 0.0 || extra_mean > 0.0 {
                    let network = GramsCo2e::new(
                        attempt_mean * window.duration().seconds() * plan.retry_grams,
                    );
                    let available_capacity = state.capacity_qps * avail;
                    let extra_util = if available_capacity > 0.0 {
                        (extra_mean / available_capacity).min(1.0)
                    } else {
                        0.0
                    };
                    let marginal = dynamic_effective * extra_util * window.duration();
                    day_retry +=
                        network + intensity.emissions_for(marginal) * state.operational_scale;
                }
            }
            cell.requests += day_requests;
            cell.operational += day_operational;
            cell.retry_carbon += day_retry;
            cell.embodied += state.embodied;
            cell.daily.push(DayLedger {
                requests: day_requests,
                operational: day_operational,
                embodied: state.embodied,
                retry: day_retry,
            });
        }

        cell.mean_alive = counts_ratio(alive_sum, year_days.len());
        cell.worst_median_ms = Millis::from_millis(worst_median_ms);
        cell.worst_tail_ms = Millis::from_millis(worst_tail_ms);
        cell.worst_p99_ms = Millis::from_millis(worst_p99_ms);
        Ok(cell)
    }

    /// Folds the cells (in cell order) into the result: horizon totals,
    /// the fleet-wide day ledger, declined demand, the per-window health
    /// series with its availability totals, and — when tracing — the
    /// conservation ledger.
    fn fold<R: Recorder>(
        &self,
        plan: &WindowPlan,
        cells: Vec<LifecycleCell>,
        recorder: &mut R,
    ) -> LifecycleResult {
        let mut day_ledger = vec![DayLedger::default(); plan.days];
        let mut total_requests = 0.0;
        let mut dropped_requests = 0.0;
        let mut total_operational = GramsCo2e::ZERO;
        let mut total_embodied = GramsCo2e::ZERO;
        let mut total_retry_carbon = GramsCo2e::ZERO;
        for cell in &cells {
            total_requests += cell.requests;
            dropped_requests += cell.dropped_requests;
            total_operational += cell.operational;
            total_embodied += cell.embodied;
            total_retry_carbon += cell.retry_carbon;
            for (offset, ledger) in cell.daily.iter().enumerate() {
                let merged = &mut day_ledger[cell.year * DAYS_PER_YEAR + offset];
                merged.requests += ledger.requests;
                merged.operational += ledger.operational;
                merged.embodied += ledger.embodied;
                merged.retry += ledger.retry;
            }
        }
        let window_s = plan.windows[0].duration().seconds();
        let declined_requests = plan
            .routes
            .iter()
            .map(|p| p.declined_mean_qps() * window_s)
            .sum();

        // Availability accounting: the resolved outcomes rolled up into
        // horizon totals and the per-window health series.
        let mut failed_requests = 0.0;
        let mut retried_ok_requests = 0.0;
        let mut hedged_requests = 0.0;
        let mut rerouted_requests = 0.0;
        let mut brownout_requests = 0.0;
        let mut low_priority_shed_requests = 0.0;
        let mut window_health = Vec::with_capacity(plan.windows.len());
        for (w, route) in plan.routes.iter().enumerate() {
            let offered: f64 = (0..self.sites.len())
                .map(|s| route.site_mean_qps(s))
                .sum::<f64>()
                * window_s;
            let r = plan.resolution(w);
            let failed = r.failed_mean * window_s;
            let lp_shed = r.lp_shed_mean * window_s;
            failed_requests += failed;
            retried_ok_requests += r.retried_ok_mean * window_s;
            hedged_requests += r.hedged_mean * window_s;
            rerouted_requests += r.rerouted_mean * window_s;
            brownout_requests += r.brownout_mean * window_s;
            low_priority_shed_requests += lp_shed;
            window_health.push(WindowHealth {
                offered,
                served: offered - failed - lp_shed,
                failed,
            });
        }
        if recorder.enabled() {
            record_conservation(plan, &window_health, &day_ledger, recorder);
        }

        LifecycleResult {
            policy: self.policy,
            site_names: self.site_names().map(str::to_owned).collect(),
            years: plan.years(),
            cells,
            day_ledger,
            declined_requests,
            dropped_requests,
            total_requests,
            total_operational,
            total_embodied,
            failed_requests,
            retried_ok_requests,
            hedged_requests,
            rerouted_requests,
            brownout_requests,
            low_priority_shed_requests,
            total_retry_carbon,
            window_health,
            horizon_seconds: count_f64(plan.windows.len()) * window_s,
        }
    }
}

/// The serial stages of a lifecycle run, computed before the
/// (year, site) fan-out and only read by the cells.
struct WindowPlan {
    days: usize,
    windows: Vec<LoadWindow>,
    /// `dynamics[site][day]`.
    dynamics: Vec<Vec<DayDynamics>>,
    routes: Vec<WindowAssignment>,
    /// `intensities[window][site]`.
    intensities: Vec<Vec<CarbonIntensity>>,
    /// One entry per window when faults or a standby fallback can change
    /// serving; empty otherwise, so a fault-free run allocates none.
    resolutions: Vec<WindowResolution>,
    healthy: WindowResolution,
    /// Network carbon of one retry or hedge attempt, grams.
    retry_grams: f64,
}

impl WindowPlan {
    /// Years the horizon spans: the number of (year) cell rows.
    fn years(&self) -> usize {
        self.days.div_ceil(DAYS_PER_YEAR)
    }

    /// The resolved serving outcome of window `w`: its own resolution on
    /// a run with faults or a fallback, the shared healthy one otherwise.
    fn resolution(&self, w: usize) -> &WindowResolution {
        self.resolutions.get(w).unwrap_or(&self.healthy)
    }
}

/// The live conservation ledger: every window's request identity and
/// every day's carbon identity re-checked at record time. A violation
/// becomes a `ledger` event keyed `"violation"` — the trace witnesses the
/// leak instead of silently absorbing it.
fn record_conservation<R: Recorder>(
    plan: &WindowPlan,
    window_health: &[WindowHealth],
    day_ledger: &[DayLedger],
    recorder: &mut R,
) {
    let window_s = plan.windows[0].duration().seconds();
    let mut ledger = ConservedLedger::new();
    for ((window, health), route) in plan.windows.iter().zip(window_health).zip(&plan.routes) {
        let declined = route.declined_mean_qps() * window_s;
        let shed = health.offered - health.served - health.failed;
        if let Err(err) = ledger.record_requests(
            health.offered + declined,
            health.served,
            declined,
            0.0,
            shed,
            health.failed,
        ) {
            recorder.event(
                TraceEvent::new(
                    EventKind::Ledger,
                    window.start().seconds(),
                    "violation",
                    health.offered,
                )
                .with_detail(&err.to_string()),
            );
        }
    }
    for (day, entry) in day_ledger.iter().enumerate() {
        let operational = entry.operational.grams();
        let embodied = entry.embodied.grams();
        let retry = entry.retry.grams();
        let total = operational + embodied + retry;
        let t = count_f64(day) * 24.0 * 3600.0;
        if let Err(err) = ledger.record_carbon(total, operational, embodied, retry) {
            recorder.event(
                TraceEvent::new(EventKind::Ledger, t, "violation", total)
                    .with_detail(&err.to_string()),
            );
        }
    }
    recorder.event(ledger.snapshot(count_f64(plan.windows.len()) * window_s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DegradationLadder;
    use crate::testutil::{flat_region, tiny_sim};
    use junkyard_grid::synth::CaisoSynthesizer;

    fn phone_slot(capacity: f64) -> CohortDevice {
        CohortDevice::new(
            "Pixel 3A",
            Watts::new(1.7),
            BatterySpec::pixel_3a(),
            GramsCo2e::from_kilograms(5.5),
            capacity,
        )
        .power(Watts::new(0.8), Watts::new(1.7))
    }

    fn diurnal_region(seed: u64) -> GridRegion {
        GridRegion::new(
            "caiso",
            CaisoSynthesizer::new(seed, 3)
                .step(TimeSpan::from_minutes(30.0))
                .intensity_trace(),
        )
    }

    fn cohort_site(seed: u64, devices: usize) -> LifecycleSite {
        LifecycleSite::try_cohort(
            "cloudlet",
            &tiny_sim(),
            diurnal_region(seed),
            (0..devices).map(|_| phone_slot(300.0)).collect(),
            GramsCo2e::from_kilograms(20.0),
        )
        .unwrap()
        .overhead_power(Watts::new(4.0))
        .failures(400.0, 5)
        .unwrap()
    }

    fn leased_site(capacity: f64) -> LifecycleSite {
        LifecycleSite::try_leased(
            "datacenter",
            &tiny_sim(),
            flat_region(420.0),
            Qps::from_per_second(capacity),
        )
        .unwrap()
        .power(Watts::new(120.0), Watts::new(90.0))
        .embodied(
            GramsCo2e::from_kilograms(1_344.0),
            TimeSpan::from_years(4.0),
        )
    }

    fn quick_config(years: usize) -> LifecycleConfig {
        LifecycleConfig::new(years)
            .windows_per_day(2)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
    }

    #[test]
    fn lifecycle_accrues_wear_failures_and_embodied_events() {
        let sim = LifecycleSim::new(
            vec![cohort_site(9, 4), leased_site(800.0)],
            DiurnalSchedule::office_day(500.0),
            RoutingPolicy::carbon_aware(),
            quick_config(3),
        );
        let result = sim.run().unwrap();
        assert_eq!(result.cells().len(), 6);
        assert_eq!(result.day_ledger().len(), 3 * DAYS_PER_YEAR);
        assert!(result.total_requests() > 0.0);
        // Pixel packs at ~1.7 W wear out in ~2.1 years: three years of
        // service must replace batteries, driven by simulated wear.
        assert!(result.total_battery_replacements() > 0);
        // A 400-day MTBF across 4 devices over 3 years virtually
        // guarantees failures — and every failure is eventually refilled.
        assert!(result.total_device_failures() > 0);
        assert!(result.total_devices_replaced() > 0);
        // Day 0 carries the cloudlet's install embodied.
        let first_day = result.cell(0, 0).daily()[0];
        assert!(first_day.embodied().kilograms() >= 20.0);
    }

    #[test]
    fn capacity_shrinks_during_outages_and_routing_responds() {
        let sim = LifecycleSim::new(
            vec![cohort_site(9, 4), leased_site(800.0)],
            DiurnalSchedule::office_day(900.0),
            RoutingPolicy::carbon_aware(),
            quick_config(2),
        );
        let dynamics = sim.simulate_dynamics(0, 2 * DAYS_PER_YEAR);
        let full = dynamics[0].capacity_qps();
        assert!((full - 1_200.0).abs() < 1e-9);
        // Outage days exist and carry reduced capacity.
        let shrunk: Vec<&DayDynamics> = dynamics.iter().filter(|d| d.alive() < 4).collect();
        assert!(!shrunk.is_empty(), "no outages in two years");
        assert!(shrunk.iter().all(|d| d.capacity_qps() < full));
        // And capacity recovers after the lag.
        assert!(dynamics.last().unwrap().capacity_qps() > 0.0);
        // The run itself stays capacity-safe while capacity moves.
        let result = sim.run().unwrap();
        assert!(result.total_requests() > 0.0);
        assert!(result.shed_requests() >= 0.0);
    }

    #[test]
    fn threaded_lifecycle_is_bit_identical_to_serial() {
        let run = |workers: usize| {
            LifecycleSim::new(
                vec![cohort_site(5, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::carbon_aware(),
                quick_config(2).parallelism(workers),
            )
            .run()
            .unwrap()
        };
        let serial = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(serial, run(workers), "worker count {workers}");
        }
    }

    #[test]
    fn smart_charging_scales_operational_carbon_on_diurnal_grids() {
        // A full synthetic month at the calibrated 5-minute step: coarse
        // steps blunt the policy (one 30-minute charge quantum nearly
        // fills a phone pack), so the savings assertion runs at the
        // fidelity the paper's Figure 4 uses.
        let region = GridRegion::new(
            "caiso-month",
            CaisoSynthesizer::april_2021_like(3).intensity_trace(),
        );
        let site = LifecycleSite::try_cohort(
            "cloudlet",
            &tiny_sim(),
            region,
            vec![phone_slot(300.0), phone_slot(300.0)],
            GramsCo2e::ZERO,
        )
        .unwrap();
        let sim = LifecycleSim::new(
            vec![site],
            DiurnalSchedule::flat(100.0),
            RoutingPolicy::Static,
            quick_config(1),
        );
        let dynamics = sim.simulate_dynamics(0, 30);
        // Warm-up day 0 has no history; later days shift charging into the
        // solar trough and beat the always-on-wall baseline.
        let scales: Vec<f64> = dynamics
            .iter()
            .skip(1)
            .map(DayDynamics::operational_scale)
            .collect();
        let mean = scales.iter().sum::<f64>() / scales.len() as f64;
        assert!(mean < 1.0, "mean scale {mean}");
        assert!(mean > 0.7, "mean scale {mean}");
    }

    #[test]
    fn leased_sites_amortise_embodied_linearly() {
        let sim = LifecycleSim::new(
            vec![leased_site(500.0)],
            DiurnalSchedule::flat(100.0),
            RoutingPolicy::Static,
            quick_config(1),
        );
        let result = sim.run().unwrap();
        let expected_daily = 1_344.0 / (4.0 * 365.25);
        let total = result.total_embodied().kilograms();
        assert!(
            (total - expected_daily * 365.0).abs() < 1e-6,
            "got {total} kg"
        );
        assert_eq!(result.total_battery_replacements(), 0);
    }

    #[test]
    fn trajectory_amortises_the_install_over_years() {
        let sim = LifecycleSim::new(
            vec![cohort_site(11, 3)],
            DiurnalSchedule::flat(200.0),
            RoutingPolicy::Static,
            quick_config(3),
        );
        let result = sim.run().unwrap();
        let trajectory = result.yearly_trajectory();
        assert_eq!(trajectory.len(), 3);
        // Cumulative carbon per request falls as the install amortises
        // (battery replacements notwithstanding at this light load).
        assert!(trajectory[0].1 > trajectory[2].1);
        let through_first_year = result
            .grams_per_request_through_day(DAYS_PER_YEAR - 1)
            .unwrap();
        assert!((through_first_year - trajectory[0].1).abs() < 1e-12);
    }

    #[test]
    fn day_capped_horizon_shortens_the_last_cell() {
        let sim = |config: LifecycleConfig| {
            LifecycleSim::new(
                vec![cohort_site(9, 2)],
                DiurnalSchedule::office_day(400.0),
                RoutingPolicy::Static,
                config,
            )
        };
        // Three days fit inside one (short) year cell.
        let short = sim(quick_config(1).horizon_days(3)).run().unwrap();
        assert_eq!(short.cells().len(), 1);
        assert_eq!(short.day_ledger().len(), 3);
        assert_eq!(short.cell(0, 0).daily().len(), 3);
        assert!(short.total_requests() > 0.0);
        // 400 days span two cells: a full year and a 35-day remainder.
        let spanning = sim(quick_config(1).horizon_days(400)).run().unwrap();
        assert_eq!(spanning.years(), 2);
        assert_eq!(spanning.cells().len(), 2);
        assert_eq!(spanning.cell(0, 0).daily().len(), DAYS_PER_YEAR);
        assert_eq!(spanning.cell(1, 0).daily().len(), 35);
        assert_eq!(spanning.day_ledger().len(), 400);
        // The day-capped prefix agrees with the plain run's first days.
        let full = sim(quick_config(1)).run().unwrap();
        assert_eq!(full.day_ledger()[..3], *short.day_ledger());
    }

    #[test]
    fn latency_percentile_hooks_order_sensibly_under_load() {
        let result = LifecycleSim::new(
            vec![cohort_site(9, 2)],
            DiurnalSchedule::office_day(500.0),
            RoutingPolicy::Static,
            quick_config(1).horizon_days(2),
        )
        .run()
        .unwrap();
        assert!(result.worst_median_ms() > 0.0);
        assert!(result.worst_tail_ms() >= result.worst_median_ms());
        assert!(result.worst_p99_ms() >= result.worst_tail_ms());
        assert!((0.0..=1.0).contains(&result.shed_fraction()));
    }

    #[test]
    #[should_panic(expected = "whole number of days")]
    fn partial_day_region_panics() {
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(300.0),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_hours(30.0),
        );
        let _ = LifecycleSite::try_cohort(
            "bad",
            &tiny_sim(),
            GridRegion::new("bad", trace),
            vec![phone_slot(100.0)],
            GramsCo2e::ZERO,
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "cohort power comes from its devices")]
    fn cohort_rejects_leased_builders() {
        let _ = cohort_site(1, 1).power(Watts::new(1.0), Watts::new(1.0));
    }

    #[test]
    fn leased_failures_return_an_actionable_error_instead_of_panicking() {
        let err = leased_site(500.0).failures(300.0, 4).unwrap_err();
        assert!(
            err.message().contains("cohort sites only"),
            "unexpected message: {err}"
        );
        assert!(
            err.message().contains("FaultConfig"),
            "the error should point at the fault layer: {err}"
        );
        // Out-of-range parameters error too, on any backend.
        let err = cohort_site(1, 2).failures(0.0, 4).unwrap_err();
        assert!(err.message().contains("positive"), "got: {err}");
        let err = cohort_site(1, 2).failures(f64::NAN, 4).unwrap_err();
        assert!(err.message().contains("finite"), "got: {err}");
    }

    #[test]
    fn disabled_faults_and_plain_resilience_are_bit_identical_to_baseline() {
        let build = || {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(700.0),
                RoutingPolicy::carbon_aware(),
                quick_config(1).horizon_days(30),
            )
        };
        let baseline = build().run().unwrap();
        let disabled = build().with_faults(FaultConfig::disabled()).run().unwrap();
        assert_eq!(baseline, disabled);
        // A resilience policy without faults and without a fallback site
        // changes nothing either: lag and retries only matter once
        // capacity can actually die.
        let idle_policy = build()
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(2)
                    .retry(crate::faults::RetryPolicy::new(2)),
            )
            .run()
            .unwrap();
        assert_eq!(baseline, idle_policy);
        assert_eq!(baseline.failed_requests(), 0.0);
        assert!((baseline.availability() - 1.0).abs() < 1e-12);
        assert_eq!(baseline.downtime_windows(0.999), 0);
        assert_eq!(baseline.total_retry_carbon(), GramsCo2e::ZERO);
    }

    #[test]
    fn stale_outages_fail_requests_and_an_omniscient_router_avoids_them() {
        let faults = FaultConfig::disabled().grid_outages(5.0, 3);
        let build = |lag: usize| {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(900.0),
                RoutingPolicy::carbon_aware(),
                quick_config(1).horizon_days(40),
            )
            .with_faults(faults)
            .with_resilience(ResiliencePolicy::new().detection_lag_windows(lag))
        };
        let stale = build(2).run().unwrap();
        assert!(
            stale.failed_requests() > 0.0,
            "a 5-day outage MTBF over 40 days with a stale router must fail requests"
        );
        assert!(stale.availability() < 1.0);
        assert!(!stale.window_success_rates().iter().all(|&r| r >= 1.0));
        // Detection lag zero: the router sees the truth every window, so
        // nothing lands on dead capacity and nothing fails.
        let omniscient = build(0).run().unwrap();
        assert_eq!(omniscient.failed_requests(), 0.0);
        assert!((omniscient.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retries_recover_requests_and_are_charged_their_carbon() {
        let faults = FaultConfig::disabled().firmware_batches(4.0, 0.5, 2);
        let build = |policy: ResiliencePolicy| {
            LifecycleSim::new(
                vec![cohort_site(9, 4), leased_site(900.0)],
                DiurnalSchedule::office_day(1_000.0),
                RoutingPolicy::carbon_aware(),
                quick_config(1).horizon_days(40),
            )
            .with_faults(faults)
            .with_resilience(policy)
        };
        let bare = build(ResiliencePolicy::new().detection_lag_windows(1))
            .run()
            .unwrap();
        let retrying = build(
            ResiliencePolicy::new()
                .detection_lag_windows(1)
                .retry(crate::faults::RetryPolicy::new(3)),
        )
        .run()
        .unwrap();
        assert!(bare.failed_requests() > 0.0);
        assert!(
            retrying.failed_requests() < bare.failed_requests(),
            "retries must recover some failures: {} vs {}",
            retrying.failed_requests(),
            bare.failed_requests()
        );
        assert!(retrying.retried_ok_requests() > 0.0);
        assert!(
            retrying.total_retry_carbon().grams() > 0.0,
            "every retry attempt must be charged"
        );
        assert_eq!(bare.total_retry_carbon(), GramsCo2e::ZERO);
    }

    #[test]
    fn degradation_ladder_trades_failures_for_shed_and_brownout() {
        let faults = FaultConfig::disabled().thermal_shutdowns(6.0, 2);
        let build = |policy: ResiliencePolicy| {
            LifecycleSim::new(
                vec![cohort_site(9, 4), leased_site(400.0)],
                DiurnalSchedule::office_day(1_100.0),
                RoutingPolicy::carbon_aware(),
                quick_config(1).horizon_days(40),
            )
            .with_faults(faults)
            .with_resilience(policy)
        };
        let bare = build(ResiliencePolicy::new().detection_lag_windows(1))
            .run()
            .unwrap();
        let degraded = build(
            ResiliencePolicy::new()
                .detection_lag_windows(1)
                .degradation(
                    DegradationLadder::new()
                        .shed_low_priority(0.5)
                        .brownout(1.3),
                ),
        )
        .run()
        .unwrap();
        assert!(bare.failed_requests() > 0.0);
        assert!(degraded.failed_requests() < bare.failed_requests());
        assert!(
            degraded.low_priority_shed_requests() > 0.0
                || degraded.brownout_requests() > 0.0
                || degraded.rerouted_requests() > 0.0,
            "the ladder must have done something"
        );
    }

    #[test]
    fn faulty_runs_conserve_offered_demand_and_stay_deterministic() {
        let faults = FaultConfig::disabled()
            .grid_outages(7.0, 2)
            .firmware_batches(5.0, 0.4, 3);
        let build = |workers: usize| {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(600.0)],
                DiurnalSchedule::office_day(800.0),
                RoutingPolicy::carbon_aware(),
                quick_config(1).horizon_days(35).parallelism(workers),
            )
            .with_faults(faults)
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(1)
                    .retry(crate::faults::RetryPolicy::new(2).hedge_to_fallback())
                    .degradation(DegradationLadder::new().shed_low_priority(0.3))
                    .fallback_site(1),
            )
        };
        let serial = build(1).run().unwrap();
        // Conservation: everything the schedule offered lands in exactly
        // one bucket.
        let schedule_offered: f64 = serial
            .window_health()
            .iter()
            .map(WindowHealth::offered)
            .sum::<f64>()
            + serial.router_declined_requests();
        let accounted = serial.offered_requests();
        assert!(
            (schedule_offered - accounted).abs() <= 1e-6 * schedule_offered.max(1.0),
            "conservation: offered {schedule_offered} vs accounted {accounted}"
        );
        assert!(serial.goodput_qps() > 0.0);
        // And the faulty path keeps the slot-pattern determinism.
        for workers in [2, 5] {
            assert_eq!(serial, build(workers).run().unwrap(), "workers {workers}");
        }
    }

    #[test]
    fn from_spec_builds_catalog_phones_and_rejects_servers() {
        use junkyard_devices::catalog::{self, C5Size};
        let capacity = Qps::from_per_second(300.0);
        for phone in [catalog::pixel_3a(), catalog::nexus_4()] {
            let slot = CohortDevice::from_spec(&phone, capacity).unwrap();
            assert_eq!(slot.model(), phone.name());
            assert_eq!(slot.capacity_qps(), 300.0);
            assert!(slot.replacement_embodied() > GramsCo2e::ZERO);
            assert!(slot.replacement_embodied() < phone.embodied());
        }
        // A datacenter instance has no battery: a typed error, no panic.
        let c5 = catalog::c5_instance(C5Size::XLarge9);
        let error = CohortDevice::from_spec(&c5, capacity).unwrap_err();
        assert!(error.message().contains("battery"), "{error}");
    }

    #[test]
    fn leased_share_scales_capacity_and_rejects_bad_shares() {
        let site = leased_site(500.0);
        let half = site.leased_share(0.5).unwrap();
        assert_eq!(half.full_capacity_qps(), 250.0);
        assert_eq!(half.name(), site.name());
        for share in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(site.leased_share(share).is_err(), "share {share}");
        }
        assert!(cohort_site(1, 2).leased_share(0.5).is_err());
    }

    #[test]
    fn full_leased_share_runs_bit_identical_to_the_site() {
        let run = |site: LifecycleSite| {
            LifecycleSim::new(
                vec![site],
                DiurnalSchedule::flat(100.0),
                RoutingPolicy::Static,
                quick_config(1).horizon_days(20),
            )
            .run()
            .unwrap()
        };
        let site = leased_site(500.0);
        assert_eq!(run(site.leased_share(1.0).unwrap()), run(site));
    }
}
