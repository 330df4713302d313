//! Ready-made simulation deployments for the Section 6 evaluation: the
//! ten-phone junkyard cloudlet and the EC2 C5 comparison instances.
//!
//! This module is also the one home of the cloudlet-versus-datacenter
//! scenario the fleet, lifecycle, resilience and planner studies share:
//! the cloudlet's server fan, the c5.9xlarge backend (its serving
//! simulation, power split and lease) on a flat gas-heavy grid, and the
//! antipodal twin of a cloudlet region's grid trace.

use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard_devices::catalog::{self, C5Size};
use junkyard_fleet::site::GridRegion;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, Application};
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::{ten_pixel_cloudlet, NodeSpec};
use junkyard_microsim::placement::{Placement, PlacementError};
use junkyard_microsim::sim::{SimError, Simulation};

/// Always-on draw of a cloudlet's server fan (Section 5.2).
pub(crate) const FAN_POWER: Watts = Watts::new(4.0);

/// Embodied carbon of a cloudlet's new server fan, 9.3 kgCO2e
/// (Section 5.2).
pub(crate) const FAN_EMBODIED: GramsCo2e = GramsCo2e::new(9_300.0);

/// The c5.9xlarge's idle floor. The paper cites 140.7 W at the 10–30 %
/// utilisation it observed; the split is a dominant idle floor plus
/// [`C5_DYNAMIC_POWER`] at full load.
pub(crate) const C5_IDLE_POWER: Watts = Watts::new(120.0);

/// The c5.9xlarge's utilisation term, added at 100 % utilisation.
pub(crate) const C5_DYNAMIC_POWER: Watts = Watts::new(90.0);

/// The rented c5.9xlarge's lease: the instance's embodied carbon and the
/// four years it amortises linearly over.
#[must_use]
pub(crate) fn c5_lease() -> (GramsCo2e, TimeSpan) {
    (
        catalog::c5_instance(C5Size::XLarge9).embodied(),
        TimeSpan::from_years(4.0),
    )
}

/// The c5.9xlarge serving the social-network application, as Figure 7
/// deploys it.
///
/// # Errors
///
/// Returns [`DeploymentError`] if placement or simulation assembly fails.
pub(crate) fn c5_serving_sim() -> Result<Simulation, DeploymentError> {
    build_deployment(DeploymentKind::C5(C5Size::XLarge9), &social_network(), 11)
}

/// The datacenter's flat gas-heavy grid at 420 gCO2e/kWh, sampled
/// hourly over `days` days.
#[must_use]
pub(crate) fn gas_heavy_region(days: usize) -> GridRegion {
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(420.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(days as f64),
    );
    GridRegion::new("gas-heavy", trace)
}

/// The antipodal twin of a cloudlet region's grid trace: the same
/// samples shifted by twelve hours, so the solar trough of one region
/// lines up with the evening peak of the other.
#[must_use]
pub(crate) fn antipodal_twin(trace: &IntensityTrace) -> IntensityTrace {
    let half_day_steps = (TimeSpan::from_hours(12.0).seconds() / trace.step().seconds()).round();
    let mut values = trace.values().to_vec();
    let shift = half_day_steps as usize % values.len();
    values.rotate_left(shift);
    IntensityTrace::new(trace.step(), values)
}

/// Identifies one of the deployments compared in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeploymentKind {
    /// The ten-phone Pixel 3A cloudlet over WiFi.
    PhoneCloudlet,
    /// A single EC2 C5 instance with a colocated load generator.
    C5(C5Size),
}

impl DeploymentKind {
    /// All deployments of Figure 7, phones first.
    #[must_use]
    pub fn figure7_set() -> Vec<DeploymentKind> {
        let mut set = vec![DeploymentKind::PhoneCloudlet];
        set.extend(C5Size::ALL.iter().map(|s| DeploymentKind::C5(*s)));
        set
    }

    /// Display label used in figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeploymentKind::PhoneCloudlet => "Phones",
            DeploymentKind::C5(size) => size.label(),
        }
    }
}

/// Errors raised while building a deployment.
#[derive(Debug)]
pub enum DeploymentError {
    /// Service placement failed.
    Placement(PlacementError),
    /// Simulation assembly failed.
    Sim(SimError),
    /// A fleet site was configured with an option that does not apply to
    /// its backend kind (e.g. device failures on a leased site).
    SiteConfig(junkyard_fleet::lifecycle::SiteConfigError),
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::Placement(e) => write!(f, "placement failed: {e}"),
            DeploymentError::Sim(e) => write!(f, "simulation setup failed: {e}"),
            DeploymentError::SiteConfig(e) => write!(f, "site configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for DeploymentError {}

impl From<junkyard_fleet::lifecycle::SiteConfigError> for DeploymentError {
    fn from(value: junkyard_fleet::lifecycle::SiteConfigError) -> Self {
        DeploymentError::SiteConfig(value)
    }
}

impl From<PlacementError> for DeploymentError {
    fn from(value: PlacementError) -> Self {
        DeploymentError::Placement(value)
    }
}

impl From<SimError> for DeploymentError {
    fn from(value: SimError) -> Self {
        DeploymentError::Sim(value)
    }
}

/// Builds the simulation for one deployment of an application.
///
/// The phone cloudlet spreads services across ten Pixel 3A nodes with the
/// swarm scheduler and talks over shared WiFi; the C5 deployments place
/// everything on one node over loopback and colocate the load generator, as
/// in the paper's methodology.
///
/// # Errors
///
/// Returns [`DeploymentError`] if placement or simulation assembly fails.
pub fn build_deployment(
    kind: DeploymentKind,
    app: &Application,
    seed: u64,
) -> Result<Simulation, DeploymentError> {
    match kind {
        DeploymentKind::PhoneCloudlet => {
            let nodes = ten_pixel_cloudlet();
            let placement = Placement::swarm_spread(app, &nodes, seed)?;
            Ok(Simulation::new(
                app.clone(),
                nodes,
                placement,
                NetworkModel::phone_wifi(),
            )?)
        }
        DeploymentKind::C5(size) => {
            let device = junkyard_devices::catalog::c5_instance(size);
            let node = NodeSpec::c5(device.name(), device.cores(), device.memory_gib());
            let placement = Placement::single_node(app);
            Ok(Simulation::new(
                app.clone(),
                vec![node],
                placement,
                NetworkModel::single_node_loopback(),
            )?
            .with_colocated_client(true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_microsim::app::hotel_reservation;

    #[test]
    fn figure7_set_has_four_deployments() {
        let set = DeploymentKind::figure7_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].label(), "Phones");
        assert_eq!(set[3].label(), "c5.12xlarge");
    }

    #[test]
    fn phone_deployment_spreads_across_ten_nodes() {
        let sim =
            build_deployment(DeploymentKind::PhoneCloudlet, &hotel_reservation(), 11).unwrap();
        assert_eq!(sim.nodes().len(), 10);
        let occupied = (0..10)
            .filter(|n| !sim.placement().services_on(*n).is_empty())
            .count();
        assert_eq!(occupied, 10);
    }

    #[test]
    fn c5_deployment_is_a_single_colocated_node() {
        let sim = build_deployment(
            DeploymentKind::C5(C5Size::XLarge9),
            &hotel_reservation(),
            11,
        )
        .unwrap();
        assert_eq!(sim.nodes().len(), 1);
        assert_eq!(sim.nodes()[0].cores(), 36);
        assert_eq!(
            sim.placement().services_on(0).len(),
            hotel_reservation().services().len()
        );
    }
}
