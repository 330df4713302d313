//! Pins every numeric field of the workspace's conserved-accounting
//! structs — the structs doc-marked `lint: conserved` that
//! `junkyard_lint`'s conservation audit checks against this directory.
//!
//! Each field is bound to a local of the same name and asserted against
//! the conservation identity it participates in, so a field can neither
//! silently disappear from the accounting nor drift out of its identity
//! without a test noticing. If a numeric field is added to `RunMetrics`,
//! `FleetResult` or `LifecycleResult` and not pinned here (or in another
//! test under `tests/`), `cargo run -p junkyard_lint` fails.

use junkyard::carbon::units::{CarbonIntensity, GramsCo2e, Qps, TimeSpan, Watts};
use junkyard::devices::battery::BatterySpec;
use junkyard::fleet::faults::{DegradationLadder, FaultConfig, ResiliencePolicy, RetryPolicy};
use junkyard::fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleSim, LifecycleSite, DAYS_PER_YEAR,
};
use junkyard::fleet::routing::RoutingPolicy;
use junkyard::fleet::schedule::DiurnalSchedule;
use junkyard::fleet::sim::{FleetConfig, FleetSim};
use junkyard::fleet::site::{FleetSite, GridRegion};
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::grid::trace::IntensityTrace;
use junkyard::microsim::app::hotel_reservation;
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::NodeSpec;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::{QueueDiscipline, ServerModel, Simulation, Workload};

fn tiny_sim() -> Simulation {
    let app = hotel_reservation();
    let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

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

/// `RunMetrics`: `duration_s`, `offered` and `events` describe one run's
/// extent; offered demand lands either in a completion or a drop.
#[test]
fn run_metrics_extent_and_offered_conservation() {
    let sim = tiny_sim();
    let workload = Workload::steady(300.0, 2.0, None, 77);
    let metrics = sim.run(&workload).unwrap();

    let duration_s = metrics.duration_s();
    assert_eq!(duration_s, 2.0, "run covers the workload's duration");

    let offered = metrics.offered();
    assert!(offered > 0);
    assert_eq!(
        offered,
        metrics.completions().len() + metrics.dropped(),
        "every offered request completes or drops"
    );

    let events = metrics.events_processed();
    assert!(events as usize >= offered, "each request takes >= 1 event");
}

/// `FleetResult`: the `windows` grid dimension and the five conserved
/// totals. With bounded queues, offered demand decomposes exactly into
/// served + router-declined + queue-dropped, and carbon into
/// operational + embodied.
#[test]
fn fleet_result_conserves_offered_demand_and_carbon() {
    let model = ServerModel::new()
        .with_discipline(QueueDiscipline::CentralizedFcfs)
        .with_queue_size(Some(8));
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(400.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    let sim = tiny_sim().with_server_model(model);
    let site = FleetSite::new("a", &sim, GridRegion::new("a", trace), 500.0)
        .power(Watts::new(3.0), Watts::new(12.0))
        .embodied(GramsCo2e::from_kilograms(5.0), TimeSpan::from_years(3.0));
    let schedule = DiurnalSchedule::office_day(1_200.0);
    let offered: f64 = schedule
        .windows(4)
        .iter()
        .map(|w| w.mean_qps() * w.duration().seconds())
        .sum();
    let fleet = FleetSim::new(
        vec![site],
        schedule,
        RoutingPolicy::Static,
        FleetConfig::new()
            .windows_per_day(4)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(9),
    );
    let result = fleet.run().unwrap();

    let windows = result.windows();
    assert_eq!(windows, 4);
    assert_eq!(result.cells().len(), windows);

    let total_requests = result.total_requests();
    let declined_requests = result.router_declined_requests();
    let dropped_requests = result.queue_dropped_requests();
    assert!(
        declined_requests > 0.0,
        "demand exceeds the site's capacity"
    );
    assert!(
        (total_requests + declined_requests + dropped_requests - offered).abs() <= 1e-9 * offered,
        "served + declined + dropped == offered"
    );
    assert!(
        (result.shed_requests() - declined_requests - dropped_requests).abs()
            <= 1e-9 * result.shed_requests().max(1.0)
    );

    let total_operational = result.total_operational();
    let total_embodied = result.total_embodied();
    assert!(total_operational.grams() > 0.0);
    assert!(total_embodied.grams() > 0.0);
    assert!(
        ((total_operational + total_embodied) - result.total_carbon())
            .grams()
            .abs()
            <= 1e-9 * result.total_carbon().grams()
    );
}

/// `LifecycleResult`: the `years` grid dimension, the `horizon_seconds`
/// goodput denominator and every conserved request/carbon bucket,
/// exercised on a faulty run with the full resilience ladder so the
/// retry/hedge/reroute/brownout/shed counters are all live.
#[test]
fn lifecycle_result_conserved_buckets_pin_the_identity() {
    let trace = CaisoSynthesizer::new(5, 2)
        .step(TimeSpan::from_hours(1.0))
        .intensity_trace();
    let cohort = LifecycleSite::try_cohort(
        "cloudlet",
        &tiny_sim(),
        GridRegion::new("caiso", trace),
        vec![phone_slot(400.0), phone_slot(400.0)],
        GramsCo2e::from_kilograms(15.0),
    )
    .unwrap()
    .overhead_power(Watts::new(2.0))
    .failures(300.0, 4)
    .unwrap();
    let flat = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(420.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    let leased = LifecycleSite::try_leased(
        "datacenter",
        &tiny_sim(),
        GridRegion::new("gas", flat),
        Qps::from_per_second(400.0),
    )
    .unwrap()
    .power(Watts::new(50.0), Watts::new(40.0))
    .embodied(GramsCo2e::from_kilograms(500.0), TimeSpan::from_years(4.0));

    let horizon_days = 20usize;
    let result = LifecycleSim::new(
        vec![cohort, leased],
        DiurnalSchedule::office_day(600.0),
        RoutingPolicy::carbon_aware(),
        LifecycleConfig::new(1)
            .horizon_days(horizon_days)
            .windows_per_day(2)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(5),
    )
    .with_faults(
        FaultConfig::disabled()
            .grid_outages(4.0, 2)
            .firmware_batches(5.0, 0.6, 3)
            .thermal_shutdowns(5.0, 1),
    )
    .with_resilience(
        ResiliencePolicy::new()
            .detection_lag_windows(1)
            .retry(RetryPolicy::new(2).hedge_to_fallback())
            .degradation(
                DegradationLadder::new()
                    .shed_low_priority(0.3)
                    .brownout(1.2),
            )
            .fallback_site(1),
    )
    .run()
    .unwrap();

    let years = result.years();
    assert_eq!(years, 1);
    assert_eq!(result.cells().len(), years * 2);
    assert!(horizon_days <= DAYS_PER_YEAR);

    // The conserved buckets: everything offered lands in exactly one.
    let total_requests = result.total_requests();
    let declined_requests = result.router_declined_requests();
    let dropped_requests = result.queue_dropped_requests();
    let low_priority_shed_requests = result.low_priority_shed_requests();
    let failed_requests = result.failed_requests();
    let offered = total_requests
        + declined_requests
        + dropped_requests
        + low_priority_shed_requests
        + failed_requests;
    assert!(
        (offered - result.offered_requests()).abs() <= 1e-9 * offered.max(1.0),
        "offered_requests() reconstructs the bucket sum"
    );
    for bucket in [
        total_requests,
        declined_requests,
        dropped_requests,
        low_priority_shed_requests,
        failed_requests,
    ] {
        assert!(bucket >= 0.0, "no conserved bucket goes negative");
    }

    // Resilience bookkeeping: recovered/redirected traffic is bounded by
    // what was at risk, and retry carbon only accrues when retries ran.
    let retried_ok_requests = result.retried_ok_requests();
    let hedged_requests = result.hedged_requests();
    let rerouted_requests = result.rerouted_requests();
    let brownout_requests = result.brownout_requests();
    let total_retry_carbon = result.total_retry_carbon();
    assert!(retried_ok_requests >= 0.0 && retried_ok_requests <= total_requests);
    assert!(hedged_requests >= 0.0 && hedged_requests <= total_requests);
    assert!(rerouted_requests >= 0.0 && rerouted_requests <= total_requests);
    assert!(brownout_requests >= 0.0 && brownout_requests <= total_requests);
    assert!(total_retry_carbon.grams() >= 0.0);
    if retried_ok_requests + hedged_requests == 0.0 {
        assert_eq!(total_retry_carbon.grams(), 0.0);
    }

    // Carbon totals and the goodput denominator: lifetime carbon is
    // operational + embodied + the retries' extra operational share.
    let total_operational = result.total_operational();
    let total_embodied = result.total_embodied();
    assert!(total_operational.grams() > 0.0);
    assert!(total_embodied.grams() > 0.0);
    assert!(
        ((total_operational + total_embodied + total_retry_carbon) - result.total_carbon())
            .grams()
            .abs()
            <= 1e-9 * result.total_carbon().grams()
    );
    let horizon_seconds = horizon_days as f64 * 86_400.0;
    assert!(
        (result.goodput_qps() - total_requests / horizon_seconds).abs()
            <= 1e-9 * result.goodput_qps().max(1.0),
        "goodput divides served requests by the horizon"
    );
}
