//! `fleet-day`: the paper-scale two-region fleet study, one day in 24
//! one-hour windows across three sites, under the static and the
//! carbon-aware routing policy. Every window offers a different load, so
//! no microsim slice repeats.

use junkyard_core::fleet_study::FleetStudy;
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::sim::{FleetResult, FleetSim};
use junkyard_obs::{EventKind, TraceRecorder};

use crate::drive::{drive, setup, timed, Ctx, Samples};
use crate::stats::{close, digest, parallel_efficiency, process_cpu_seconds};
use crate::Outcome;

/// Peak-hour fleet demand, requests per second: fixed here so the input
/// size does not follow the study's default.
const BASE_QPS: f64 = 4_000.0;
/// Relative tolerance of the conservation identities (float summation).
const TOLERANCE: f64 = 1e-9;

/// Requests: what the schedule offered is what was served or shed.
/// Carbon: the result's totals are the sums of its cells.
fn check_conservation(fleet: &FleetSim, result: &FleetResult) -> Result<(), String> {
    let label = result.policy().label();
    let windows_per_day = result.windows() / fleet.schedule().day_count();
    let offered: f64 = fleet
        .schedule()
        .windows(windows_per_day)
        .iter()
        .map(|w| w.requests())
        .sum();
    let accounted = result.total_requests() + result.shed_requests();
    if !close(offered, accounted, TOLERANCE) {
        return Err(format!(
            "{label}: offered {offered} != served + shed {accounted}"
        ));
    }
    let cells = result.cells();
    let served: f64 = cells.iter().map(|c| c.requests()).sum();
    let operational: f64 = cells.iter().map(|c| c.operational().grams()).sum();
    let embodied: f64 = cells.iter().map(|c| c.embodied().grams()).sum();
    if !close(served, result.total_requests(), TOLERANCE)
        || !close(operational, result.total_operational().grams(), TOLERANCE)
        || !close(embodied, result.total_embodied().grams(), TOLERANCE)
        || !close(
            operational + embodied,
            result.total_carbon().grams(),
            TOLERANCE,
        )
    {
        return Err(format!("{label}: totals are not the sums of the cells"));
    }
    Ok(())
}

fn check(
    fleets: &(FleetSim, FleetSim),
    results: &(FleetResult, FleetResult),
) -> Result<u64, String> {
    check_conservation(&fleets.0, &results.0)?;
    check_conservation(&fleets.1, &results.1)?;
    let static_g = results.0.grams_per_request();
    let aware_g = results.1.grams_per_request();
    match (static_g, aware_g) {
        (Some(s), Some(a)) if a < s => Ok(digest(&format!("{results:?}"))),
        _ => Err(format!(
            "carbon-aware {aware_g:?} g/request does not beat static {static_g:?}"
        )),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error if the fleet cannot be built.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let study = FleetStudy::paper_scale()
        .base_qps(BASE_QPS)
        .seed(ctx.seed)
        .parallelism(ctx.workers);
    let (fleets, setup_s) = setup(|| {
        let fleet = study
            .build_fleet(RoutingPolicy::Static)
            .map_err(|e| e.to_string())?;
        let aware = fleet.clone().with_policy(RoutingPolicy::carbon_aware());
        Ok((fleet, aware))
    })?;

    let mut layers = Samples::default();
    let mut notes = Vec::new();
    let mut cells_per_policy = 0;
    let (plain, traced) = drive(
        ctx,
        |_| {
            let (results, seconds) = timed(|| {
                let base = fleets.0.run()?;
                Ok((base, fleets.1.run()?))
            });
            let checked = results
                .map_err(|e: junkyard_microsim::sim::SimError| e.to_string())
                .and_then(|r| {
                    cells_per_policy = r.0.cells().len();
                    check(&fleets, &r).map(|d| (d, r))
                });
            (seconds, checked)
        },
        |_, reference: &(FleetResult, FleetResult)| {
            let mut recorder = TraceRecorder::new();
            let cpu = process_cpu_seconds();
            let (base, static_s) = timed(|| fleets.0.run_with(&mut recorder));
            let (aware, aware_s) = timed(|| fleets.1.run_with(&mut recorder));
            let cpu = process_cpu_seconds() - cpu;
            let seconds = static_s + aware_s;
            let checked = match (base, aware) {
                (Ok(base), Ok(aware)) if base == reference.0 && aware == reference.1 => {
                    let counts = recorder.counts();
                    let cells = (base.cells().len() + aware.cells().len()) as f64;
                    let workers = ctx.workers.min(base.cells().len());
                    layers.push("fleet.cells", cells);
                    layers.push("fleet.run_s.static", static_s);
                    layers.push("fleet.run_s.carbon_aware", aware_s);
                    layers.push("fleet.ms_per_cell", seconds * 1e3 / cells);
                    layers.push(
                        "fleet.route_events",
                        counts[EventKind::Route.index()] as f64,
                    );
                    layers.push(
                        "fleet.parallel_efficiency",
                        parallel_efficiency(cpu, workers, seconds),
                    );
                    if notes.is_empty() {
                        notes.push(crate::kind_counts(&counts));
                    }
                    Ok((digest(&format!("{:?}", (base, aware))), ()))
                }
                (Ok(_), Ok(_)) => Err("traced fleet results differ from untraced".to_owned()),
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            };
            (seconds, checked)
        },
    );
    let workers = ctx.workers.min(cells_per_policy);
    notes.push(format!("workers: fleet={workers}"));
    layers.push("fleet.workers", workers as f64);
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        notes,
    })
}
