//! `lifecycle-decade`: the paper-scale lifecycle study, ten years at 24
//! routing windows a day, for the two-cloudlet fleet and the datacenter
//! serving the same demand. Its window cells are within the SLO and
//! repeat, so it exercises the slice memo and the (year, site) fan-out.

use junkyard_core::lifecycle_study::LifecycleStudy;
use junkyard_fleet::lifecycle::{LifecycleResult, LifecycleSim};
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_obs::{EventKind, TraceRecorder};

use crate::drive::{drive, setup, timed, Ctx, Samples};
use crate::stats::{close, digest, parallel_efficiency, process_cpu_seconds};
use crate::Outcome;

/// Peak-hour demand, requests per second: fixed here so the input size
/// does not follow the study's default.
const BASE_QPS: f64 = 1_600.0;
/// Relative tolerance of the conservation identities (float summation
/// over 87,600 windows).
const TOLERANCE: f64 = 1e-9;

/// Requests: the office-day demand over the horizon is what was served,
/// declined, dropped, shed or failed. Carbon: the totals are the sums of
/// the (year, site) cells and of the daily ledger, and split into
/// operational, embodied and retry carbon.
fn check_conservation(sim: &LifecycleSim, result: &LifecycleResult) -> Result<(), String> {
    let name = result.site_names().join("+");
    let days = sim.config().total_days();
    let windows_per_day = result.window_health().len() / days;
    let offered: f64 = DiurnalSchedule::office_day(BASE_QPS)
        .days(days)
        .windows(windows_per_day)
        .iter()
        .map(|w| w.requests())
        .sum();
    let accounted = result.total_requests()
        + result.router_declined_requests()
        + result.queue_dropped_requests()
        + result.low_priority_shed_requests()
        + result.failed_requests();
    if !close(offered, accounted, TOLERANCE) {
        return Err(format!(
            "{name}: offered {offered} != served + declined + dropped + shed + failed {accounted}"
        ));
    }
    let total = result.total_carbon().grams();
    let split = result.total_operational().grams()
        + result.total_embodied().grams()
        + result.total_retry_carbon().grams();
    let by_cell: f64 = result.cells().iter().map(|c| c.carbon().grams()).sum();
    let by_day: f64 = result.day_ledger().iter().map(|d| d.carbon().grams()).sum();
    let served_by_cell: f64 = result.cells().iter().map(|c| c.requests()).sum();
    if !close(total, split, TOLERANCE)
        || !close(total, by_cell, TOLERANCE)
        || !close(total, by_day, TOLERANCE)
        || !close(served_by_cell, result.total_requests(), TOLERANCE)
    {
        return Err(format!(
            "{name}: carbon totals disagree across cells, days and parts"
        ));
    }
    Ok(())
}

fn check(
    sims: &(LifecycleSim, LifecycleSim),
    results: &(LifecycleResult, LifecycleResult),
) -> Result<u64, String> {
    let (cloudlet, datacenter) = results;
    check_conservation(&sims.0, cloudlet)?;
    check_conservation(&sims.1, datacenter)?;
    if cloudlet.first_day_cheaper_than(datacenter).is_none() {
        return Err("the cloudlet never crosses below the datacenter".to_owned());
    }
    match (cloudlet.grams_per_request(), datacenter.grams_per_request()) {
        (Some(c), Some(d)) if c < d => Ok(digest(&format!("{results:?}"))),
        (c, d) => Err(format!(
            "cloudlet {c:?} g/request is not ahead of the datacenter {d:?} at the horizon"
        )),
    }
}

/// Sites times simulated days, and (year, site) cells, of one run.
fn work(sim: &LifecycleSim, result: &LifecycleResult) -> (usize, usize) {
    let sites = sim.sites().len();
    (sites * sim.config().total_days(), result.cells().len())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error if a fleet cannot be built.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let study = LifecycleStudy::paper_scale()
        .base_qps(BASE_QPS)
        .seed(ctx.seed)
        .parallelism(ctx.workers);
    let (sims, setup_s) = setup(|| {
        let cloudlet = study.build_cloudlet_fleet().map_err(|e| e.to_string())?;
        let datacenter = study.build_datacenter_fleet().map_err(|e| e.to_string())?;
        Ok((cloudlet, datacenter))
    })?;

    let mut layers = Samples::default();
    let mut notes = Vec::new();
    let mut widest = 0;
    let (plain, traced) = drive(
        ctx,
        |_| {
            let (results, seconds) = timed(|| {
                let cloudlet = sims.0.run()?;
                Ok((cloudlet, sims.1.run()?))
            });
            let checked = results
                .map_err(|e: junkyard_microsim::sim::SimError| e.to_string())
                .and_then(|r| {
                    widest = r.0.cells().len().max(r.1.cells().len());
                    check(&sims, &r).map(|d| (d, r))
                });
            (seconds, checked)
        },
        |_, reference: &(LifecycleResult, LifecycleResult)| {
            let mut recorder = TraceRecorder::new();
            let cpu = process_cpu_seconds();
            let (cloudlet, cloudlet_s) = timed(|| sims.0.run_with(&mut recorder));
            let (datacenter, datacenter_s) = timed(|| sims.1.run_with(&mut recorder));
            let cpu = process_cpu_seconds() - cpu;
            let seconds = cloudlet_s + datacenter_s;
            let checked = match (cloudlet, datacenter) {
                (Ok(c), Ok(d)) if c == reference.0 && d == reference.1 => {
                    let counts = recorder.counts();
                    let (cloudlet_days, cloudlet_cells) = work(&sims.0, &c);
                    let (datacenter_days, datacenter_cells) = work(&sims.1, &d);
                    let site_days = (cloudlet_days + datacenter_days) as f64;
                    // Each run fans its cells over at most `workers`
                    // threads; both runs share the one process clock.
                    let capacity_s = ctx.workers.min(cloudlet_cells) as f64 * cloudlet_s
                        + ctx.workers.min(datacenter_cells) as f64 * datacenter_s;
                    layers.push("lifecycle.runs", 2.0);
                    layers.push("lifecycle.site_days", site_days);
                    layers.push(
                        "lifecycle.cells",
                        (cloudlet_cells + datacenter_cells) as f64,
                    );
                    layers.push("lifecycle.busy_s", seconds);
                    layers.push("lifecycle.ms_per_site_day", seconds * 1e3 / site_days);
                    layers.push("lifecycle.cloudlet_s", cloudlet_s);
                    layers.push("lifecycle.datacenter_s", datacenter_s);
                    layers.push(
                        "lifecycle.parallel_efficiency",
                        parallel_efficiency(cpu, 1, capacity_s),
                    );
                    layers.push(
                        "lifecycle.route_events",
                        counts[EventKind::Route.index()] as f64,
                    );
                    layers.push(
                        "lifecycle.ledger_events",
                        counts[EventKind::Ledger.index()] as f64,
                    );
                    if notes.is_empty() {
                        notes.push(crate::kind_counts(&counts));
                    }
                    Ok((digest(&format!("{:?}", (c, d))), ()))
                }
                (Ok(_), Ok(_)) => Err("traced lifecycle results differ from untraced".to_owned()),
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            };
            (seconds, checked)
        },
    );
    let workers = ctx.workers.min(widest);
    notes.push(format!("workers: lifecycle={workers}"));
    layers.push("lifecycle.workers", workers as f64);
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        notes,
    })
}
