//! `microsim-overload`: one threaded sweep of the ten-Pixel SocialNetwork
//! compose-post cloudlet (unbounded centralised FCFS) over steady load
//! points from half to four times its saturation knee. Above the knee the
//! backlog, and with it the engine's event heap, grows with load.

use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::ten_pixel_cloudlet;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::{Simulation, Workload};
use junkyard_microsim::sweep::{decorrelate_seed, LatencyCurve, SweepConfig};
use junkyard_obs::{EventKind, NoopRecorder, TraceRecorder};

use crate::drive::{drive, setup, timed, Ctx, Samples};
use crate::stats::{digest, parallel_efficiency};
use crate::Outcome;

/// The cloudlet's compose-post saturation knee, requests per second.
const KNEE_QPS: f64 = 3_400.0;
/// Load points per sweep: 0.5x, 1x, ... 4x the knee.
const POINTS: u32 = 8;
/// Measured seconds per point.
const POINT_S: f64 = 3.0;
/// Warm-up seconds per point.
const WARMUP_S: f64 = 0.5;
const LABEL: &str = "ten-pixel compose-post";

fn load_points() -> Vec<f64> {
    (1..=POINTS)
        .map(|i| KNEE_QPS * 0.5 * f64::from(i))
        .collect()
}

fn cloudlet() -> Result<Simulation, String> {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).map_err(|e| format!("{e:?}"))?;
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).map_err(|e| e.to_string())
}

/// The curve is whole: one finite point per load, nothing dropped (the
/// queues are unbounded), and latency does not fall once past the knee.
fn check_curve(curve: &LatencyCurve, serial: &LatencyCurve) -> Result<u64, String> {
    if curve != serial {
        return Err("threaded sweep differs from the serial sweep".to_owned());
    }
    let points = curve.points();
    if points.len() != POINTS as usize {
        return Err(format!("{} points, expected {POINTS}", points.len()));
    }
    for point in points {
        if !(point.median_ms().is_finite() && point.tail_ms().is_finite()) {
            return Err(format!("non-finite latency at {} qps", point.qps()));
        }
        if point.drop_fraction() != 0.0 {
            return Err(format!("unbounded queues dropped at {} qps", point.qps()));
        }
    }
    let overloaded: Vec<f64> = points
        .iter()
        .filter(|p| p.qps() > KNEE_QPS)
        .map(|p| p.median_ms())
        .collect();
    if overloaded.windows(2).any(|w| w[1] < w[0]) {
        return Err("median latency fell with load above the knee".to_owned());
    }
    Ok(digest(&format!("{curve:?}")))
}

/// Re-runs every sweep point alone on one thread, timing the engine, and
/// checks request conservation per point: every offered request either
/// completed or was dropped.
fn rerun_points(compiled: &CompiledSim, seed: u64, layers: &mut Samples) -> Result<(), String> {
    let (mut events, mut busy, mut offered, mut completed) = (0u64, 0.0, 0usize, 0usize);
    let (mut below_ns, mut below_events, mut above_ns, mut above_events) = (0.0, 0u64, 0.0, 0u64);
    for (index, qps) in load_points().into_iter().enumerate() {
        let workload = Workload::steady(
            qps,
            WARMUP_S + POINT_S,
            Some(SN_COMPOSE_POST),
            decorrelate_seed(seed, index as u64),
        );
        let (metrics, seconds) = timed(|| compiled.run_with(&workload, &mut NoopRecorder));
        let metrics = metrics.map_err(|e| e.to_string())?;
        let done = metrics.completions().len();
        if done + metrics.dropped() != metrics.offered() {
            return Err(format!(
                "{qps} qps: offered {} != completed {done} + dropped {}",
                metrics.offered(),
                metrics.dropped()
            ));
        }
        events += metrics.events_processed();
        busy += seconds;
        offered += metrics.offered();
        completed += done;
        if qps <= KNEE_QPS {
            below_ns += seconds * 1e9;
            below_events += metrics.events_processed();
        } else {
            above_ns += seconds * 1e9;
            above_events += metrics.events_processed();
        }
    }
    layers.push("microsim.events", events as f64);
    layers.push("microsim.busy_s", busy);
    layers.push(
        "microsim.ns_per_event.below_knee",
        below_ns / below_events as f64,
    );
    layers.push(
        "microsim.ns_per_event.above_knee",
        above_ns / above_events as f64,
    );
    layers.push(
        "microsim.completion_ratio",
        completed as f64 / offered as f64,
    );
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error if the cloudlet cannot be built or the reference
/// sweep fails.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (compiled, setup_s) = setup(|| Ok(cloudlet()?.compile()))?;
    let sweep = SweepConfig::new(load_points(), POINT_S, WARMUP_S)
        .request_type(SN_COMPOSE_POST)
        .seed(ctx.seed)
        .decorrelated_seeds()
        .parallelism(ctx.workers);
    let serial = sweep
        .clone()
        .parallelism(1)
        .run_compiled(LABEL, &compiled)
        .map_err(|e| e.to_string())?;

    let mut layers = Samples::default();
    let mut notes = Vec::new();
    let (plain, traced) = drive(
        ctx,
        |_| {
            let (curve, seconds) = timed(|| sweep.run_compiled(LABEL, &compiled));
            let checked = curve
                .map_err(|e| e.to_string())
                .and_then(|c| check_curve(&c, &serial).map(|d| (d, c)));
            (seconds, checked)
        },
        |_, reference: &LatencyCurve| {
            let mut recorder = TraceRecorder::new();
            let (swept, seconds) =
                timed(|| sweep.run_compiled_traced(LABEL, &compiled, &mut recorder));
            let checked = swept.map_err(|e| e.to_string()).and_then(|traced| {
                if &traced.curve != reference {
                    return Err("traced sweep differs from the untraced sweep".to_owned());
                }
                let counts = recorder.counts();
                layers.push("sweep.busy_s", seconds);
                layers.push("sweep.points", traced.curve.points().len() as f64);
                layers.push("sweep.workers", traced.workers as f64);
                let share_max = traced.worker_utilisation().into_iter().fold(0.0, f64::max);
                layers.push("sweep.worker_share_max", share_max);
                layers.push("microsim.admitted", counts[EventKind::Admit.index()] as f64);
                layers.push(
                    "microsim.completed",
                    counts[EventKind::Complete.index()] as f64,
                );
                layers.push("microsim.dropped", counts[EventKind::Drop.index()] as f64);
                if notes.is_empty() {
                    notes.push(crate::kind_counts(&counts));
                }
                rerun_points(&compiled, ctx.seed, &mut layers)?;
                Ok((digest(&format!("{:?}", traced.curve)), ()))
            });
            (seconds, checked)
        },
    );
    let workers = sweep.effective_workers();
    notes.push(format!("workers: sweep={workers}"));
    if ctx.trace {
        let sim = cloudlet()?;
        let (_, compile_s) = setup(|| Ok(sim.compile()))?;
        layers.push("microsim.compile_s", compile_s);
        let busy = layers.median("microsim.busy_s");
        layers.push(
            "sweep.parallel_efficiency",
            parallel_efficiency(busy, workers, plain.median_s()),
        );
    }
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        layers,
        notes,
    })
}
