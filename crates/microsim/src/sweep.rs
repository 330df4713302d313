//! Throughput sweeps and saturation detection (Figure 7) and the two-phase
//! utilisation scenario (Figure 8).
//!
//! Sweep points are independent simulations, so [`SweepConfig::run`] fans
//! them out through [`fanout::map_slots`]: the simulation is compiled
//! once, shared by reference, and results come back in offered-load order
//! regardless of scheduling.

use junkyard_carbon::convert::{counts_ratio, index_u64};
use junkyard_obs::{fanout, NoopRecorder, Recorder, TraceRecorder};

use serde::{Deserialize, Serialize};

use crate::compiled::CompiledSim;
use crate::metrics::RunMetrics;
use crate::sim::{Phase, SimError, Simulation, Workload};

/// Derives an independent workload seed for stream `index` of a family
/// rooted at `seed`, via a SplitMix64-style avalanche over the pair.
///
/// `index == 0` returns `seed` unchanged, so the first stream of a family
/// stays bit-compatible with an undecorrelated run. Every other index is
/// mixed through two rounds of multiply-xor-shift, so adjacent indices
/// land on unrelated RNG states — a plain `seed ^ index` only flips low
/// bits, which seeds the vendored SplitMix64 generator at neighbouring
/// states and correlates the streams it hands out.
#[must_use]
pub fn decorrelate_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One point of a latency-versus-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    qps: f64,
    median_ms: f64,
    tail_ms: f64,
    #[serde(default)]
    drop_fraction: f64,
}

impl CurvePoint {
    /// Creates a point (with no drops; simulations with bounded queues
    /// attach theirs via [`CurvePoint::with_drop_fraction`]).
    #[must_use]
    pub fn new(qps: f64, median_ms: f64, tail_ms: f64) -> Self {
        Self {
            qps,
            median_ms,
            tail_ms,
            drop_fraction: 0.0,
        }
    }

    /// Attaches the fraction of measured-window requests that a bounded
    /// queue dropped.
    #[must_use]
    pub fn with_drop_fraction(mut self, drop_fraction: f64) -> Self {
        self.drop_fraction = drop_fraction;
        self
    }

    /// Offered load in requests per second.
    #[must_use]
    pub fn qps(self) -> f64 {
        self.qps
    }

    /// Median (50th percentile) latency, ms.
    #[must_use]
    pub fn median_ms(self) -> f64 {
        self.median_ms
    }

    /// Tail (90th percentile) latency, ms.
    #[must_use]
    pub fn tail_ms(self) -> f64 {
        self.tail_ms
    }

    /// Fraction of the measured window's requests dropped by bounded
    /// queues (zero under the default unbounded server model).
    #[must_use]
    pub fn drop_fraction(self) -> f64 {
        self.drop_fraction
    }
}

/// A labelled latency-versus-throughput curve (one line of Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    label: String,
    points: Vec<CurvePoint>,
}

impl LatencyCurve {
    /// Creates a curve.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<CurvePoint>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }

    /// Curve label (deployment name).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The measured points, in offered-load order.
    #[must_use]
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The highest offered load the deployment sustains before *first*
    /// crossing the latency bounds — the paper's "max throughput before
    /// the latencies shoot up".
    ///
    /// Only the longest passing *prefix* of the curve counts: measurement
    /// noise can dip a point back under the limits beyond the queueing
    /// knee, and such a point is not a sustainable operating load. If the
    /// whole curve passes, the last point's load is returned; if the first
    /// point already fails, `None`. Otherwise the crossing load is
    /// linearly interpolated between the last passing and the first
    /// failing point, using whichever latency bound crosses its limit
    /// first.
    #[must_use]
    pub fn max_sustainable_qps(&self, median_limit_ms: f64, tail_limit_ms: f64) -> Option<f64> {
        let passes =
            |p: &CurvePoint| p.median_ms() <= median_limit_ms && p.tail_ms() <= tail_limit_ms;
        let prefix = self.points.iter().take_while(|p| passes(p)).count();
        if prefix == 0 {
            return None;
        }
        if prefix == self.points.len() {
            return Some(self.points[prefix - 1].qps());
        }
        let last_pass = self.points[prefix - 1];
        let first_fail = self.points[prefix];
        // Fraction of the load step at which each violated bound is hit;
        // the earliest crossing limits the sustainable load. A bound that
        // still passes at the failing point contributes no crossing. When
        // a bound does fail, its latency necessarily rose above the
        // passing point's (which was at or under the limit), so the
        // denominator is strictly positive.
        let crossing = |value_pass: f64, value_fail: f64, limit: f64| -> f64 {
            if value_fail <= limit {
                1.0
            } else {
                ((limit - value_pass) / (value_fail - value_pass)).clamp(0.0, 1.0)
            }
        };
        let t = crossing(
            last_pass.median_ms(),
            first_fail.median_ms(),
            median_limit_ms,
        )
        .min(crossing(
            last_pass.tail_ms(),
            first_fail.tail_ms(),
            tail_limit_ms,
        ));
        Some(last_pass.qps() + t * (first_fail.qps() - last_pass.qps()))
    }
}

/// Configuration of a throughput sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    qps_points: Vec<f64>,
    duration_s: f64,
    warmup_s: f64,
    request_type: Option<String>,
    seed: u64,
    decorrelate_seeds: bool,
    parallelism: Option<usize>,
}

impl SweepConfig {
    /// Creates a sweep over the given offered loads, measuring each for
    /// `duration_s` seconds after a `warmup_s` warm-up.
    ///
    /// # Panics
    ///
    /// Panics if no load points are given, the duration is not positive or
    /// the warm-up is negative.
    #[must_use]
    pub fn new(qps_points: Vec<f64>, duration_s: f64, warmup_s: f64) -> Self {
        assert!(
            !qps_points.is_empty(),
            "a sweep needs at least one load point"
        );
        assert!(duration_s > 0.0, "measurement duration must be positive");
        assert!(warmup_s >= 0.0, "warm-up cannot be negative");
        Self {
            qps_points,
            duration_s,
            warmup_s,
            request_type: None,
            seed: 42,
            decorrelate_seeds: false,
            parallelism: None,
        }
    }

    /// Restricts the sweep to a single request type.
    #[must_use]
    pub fn request_type(mut self, name: impl Into<String>) -> Self {
        self.request_type = Some(name.into());
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derives a distinct seed per load point (via [`decorrelate_seed`])
    /// instead of reusing the sweep seed everywhere.
    ///
    /// By default every point replays the identical arrival sequence
    /// (scaled to its rate), which correlates noise across the curve.
    /// Decorrelating keeps point 0 bit-compatible with the default
    /// (`decorrelate_seed(seed, 0) == seed`) while giving every other
    /// point a properly mixed, independent sequence.
    #[must_use]
    pub fn decorrelated_seeds(mut self) -> Self {
        self.decorrelate_seeds = true;
        self
    }

    /// Caps the number of worker threads the sweep fans out across.
    ///
    /// Defaults to the machine's available parallelism; `1` forces a
    /// serial sweep (useful for benchmarking the threading win itself).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a sweep needs at least one worker");
        self.parallelism = Some(workers);
        self
    }

    /// The offered-load points.
    #[must_use]
    pub fn qps_points(&self) -> &[f64] {
        &self.qps_points
    }

    /// The workload seed used for the load point at `index`.
    fn point_seed(&self, index: usize) -> u64 {
        if self.decorrelate_seeds {
            decorrelate_seed(self.seed, index_u64(index))
        } else {
            self.seed
        }
    }

    /// Measures one load point against a compiled simulation, recording
    /// its microsim events into `recorder`; returns the point and the
    /// engine's processed-event count for load accounting.
    fn measure_point<R: Recorder>(
        &self,
        sim: &CompiledSim,
        index: usize,
        recorder: &mut R,
    ) -> Result<(CurvePoint, u64), SimError> {
        let qps = self.qps_points[index];
        let workload = Workload::steady(
            qps,
            self.warmup_s + self.duration_s,
            self.request_type.as_deref(),
            self.point_seed(index),
        );
        let metrics = sim.run_with(&workload, recorder)?;
        let (from_s, to_s) = (self.warmup_s, self.warmup_s + self.duration_s);
        let stats = metrics.latency_stats_between(from_s, to_s);
        let point = CurvePoint::new(
            qps,
            stats.median_ms().unwrap_or(0.0),
            stats.tail_ms().unwrap_or(0.0),
        )
        .with_drop_fraction(metrics.drop_fraction_between(from_s, to_s));
        Ok((point, metrics.events_processed()))
    }

    /// Runs the sweep against a simulation and collects its latency curve.
    ///
    /// Compiles the simulation once, then fans the load points out across
    /// worker threads (see [`SweepConfig::run_compiled`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (for example an unknown request type).
    pub fn run(
        &self,
        label: impl Into<String>,
        sim: &Simulation,
    ) -> Result<LatencyCurve, SimError> {
        self.run_compiled(label, &sim.compile())
    }

    /// Runs the sweep against an already-compiled simulation.
    ///
    /// Load points fan out through [`fanout::map_slots`], dealt in snake
    /// order so that on an ascending sweep, where per-point cost grows
    /// with offered load, no worker systematically collects the heavy
    /// end. Results come back in point order, so the curve is identical
    /// to a serial sweep. Use this entry point to amortise one
    /// [`Simulation::compile`] across many sweeps.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; on multiple failures the error of the
    /// lowest-index failing point is returned.
    pub fn run_compiled(
        &self,
        label: impl Into<String>,
        sim: &CompiledSim,
    ) -> Result<LatencyCurve, SimError> {
        let recorders = vec![NoopRecorder; self.qps_points.len()];
        Ok(self.run_with(label, sim, recorders)?.0.curve)
    }

    /// The number of fan-out workers [`SweepConfig::run_compiled`] will
    /// actually use: the configured parallelism (default: the machine's
    /// available parallelism) capped by the point count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        fanout::workers(self.parallelism, self.qps_points.len())
    }

    /// [`SweepConfig::run_compiled`] with tracing: each load point
    /// records its microsim events into its own [`junkyard_obs::TraceShard`] (minted
    /// from and absorbed back into `recorder` in point order, so the
    /// merged trace is byte-identical at any worker count), and the
    /// per-point engine event counts are returned for worker-load
    /// accounting.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; on multiple failures the error of
    /// the lowest-index failing point is returned.
    pub fn run_compiled_traced(
        &self,
        label: impl Into<String>,
        sim: &CompiledSim,
        recorder: &mut TraceRecorder,
    ) -> Result<TracedSweep, SimError> {
        let shards = (0..self.qps_points.len())
            .map(|index| recorder.shard(index_u64(index)))
            .collect();
        let (sweep, shards) = self.run_with(label, sim, shards)?;
        for shard in shards {
            recorder.absorb(shard);
        }
        Ok(sweep)
    }

    /// Fans the load points out with one recorder per point (point
    /// `index` records into `recorders[index]`) and hands the recorders
    /// back in point order.
    fn run_with<R: Recorder + Send>(
        &self,
        label: impl Into<String>,
        sim: &CompiledSim,
        recorders: Vec<R>,
    ) -> Result<(TracedSweep, Vec<R>), SimError> {
        let workers = self.effective_workers();
        let measured = fanout::map_slots(workers, recorders, |index, mut recorder| {
            (self.measure_point(sim, index, &mut recorder), recorder)
        })?;
        let mut points = Vec::with_capacity(measured.len());
        let mut point_events = Vec::with_capacity(measured.len());
        let mut recorders = Vec::with_capacity(measured.len());
        for (result, recorder) in measured {
            let (point, events) = result?;
            points.push(point);
            point_events.push(events);
            recorders.push(recorder);
        }
        let sweep = TracedSweep {
            curve: LatencyCurve::new(label, points),
            point_events,
            workers,
        };
        Ok((sweep, recorders))
    }
}

/// A traced sweep: the latency curve plus the bookkeeping the bench
/// reporter turns into `workers` / per-worker-utilisation fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedSweep {
    /// The latency curve, identical to an untraced [`SweepConfig::run_compiled`].
    pub curve: LatencyCurve,
    /// Engine events processed per load point (the deterministic unit
    /// of sweep work — wall clocks are not available on this side of
    /// the profiling boundary).
    pub point_events: Vec<u64>,
    /// Fan-out workers used (after the point-count cap).
    pub workers: usize,
}

impl TracedSweep {
    /// Per-worker utilisation under the snake deal (see
    /// [`fanout::snake_worker`]): each worker's share of total engine events,
    /// normalised so a perfectly balanced fan-out reads 1.0 for every
    /// worker.
    #[must_use]
    pub fn worker_utilisation(&self) -> Vec<f64> {
        let total: u64 = self.point_events.iter().sum();
        if total == 0 || self.workers == 0 {
            return vec![0.0; self.workers];
        }
        let mut per_worker = vec![0u64; self.workers];
        for (index, &events) in self.point_events.iter().enumerate() {
            per_worker[fanout::snake_worker(index, self.workers)] += events;
        }
        let fair_share = counts_ratio(usize::try_from(total).unwrap_or(usize::MAX), 1)
            / counts_ratio(self.workers, 1);
        per_worker
            .iter()
            .map(|&w| counts_ratio(usize::try_from(w).unwrap_or(usize::MAX), 1) / fair_share)
            .collect()
    }
}

/// The Figure 8 scenario: idle, SocialNetwork reads, idle, SocialNetwork
/// writes, idle.
///
/// The paper uses 120-second phases at 3,000 QPS (reads) and 3,500 QPS
/// (writes); `scale` shrinks both the durations and, for quick tests, can be
/// combined with lower rates by the caller.
#[must_use]
pub fn figure8_phases(
    read_type: &str,
    write_type: &str,
    read_qps: f64,
    write_qps: f64,
    phase_seconds: f64,
) -> Vec<Phase> {
    vec![
        Phase::idle(phase_seconds),
        Phase::new(read_qps, phase_seconds, Some(read_type)),
        Phase::idle(phase_seconds),
        Phase::new(write_qps, phase_seconds, Some(write_type)),
        Phase::idle(phase_seconds),
    ]
}

/// Convenience: runs the Figure 8 scenario and returns the metrics.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_figure8(
    sim: &Simulation,
    read_type: &str,
    write_type: &str,
    read_qps: f64,
    write_qps: f64,
    phase_seconds: f64,
    seed: u64,
) -> Result<RunMetrics, SimError> {
    let workload = Workload::phased(
        figure8_phases(read_type, write_type, read_qps, write_qps, phase_seconds),
        seed,
    );
    sim.run(&workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{social_network, SN_COMPOSE_POST, SN_READ_HOME_TIMELINE};
    use crate::network::NetworkModel;
    use crate::node::ten_pixel_cloudlet;
    use crate::placement::Placement;

    fn phone_sim() -> Simulation {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
    }

    #[test]
    fn sweep_produces_one_point_per_load() {
        let sim = phone_sim();
        let curve = SweepConfig::new(vec![300.0, 900.0], 2.0, 1.0)
            .request_type(SN_COMPOSE_POST)
            .run("phones", &sim)
            .unwrap();
        assert_eq!(curve.points().len(), 2);
        assert_eq!(curve.label(), "phones");
        assert!(curve.points()[0].median_ms() > 0.0);
    }

    #[test]
    fn tail_is_at_least_median_and_latency_rises_with_load() {
        let sim = phone_sim();
        let curve = SweepConfig::new(vec![500.0, 4_000.0], 2.5, 1.0)
            .request_type(SN_COMPOSE_POST)
            .run("phones", &sim)
            .unwrap();
        for p in curve.points() {
            assert!(p.tail_ms() >= p.median_ms());
        }
        assert!(curve.points()[1].tail_ms() > curve.points()[0].tail_ms());
    }

    #[test]
    fn max_sustainable_qps_finds_the_knee() {
        let curve = LatencyCurve::new(
            "synthetic",
            vec![
                CurvePoint::new(1_000.0, 20.0, 40.0),
                CurvePoint::new(2_000.0, 25.0, 60.0),
                CurvePoint::new(3_000.0, 45.0, 95.0),
                CurvePoint::new(4_000.0, 400.0, 900.0),
            ],
        );
        // The tail bound crosses first between 3,000 and 4,000 QPS:
        // t = (100 - 95) / (900 - 95), interpolated onto the load step.
        let expected = 3_000.0 + (100.0 - 95.0) / (900.0 - 95.0) * 1_000.0;
        let knee = curve.max_sustainable_qps(50.0, 100.0).unwrap();
        assert!((knee - expected).abs() < 1e-9, "knee {knee}");
        assert_eq!(curve.max_sustainable_qps(10.0, 10.0), None);
        // An all-passing curve sustains its last measured load.
        assert_eq!(curve.max_sustainable_qps(1_000.0, 1_000.0), Some(4_000.0));
    }

    #[test]
    fn max_sustainable_qps_ignores_passes_beyond_the_first_crossing() {
        // A noisy non-monotonic curve: the 3,000-QPS point dips back under
        // the limits *beyond* the queueing knee. The old max-over-passing
        // semantics reported 3,000; first-crossing semantics must stop at
        // the 1,000 → 2,000 step.
        let curve = LatencyCurve::new(
            "noisy",
            vec![
                CurvePoint::new(1_000.0, 20.0, 40.0),
                CurvePoint::new(2_000.0, 80.0, 160.0),
                CurvePoint::new(3_000.0, 30.0, 50.0),
                CurvePoint::new(4_000.0, 500.0, 900.0),
            ],
        );
        let knee = curve.max_sustainable_qps(50.0, 100.0).unwrap();
        assert!(knee < 2_000.0, "knee {knee} must sit inside the first step");
        // Median crosses at t = (50-20)/(80-20) = 0.5, tail at
        // t = (100-40)/(160-40) = 0.5: the knee is 1,500 QPS.
        assert!((knee - 1_500.0).abs() < 1e-9, "knee {knee}");
    }

    #[test]
    fn max_sustainable_qps_interpolates_only_the_violated_bound() {
        // The tail *improves* across the failing step while the median
        // blows through its limit: only the median contributes a crossing.
        let curve = LatencyCurve::new(
            "median-limited",
            vec![
                CurvePoint::new(1_000.0, 20.0, 90.0),
                CurvePoint::new(2_000.0, 200.0, 80.0),
            ],
        );
        let knee = curve.max_sustainable_qps(100.0, 100.0).unwrap();
        let expected = 1_000.0 + (100.0 - 20.0) / (200.0 - 20.0) * 1_000.0;
        assert!((knee - expected).abs() < 1e-9, "knee {knee}");
        // A flat all-passing curve is sustainable through its last point.
        let flat = LatencyCurve::new(
            "flat",
            vec![
                CurvePoint::new(1_000.0, 20.0, 90.0),
                CurvePoint::new(2_000.0, 20.0, 90.0),
            ],
        );
        assert_eq!(flat.max_sustainable_qps(100.0, 100.0), Some(2_000.0));
    }

    #[test]
    fn figure8_scenario_shapes_utilization_by_phase() {
        let sim = phone_sim();
        let metrics = run_figure8(
            &sim,
            SN_READ_HOME_TIMELINE,
            SN_COMPOSE_POST,
            600.0,
            700.0,
            4.0,
            3,
        )
        .unwrap();
        // Mean utilisation across phones should be higher during the two
        // loaded phases than during the idle phases.
        let mean_between = |from: usize, to: usize| -> f64 {
            let per_node: Vec<f64> = metrics
                .node_utilization()
                .iter()
                .map(|u| u.mean_percent_between(from, to))
                .collect();
            per_node.iter().sum::<f64>() / per_node.len() as f64
        };
        let idle = mean_between(0, 4);
        let read = mean_between(5, 8);
        let write = mean_between(13, 16);
        assert!(read > idle + 1.0, "read {read}% vs idle {idle}%");
        assert!(write > idle + 1.0, "write {write}% vs idle {idle}%");
    }

    #[test]
    #[should_panic(expected = "at least one load point")]
    fn empty_sweep_panics() {
        let _ = SweepConfig::new(vec![], 1.0, 0.0);
    }

    #[test]
    fn sweep_reports_drop_fractions_under_bounded_queues() {
        use crate::sim::ServerModel;
        let sim = phone_sim().with_server_model(ServerModel::new().with_queue_size(Some(16)));
        let curve = SweepConfig::new(vec![300.0, 12_000.0], 1.5, 0.5)
            .request_type(SN_COMPOSE_POST)
            .run("phones", &sim)
            .unwrap();
        assert_eq!(curve.points()[0].drop_fraction(), 0.0, "light load drops");
        let heavy = curve.points()[1].drop_fraction();
        assert!(
            heavy > 0.1 && heavy <= 1.0,
            "deep saturation should shed visibly: {heavy}"
        );
        // The unbounded default never drops.
        let unbounded = SweepConfig::new(vec![12_000.0], 1.5, 0.5)
            .request_type(SN_COMPOSE_POST)
            .run("phones", &phone_sim())
            .unwrap();
        assert_eq!(unbounded.points()[0].drop_fraction(), 0.0);
    }

    #[test]
    fn threaded_sweep_matches_serial_point_for_point() {
        let sim = phone_sim();
        let config = SweepConfig::new(vec![400.0, 900.0, 1_400.0, 1_900.0, 2_400.0], 2.0, 0.5)
            .request_type(SN_COMPOSE_POST);
        let serial = config.clone().parallelism(1).run("phones", &sim).unwrap();
        let threaded = config.parallelism(4).run("phones", &sim).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn default_seeds_replay_the_same_sequence_across_points() {
        let sim = phone_sim();
        // Two identical load points: with the default correlated seeds they
        // are the same simulation, so the same curve point.
        let curve = SweepConfig::new(vec![700.0, 700.0], 2.0, 0.5)
            .request_type(SN_COMPOSE_POST)
            .run("phones", &sim)
            .unwrap();
        assert_eq!(curve.points()[0], curve.points()[1]);
    }

    #[test]
    fn decorrelated_adjacent_points_draw_distinct_first_arrivals() {
        // Regression: `seed ^ index` seeded the SplitMix64 stand-in at
        // neighbouring states for adjacent points. The mixed derivation
        // must give adjacent load points unrelated arrival sequences.
        let sim = phone_sim();
        let compiled = sim.compile();
        let seed = 42;
        let mut first_arrivals = Vec::new();
        for index in 0..8u64 {
            let workload = Workload::steady(
                700.0,
                2.0,
                Some(SN_COMPOSE_POST),
                decorrelate_seed(seed, index),
            );
            let (t, _) = compiled
                .arrivals(&workload)
                .unwrap()
                .next()
                .expect("a 700 qps phase produces arrivals");
            first_arrivals.push(t);
        }
        for (i, a) in first_arrivals.iter().enumerate() {
            for (j, b) in first_arrivals.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "points {i} and {j} replay the same arrival");
            }
        }
        // And the derived seeds themselves are well spread, not low-bit
        // perturbations of each other.
        for index in 1..8u64 {
            let derived = decorrelate_seed(seed, index);
            assert_ne!(derived, seed ^ index);
            assert!((derived ^ seed).count_ones() > 8);
        }
    }

    #[test]
    fn decorrelate_seed_pins_index_zero() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(decorrelate_seed(seed, 0), seed);
        }
    }

    #[test]
    fn decorrelated_seeds_vary_across_points_but_pin_point_zero() {
        let sim = phone_sim();
        let base = SweepConfig::new(vec![700.0, 700.0], 2.0, 0.5).request_type(SN_COMPOSE_POST);
        let correlated = base.clone().run("phones", &sim).unwrap();
        let decorrelated = base.decorrelated_seeds().run("phones", &sim).unwrap();
        // Point 0 uses seed ^ 0 == seed: bit-compatible with the default.
        assert_eq!(correlated.points()[0], decorrelated.points()[0]);
        // Point 1 now replays an independent arrival sequence.
        assert_ne!(decorrelated.points()[0], decorrelated.points()[1]);
    }
}
