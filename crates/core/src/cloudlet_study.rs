//! The Section 6 evaluation: DeathStarBench workloads on the junkyard
//! cloudlet versus EC2 instances (Figures 7 and 8) and the carbon intensity
//! per request (Figure 9).

use junkyard_carbon::cci::{CciCalculator, CciError};
use junkyard_carbon::embodied::EmbodiedCarbon;
use junkyard_carbon::ops::{OpUnit, Throughput};
use junkyard_carbon::units::{CarbonIntensity, TimeSpan, Watts};
use junkyard_devices::catalog::{self, C5Size};
use junkyard_microsim::app::{
    hotel_reservation, social_network, Application, SN_COMPOSE_POST, SN_READ_HOME_TIMELINE,
};
use junkyard_microsim::fanout;
use junkyard_microsim::metrics::RunMetrics;
use junkyard_microsim::sweep::{run_figure8, LatencyCurve, SweepConfig};

use crate::deployments::{
    build_deployment, DeploymentError, DeploymentKind, FAN_EMBODIED, FAN_POWER,
};
use crate::report::{Chart, SeriesLine};

/// The three end-to-end workloads evaluated in Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CloudletWorkload {
    /// SocialNetwork compose-post (write-only).
    SocialNetworkWrite,
    /// SocialNetwork read-home-timeline (read-only).
    SocialNetworkRead,
    /// HotelReservation with its mixed request generator.
    HotelReservation,
}

impl CloudletWorkload {
    /// All three workloads, in the paper's figure order.
    pub const ALL: [CloudletWorkload; 3] = [
        CloudletWorkload::SocialNetworkWrite,
        CloudletWorkload::SocialNetworkRead,
        CloudletWorkload::HotelReservation,
    ];

    /// Display name used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CloudletWorkload::SocialNetworkWrite => "SocialNetwork-Write",
            CloudletWorkload::SocialNetworkRead => "SocialNetwork-Read",
            CloudletWorkload::HotelReservation => "HotelReservation",
        }
    }

    /// The application graph the workload runs on.
    #[must_use]
    pub fn application(self) -> Application {
        match self {
            CloudletWorkload::SocialNetworkWrite | CloudletWorkload::SocialNetworkRead => {
                social_network()
            }
            CloudletWorkload::HotelReservation => hotel_reservation(),
        }
    }

    /// The request-type restriction, if the workload is single-type.
    #[must_use]
    pub fn request_type(self) -> Option<&'static str> {
        match self {
            CloudletWorkload::SocialNetworkWrite => Some(SN_COMPOSE_POST),
            CloudletWorkload::SocialNetworkRead => Some(SN_READ_HOME_TIMELINE),
            CloudletWorkload::HotelReservation => None,
        }
    }

    /// The sustainable throughput the paper reports for the phone cloudlet
    /// (used by the Figure 9 carbon-per-request analysis).
    #[must_use]
    pub fn paper_phone_qps(self) -> f64 {
        match self {
            CloudletWorkload::SocialNetworkWrite => 3_000.0,
            CloudletWorkload::SocialNetworkRead => 3_500.0,
            CloudletWorkload::HotelReservation => 4_000.0,
        }
    }

    /// The sustainable throughput the paper reports for the c5.9xlarge.
    #[must_use]
    pub fn paper_c5_9xlarge_qps(self) -> f64 {
        match self {
            CloudletWorkload::SocialNetworkWrite => 2_000.0,
            CloudletWorkload::SocialNetworkRead => 4_500.0,
            CloudletWorkload::HotelReservation => 4_000.0,
        }
    }
}

/// Result of the Figure 7 study for one workload: one latency curve per
/// deployment.
#[derive(Debug, Clone)]
pub struct Figure7Result {
    workload: CloudletWorkload,
    curves: Vec<LatencyCurve>,
}

impl Figure7Result {
    /// The workload the curves belong to.
    #[must_use]
    pub fn workload(&self) -> CloudletWorkload {
        self.workload
    }

    /// The per-deployment latency curves.
    #[must_use]
    pub fn curves(&self) -> &[LatencyCurve] {
        &self.curves
    }

    /// The curve for one deployment.
    #[must_use]
    pub fn curve(&self, label: &str) -> Option<&LatencyCurve> {
        self.curves.iter().find(|c| c.label() == label)
    }

    /// Maximum sustainable throughput per deployment under the paper's
    /// informal "before the latencies shoot up" criterion (median ≤ 100 ms,
    /// tail ≤ 200 ms).
    #[must_use]
    pub fn saturation_points(&self) -> Vec<(String, Option<f64>)> {
        self.curves
            .iter()
            .map(|c| (c.label().to_owned(), c.max_sustainable_qps(100.0, 200.0)))
            .collect()
    }

    /// Renders the median or tail latency chart.
    #[must_use]
    pub fn chart(&self, tail: bool) -> Chart {
        let which = if tail { "tail (90th)" } else { "median" };
        let mut chart = Chart::new(
            format!("{} — {which} latency", self.workload.label()),
            "throughput (requests/sec)",
            "latency (ms)",
        );
        for curve in &self.curves {
            chart.push_line(SeriesLine::new(
                curve.label(),
                curve
                    .points()
                    .iter()
                    .map(|p| (p.qps(), if tail { p.tail_ms() } else { p.median_ms() }))
                    .collect(),
            ));
        }
        chart
    }
}

/// Configuration for the Figure 7 sweeps.
#[derive(Debug, Clone)]
pub struct Figure7Study {
    qps_points: Vec<f64>,
    duration_s: f64,
    warmup_s: f64,
    seed: u64,
}

impl Figure7Study {
    /// The paper-scale sweep: 500–5,500 QPS in 500 QPS steps, 10-second
    /// measurements after a 2-second warm-up.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            qps_points: (1..=11).map(|i| f64::from(i) * 500.0).collect(),
            duration_s: 10.0,
            warmup_s: 2.0,
            seed: 42,
        }
    }

    /// A reduced sweep for quick runs and tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            qps_points: vec![500.0, 2_000.0, 3_500.0, 5_000.0],
            duration_s: 3.0,
            warmup_s: 1.0,
            seed: 42,
        }
    }

    /// Overrides the offered-load points.
    ///
    /// # Panics
    ///
    /// Panics if no points are given.
    #[must_use]
    pub fn qps_points(mut self, points: Vec<f64>) -> Self {
        assert!(!points.is_empty(), "need at least one load point");
        self.qps_points = points;
        self
    }

    /// Runs the study for one workload across all Figure 7 deployments.
    ///
    /// The deployments are independent simulations, so they fan out one
    /// worker each (each sweep additionally parallelises its load points);
    /// results come back in input order, so the curve order matches
    /// `DeploymentKind::figure7_set()` exactly as in a serial run.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a deployment cannot be built or run;
    /// with multiple failures the earliest deployment's error wins.
    pub fn run(&self, workload: CloudletWorkload) -> Result<Figure7Result, DeploymentError> {
        let app = workload.application();
        let kinds = DeploymentKind::figure7_set();
        // The outer fan-out already occupies one core per deployment, so
        // cap each inner sweep's worker pool to its share of the machine —
        // otherwise 4 deployments x available_parallelism sweep workers
        // oversubscribe the CPU.
        let sweep_workers = fanout::workers(None, usize::MAX).div_ceil(kinds.len());
        let curves = fanout::map_slots(kinds.len(), kinds, |_, kind| {
            self.run_deployment(kind, &app, workload.request_type(), sweep_workers)
        })
        .map_err(|lost| DeploymentError::Sim(lost.into()))?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(Figure7Result { workload, curves })
    }

    /// Builds and sweeps one deployment (one worker's share of the study).
    fn run_deployment(
        &self,
        kind: DeploymentKind,
        app: &Application,
        request_type: Option<&str>,
        sweep_workers: usize,
    ) -> Result<LatencyCurve, DeploymentError> {
        let sim = build_deployment(kind, app, 11)?;
        let mut config = SweepConfig::new(self.qps_points.clone(), self.duration_s, self.warmup_s)
            .seed(self.seed)
            .parallelism(sweep_workers);
        if let Some(rt) = request_type {
            config = config.request_type(rt);
        }
        config.run(kind.label(), &sim).map_err(DeploymentError::Sim)
    }
}

/// Runs the Figure 8 scenario (idle / read / idle / write / idle) on the
/// phone cloudlet and returns the run metrics with per-phone utilisation.
///
/// The paper uses 120-second phases at 3,000 QPS of reads and 3,500 QPS of
/// writes; smaller values run proportionally faster.
///
/// # Errors
///
/// Returns [`DeploymentError`] if the deployment cannot be built or run.
pub fn figure8_utilization(
    read_qps: f64,
    write_qps: f64,
    phase_seconds: f64,
    seed: u64,
) -> Result<RunMetrics, DeploymentError> {
    let app = social_network();
    let sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)?;
    run_figure8(
        &sim,
        SN_READ_HOME_TIMELINE,
        SN_COMPOSE_POST,
        read_qps,
        write_qps,
        phase_seconds,
        seed,
    )
    .map_err(DeploymentError::Sim)
}

/// Carbon accounting for the ten-phone cloudlet serving requests
/// continuously (Section 6.3): ~1.7 W per phone plus one server fan, with
/// battery packs replaced every ~2.1 years.
#[must_use]
pub fn phone_cloudlet_request_calculator(qps: f64, grid: CarbonIntensity) -> CciCalculator {
    let pixel = catalog::pixel_3a();
    let battery = pixel.battery().expect("the Pixel has a battery");
    let serving_power_per_phone = Watts::new(1.7);
    let cluster_power = serving_power_per_phone * 10.0 + FAN_POWER;
    CciCalculator::new(OpUnit::Request)
        .embodied(EmbodiedCarbon::reused().with_item("server fan", FAN_EMBODIED, 1.0))
        .average_power(cluster_power)
        .grid(grid)
        .throughput(Throughput::per_second(qps, OpUnit::Request))
        .battery_replacement(
            battery.embodied() * 10.0,
            battery.projected_lifetime(serving_power_per_phone),
        )
}

/// Carbon accounting for a c5.9xlarge serving requests continuously,
/// using the public estimates the paper cites (140.7 W at the ~10–30 %
/// utilisation observed, 1,344 kgCO2e embodied).
#[must_use]
pub fn c5_9xlarge_request_calculator(qps: f64, grid: CarbonIntensity) -> CciCalculator {
    let c5 = catalog::c5_instance(C5Size::XLarge9);
    CciCalculator::new(OpUnit::Request)
        .embodied(EmbodiedCarbon::manufactured(c5.name(), c5.embodied()))
        .average_power(Watts::new(140.7))
        .grid(grid)
        .throughput(Throughput::per_second(qps, OpUnit::Request))
}

/// The Figure 9 study: CCI per request over the deployment lifetime for the
/// phone cloudlet and the c5.9xlarge, per workload.
///
/// `months` is the lifetime axis; throughputs default to the paper's
/// measured saturation points.
///
/// # Errors
///
/// Propagates CCI errors.
pub fn figure9_chart(workload: CloudletWorkload, months: &[f64]) -> Result<Chart, CciError> {
    let grid = CarbonIntensity::from_grams_per_kwh(257.0);
    let phones = phone_cloudlet_request_calculator(workload.paper_phone_qps(), grid);
    let server = c5_9xlarge_request_calculator(workload.paper_c5_9xlarge_qps(), grid);
    let mut chart = Chart::new(
        format!("{} — carbon per request", workload.label()),
        "lifetime (months)",
        "gCO2e/request",
    );
    for (label, calc) in [("Phones", &phones), ("Server (c5.9xlarge)", &server)] {
        let mut points = Vec::with_capacity(months.len());
        for m in months {
            points.push((*m, calc.cci_at(TimeSpan::from_months(*m))?.grams_per_op()));
        }
        chart.push_line(SeriesLine::new(label, points));
    }
    Ok(chart)
}

/// Relative carbon efficiency of the phone cloudlet over the c5.9xlarge at a
/// given lifetime (the paper reports 18.9x / 9.8x / 12.6x after three
/// years for write / read / hotel).
///
/// # Errors
///
/// Propagates CCI errors.
pub fn figure9_advantage(workload: CloudletWorkload, lifetime: TimeSpan) -> Result<f64, CciError> {
    let grid = CarbonIntensity::from_grams_per_kwh(257.0);
    let phones =
        phone_cloudlet_request_calculator(workload.paper_phone_qps(), grid).cci_at(lifetime)?;
    let server =
        c5_9xlarge_request_calculator(workload.paper_c5_9xlarge_qps(), grid).cci_at(lifetime)?;
    Ok(server.grams_per_op() / phones.grams_per_op())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_advantages_match_paper_band() {
        let three_years = TimeSpan::from_years(3.0);
        let write = figure9_advantage(CloudletWorkload::SocialNetworkWrite, three_years).unwrap();
        let read = figure9_advantage(CloudletWorkload::SocialNetworkRead, three_years).unwrap();
        let hotel = figure9_advantage(CloudletWorkload::HotelReservation, three_years).unwrap();
        // Paper: 18.9x, 9.8x and 12.6x respectively.
        assert!((10.0..=30.0).contains(&write), "write {write}");
        assert!((5.0..=16.0).contains(&read), "read {read}");
        assert!((7.0..=20.0).contains(&hotel), "hotel {hotel}");
        assert!(write > hotel && hotel > read);
    }

    #[test]
    fn figure9_chart_has_both_lines_and_phones_win() {
        let months: Vec<f64> = (6..=54).step_by(6).map(|m| m as f64).collect();
        let chart = figure9_chart(CloudletWorkload::HotelReservation, &months).unwrap();
        let phones = chart.line("Phones").unwrap().final_value().unwrap();
        let server = chart
            .line("Server (c5.9xlarge)")
            .unwrap()
            .final_value()
            .unwrap();
        assert!(phones < server);
    }

    #[test]
    fn figure7_quick_sweep_reproduces_the_write_ordering() {
        // Reduced sweep: the phone cloudlet should sustain more compose-post
        // throughput than the client-throttled c5 instances.
        let result = Figure7Study::quick()
            .qps_points(vec![1_500.0, 2_600.0, 3_200.0])
            .run(CloudletWorkload::SocialNetworkWrite)
            .unwrap();
        let saturation = result.saturation_points();
        let get = |label: &str| {
            saturation
                .iter()
                .find(|(l, _)| l == label)
                .and_then(|(_, q)| *q)
                .unwrap_or(0.0)
        };
        assert!(
            get("Phones") > get("c5.12xlarge"),
            "phones {:?} vs 12xl {:?}",
            get("Phones"),
            get("c5.12xlarge")
        );
        let chart = result.chart(false);
        assert_eq!(chart.lines().len(), 4);
    }

    #[test]
    fn figure8_shows_load_dependent_utilisation() {
        let metrics = figure8_utilization(500.0, 600.0, 3.0, 7).unwrap();
        assert_eq!(metrics.node_utilization().len(), 10);
        let mean_all = |from: usize, to: usize| -> f64 {
            metrics
                .node_utilization()
                .iter()
                .map(|u| u.mean_percent_between(from, to))
                .sum::<f64>()
                / 10.0
        };
        let idle = mean_all(0, 3);
        let busy = mean_all(4, 6);
        assert!(busy > idle);
    }

    #[test]
    fn workload_metadata_is_consistent() {
        for workload in CloudletWorkload::ALL {
            assert!(workload.paper_phone_qps() > 0.0);
            assert!(workload.paper_c5_9xlarge_qps() > 0.0);
            assert!(!workload.label().is_empty());
        }
        assert!(CloudletWorkload::HotelReservation.request_type().is_none());
        assert_eq!(
            CloudletWorkload::SocialNetworkWrite.request_type(),
            Some(SN_COMPOSE_POST)
        );
    }
}
