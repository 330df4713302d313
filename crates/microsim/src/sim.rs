//! The discrete-event simulation engine.
//!
//! Requests arrive as an open-loop Poisson process, traverse their request
//! type's stages, and contend for three kinds of resources:
//!
//! * **Node CPUs** — each node is a multi-server FIFO queue of
//!   `cores` workers; a call's service time is its reference-core cost
//!   divided by the node's per-core speed, plus a small per-RPC system
//!   overhead.
//! * **The shared wireless channel** — on the phone cloudlet every
//!   inter-node and client message serialises through one WiFi medium of
//!   limited goodput.
//! * **The colocated load generator** — on the single-instance EC2
//!   deployments the client runs on the same machine with a small worker
//!   pool, so request types with expensive client-side work (composing
//!   posts) are throttled by it, as in the paper's methodology.
//!
//! The engine processes stage events in global time order and assigns
//! resources greedily (earliest-available worker), which is an accurate
//! FIFO approximation at the sub-millisecond service times involved.
//!
//! Two interchangeable engines implement these semantics:
//! [`Simulation::run`] lowers the simulation into the index-resolved
//! [`crate::compiled::CompiledSim`] hot path, while
//! [`Simulation::run_reference`] keeps the original name-resolved event
//! loop as an executable specification. Both are bit-identical for a
//! given seed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::app::Application;
use crate::compiled::CompiledSim;
use crate::metrics::{CompletedRequest, NodeQueueStats, NodeUtilization, RunMetrics};
use crate::network::NetworkModel;
use crate::node::NodeSpec;
use crate::placement::Placement;

/// Per-RPC system (network-stack) overhead, reference-core milliseconds.
pub(crate) const RPC_SYS_OVERHEAD_MS: f64 = 0.05;

/// Size of a client's request message to the frontend, bytes (shared by
/// both engines so their channel reservations stay bit-identical).
pub(crate) const CLIENT_REQUEST_BYTES: f64 = 500.0;

/// Number of entries in the RSS-style indirection table that spreads flow
/// hashes over a node's core-local queues under
/// [`QueueDiscipline::DistributedFcfs`].
pub const RSS_TABLE_ENTRIES: usize = 128;

/// How arriving calls queue for a node's application cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// One work-conserving FIFO queue per node: an arriving call is served
    /// by whichever core frees first. This is the engine's historical
    /// (implicit) discipline.
    #[default]
    CentralizedFcfs,
    /// Per-core FIFO queues fed by an RSS-style indirection table: each
    /// request's flow hash selects a queue pinned to one application core,
    /// so a slow call head-of-line-blocks its queue while other cores may
    /// sit idle — the classic dFCFS trade against work conservation.
    DistributedFcfs,
}

/// How a node's cores are divided between network processing and
/// application work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoreLayout {
    /// Every core handles both the per-RPC system overhead and the
    /// application work in one combined reservation (the historical
    /// behaviour).
    #[default]
    Combined,
    /// `network_cores` cores are dedicated to per-RPC system processing;
    /// the rest run application work only. A call is first served by a
    /// network core (system time), then queues for an application core
    /// (user time). At least one application core is always kept: the
    /// network pool is capped at `cores - 1`, and a cap of zero degrades
    /// to [`CoreLayout::Combined`] semantics on that node.
    Dedicated {
        /// Cores reserved for network processing, per node.
        network_cores: u32,
    },
}

impl CoreLayout {
    /// Splits a node's `cores` into `(network, application)` pools.
    #[must_use]
    pub(crate) fn split(self, cores: u32) -> (usize, usize) {
        match self {
            CoreLayout::Combined => (0, cores as usize),
            CoreLayout::Dedicated { network_cores } => {
                let net = (network_cores as usize).min(cores as usize - 1);
                (net, cores as usize - net)
            }
        }
    }
}

/// The server model of a simulation: queue discipline, core layout and the
/// per-queue bound. The default — centralised FCFS, combined cores,
/// unbounded queues — reproduces the engine's historical behaviour
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerModel {
    #[serde(default)]
    discipline: QueueDiscipline,
    #[serde(default)]
    layout: CoreLayout,
    #[serde(default)]
    queue_size: Option<usize>,
}

impl ServerModel {
    /// The default model: centralised FCFS, combined cores, unbounded.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the queue discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Sets the core layout.
    #[must_use]
    pub fn with_layout(mut self, layout: CoreLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Bounds every queue at `size` waiting calls; a call arriving at a
    /// full queue is dropped (and with it, its whole request). `None`
    /// restores the historical unbounded queues. A size of zero refuses
    /// any call that cannot start service immediately.
    #[must_use]
    pub fn with_queue_size(mut self, size: Option<usize>) -> Self {
        self.queue_size = size;
        self
    }

    /// The queue discipline.
    #[must_use]
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// The core layout.
    #[must_use]
    pub fn layout(&self) -> CoreLayout {
        self.layout
    }

    /// The per-queue bound, if any.
    #[must_use]
    pub fn queue_size(&self) -> Option<usize> {
        self.queue_size
    }
}

/// An RSS-style indirection table: `RSS_TABLE_ENTRIES` entries mapping a
/// flow hash to one of a node's core-local queues, filled round-robin
/// (`entries[i] = i mod queues`) like a NIC's default RETA programming.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RssTable {
    entries: Vec<u32>,
}

impl RssTable {
    /// Builds the table for a node with `queues` core-local queues.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    #[must_use]
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "a node needs at least one queue");
        Self {
            entries: (0..RSS_TABLE_ENTRIES)
                .map(|i| u32::try_from(i % queues).expect("queue index fits u32"))
                .collect(),
        }
    }

    /// The queue a flow hash is steered to.
    #[must_use]
    pub fn queue_of(&self, flow_hash: u64) -> usize {
        self.entries[(flow_hash % self.entries.len() as u64) as usize] as usize
    }

    /// The raw indirection entries.
    #[must_use]
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }
}

/// Hashes a request's flow identifier (its global arrival index) with the
/// SplitMix64 finaliser, the value both engines feed to [`RssTable`]. The
/// mixing step stands in for the Toeplitz hash of a real NIC: consecutive
/// arrivals land on decorrelated queues.
#[must_use]
pub fn flow_hash(flow: u64) -> u64 {
    let mut z = flow.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One phase of offered load: constant-rate by default, or a linear ramp
/// between two rates ([`Phase::ramp`]) for diurnal and other time-varying
/// schedules.
///
/// Ramp arrivals are generated by thinning (Lewis–Shedler): candidates are
/// drawn at the phase's peak rate and accepted with probability
/// `rate(t) / peak`, which keeps the process an exact non-homogeneous
/// Poisson process. Constant phases skip the acceptance draw entirely, so
/// their RNG consumption — and therefore every pre-existing workload — is
/// bit-identical to the pre-ramp engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    qps: f64,
    qps_end: Option<f64>,
    duration_s: f64,
    request_type: Option<String>,
}

impl Phase {
    /// Creates a phase offering `qps` requests per second for
    /// `duration_s` seconds. `request_type` restricts the phase to a single
    /// request type; `None` uses the application's weighted mix.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or the duration is not positive.
    #[must_use]
    pub fn new(qps: f64, duration_s: f64, request_type: Option<&str>) -> Self {
        assert!(qps >= 0.0, "offered load cannot be negative");
        assert!(duration_s > 0.0, "phase duration must be positive");
        Self {
            qps,
            qps_end: None,
            duration_s,
            request_type: request_type.map(str::to_owned),
        }
    }

    /// Creates a phase whose offered load ramps linearly from `qps_start`
    /// to `qps_end` over `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or the duration is not positive.
    #[must_use]
    pub fn ramp(qps_start: f64, qps_end: f64, duration_s: f64, request_type: Option<&str>) -> Self {
        assert!(qps_end >= 0.0, "offered load cannot be negative");
        let mut phase = Self::new(qps_start, duration_s, request_type);
        phase.qps_end = Some(qps_end);
        phase
    }

    /// An idle phase (no arrivals).
    #[must_use]
    pub fn idle(duration_s: f64) -> Self {
        Self::new(0.0, duration_s, None)
    }

    /// Offered load at the start of the phase, requests per second.
    #[must_use]
    pub fn qps(&self) -> f64 {
        self.qps
    }

    /// Offered load at the end of the phase — equal to [`Phase::qps`] for
    /// constant phases.
    #[must_use]
    pub fn end_qps(&self) -> f64 {
        self.qps_end.unwrap_or(self.qps)
    }

    /// `true` when the phase's rate actually varies over time (a ramp with
    /// equal endpoints behaves — and draws from the RNG — exactly like a
    /// constant phase).
    #[must_use]
    pub fn is_ramp(&self) -> bool {
        self.qps_end.is_some_and(|end| end != self.qps)
    }

    /// The highest instantaneous rate of the phase (the thinning envelope).
    #[must_use]
    pub fn peak_qps(&self) -> f64 {
        self.qps.max(self.end_qps())
    }

    /// The time-averaged rate of the phase.
    #[must_use]
    pub fn mean_qps(&self) -> f64 {
        (self.qps + self.end_qps()) / 2.0
    }

    /// The instantaneous rate `offset_s` seconds into the phase, clamped to
    /// the phase's endpoints outside `[0, duration_s]`.
    #[must_use]
    pub fn rate_at(&self, offset_s: f64) -> f64 {
        let end = self.end_qps();
        if end == self.qps {
            return self.qps;
        }
        let frac = (offset_s / self.duration_s).clamp(0.0, 1.0);
        self.qps + (end - self.qps) * frac
    }

    /// Phase duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Request type restriction, if any.
    #[must_use]
    pub fn request_type(&self) -> Option<&str> {
        self.request_type.as_deref()
    }
}

/// A workload: one or more phases of offered load plus the random seed for
/// arrival times and mix sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    phases: Vec<Phase>,
    seed: u64,
}

impl Workload {
    /// Creates a workload from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if there are no phases.
    #[must_use]
    pub fn phased(phases: Vec<Phase>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "a workload needs at least one phase");
        Self { phases, seed }
    }

    /// A single steady phase.
    #[must_use]
    pub fn steady(qps: f64, duration_s: f64, request_type: Option<&str>, seed: u64) -> Self {
        Self::phased(vec![Phase::new(qps, duration_s, request_type)], seed)
    }

    /// The phases of the workload.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total duration across phases, seconds.
    #[must_use]
    pub fn total_duration_s(&self) -> f64 {
        self.phases.iter().map(Phase::duration_s).sum()
    }

    /// The random seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Errors raised when assembling a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The placement does not cover every service of the application.
    IncompletePlacement,
    /// The cluster has no nodes.
    NoNodes,
    /// A phase requested a request type the application does not define.
    UnknownRequestType(String),
    /// A fan-out worker panicked before filling its result slots (see
    /// [`junkyard_obs::fanout::WorkerLost`]).
    WorkerLost,
}

impl From<junkyard_obs::fanout::WorkerLost> for SimError {
    fn from(_: junkyard_obs::fanout::WorkerLost) -> Self {
        SimError::WorkerLost
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IncompletePlacement => f.write_str("placement does not cover every service"),
            SimError::NoNodes => f.write_str("the cluster has no nodes"),
            SimError::UnknownRequestType(name) => write!(f, "unknown request type {name}"),
            SimError::WorkerLost => f.write_str("a fan-out worker died before filling its slot"),
        }
    }
}

impl std::error::Error for SimError {}

/// A ready-to-run simulation of one application on one deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulation {
    app: Application,
    nodes: Vec<NodeSpec>,
    placement: Placement,
    network: NetworkModel,
    colocated_client: bool,
    #[serde(default)]
    server: ServerModel,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the cluster is empty or the placement does
    /// not cover the application.
    pub fn new(
        app: Application,
        nodes: Vec<NodeSpec>,
        placement: Placement,
        network: NetworkModel,
    ) -> Result<Self, SimError> {
        if nodes.is_empty() {
            return Err(SimError::NoNodes);
        }
        if !placement.covers(&app) {
            return Err(SimError::IncompletePlacement);
        }
        Ok(Self {
            app,
            nodes,
            placement,
            network,
            colocated_client: false,
            server: ServerModel::default(),
        })
    }

    /// Runs the load generator on node 0 of the deployment (the paper's EC2
    /// methodology) instead of on an external machine.
    #[must_use]
    pub fn with_colocated_client(mut self, colocated: bool) -> Self {
        self.colocated_client = colocated;
        self
    }

    /// Sets the server model (queue discipline, core layout, queue bound).
    /// The default model reproduces the historical engine bit-identically.
    #[must_use]
    pub fn with_server_model(mut self, server: ServerModel) -> Self {
        self.server = server;
        self
    }

    /// The application being simulated.
    #[must_use]
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The cluster nodes.
    #[must_use]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The service placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The network model.
    #[must_use]
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// `true` when the load generator runs on node 0 of the deployment.
    #[must_use]
    pub fn colocated_client(&self) -> bool {
        self.colocated_client
    }

    /// The server model (queue discipline, core layout, queue bound).
    #[must_use]
    pub fn server_model(&self) -> ServerModel {
        self.server
    }

    /// Lowers the simulation into the index-resolved [`CompiledSim`] form.
    ///
    /// Compile once and reuse across workloads (and across threads — the
    /// compiled engine runs by shared reference) when driving many runs of
    /// the same deployment, as [`crate::sweep::SweepConfig`] does.
    #[must_use]
    pub fn compile(&self) -> CompiledSim {
        CompiledSim::compile(self)
    }

    /// Runs the workload and returns the collected metrics.
    ///
    /// Delegates to the compiled engine ([`CompiledSim`]), which is
    /// bit-identical to [`Simulation::run_reference`] for a given seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequestType`] if a phase names a request
    /// type the application does not define.
    pub fn run(&self, workload: &Workload) -> Result<RunMetrics, SimError> {
        self.compile().run(workload)
    }

    /// Runs the workload through the original, uncompiled event loop.
    ///
    /// This is the engine's executable specification: it resolves the
    /// placement map per event and materialises the full arrival schedule
    /// up front. [`CompiledSim`] must produce bit-identical [`RunMetrics`];
    /// the equivalence suite (`tests/microsim_equivalence.rs`) and the
    /// `des_engine` benchmarks compare the two. Prefer [`Simulation::run`]
    /// everywhere else.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequestType`] if a phase names a request
    /// type the application does not define.
    pub fn run_reference(&self, workload: &Workload) -> Result<RunMetrics, SimError> {
        let type_index = |name: &str| -> Result<usize, SimError> {
            self.app
                .request_types()
                .iter()
                .position(|r| r.name() == name)
                .ok_or_else(|| SimError::UnknownRequestType(name.to_owned()))
        };

        // Generate arrivals phase by phase.
        let mut rng = StdRng::seed_from_u64(workload.seed());
        let weights: Vec<f64> = self
            .app
            .request_types()
            .iter()
            .map(|r| r.weight())
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let mut arrivals: Vec<(f64, usize)> = Vec::new();
        let mut phase_start = 0.0;
        for phase in workload.phases() {
            let fixed_type = match phase.request_type() {
                Some(name) => Some(type_index(name)?),
                None => None,
            };
            if phase.peak_qps() > 0.0 {
                let peak = phase.peak_qps();
                let mut t = phase_start;
                loop {
                    let u: f64 = rng.random::<f64>().max(1e-12);
                    t += -u.ln() / peak;
                    if t >= phase_start + phase.duration_s() {
                        break;
                    }
                    if phase.is_ramp() {
                        // Thinning: accept the candidate with probability
                        // rate(t)/peak. Constant phases skip this draw, so
                        // their RNG stream is unchanged.
                        let accept: f64 = rng.random();
                        if accept * peak > phase.rate_at(t - phase_start) {
                            continue;
                        }
                    }
                    let type_idx = fixed_type.unwrap_or_else(|| {
                        let mut pick = rng.random::<f64>() * total_weight;
                        for (i, w) in weights.iter().enumerate() {
                            if pick < *w {
                                return i;
                            }
                            pick -= w;
                        }
                        weights.len() - 1
                    });
                    arrivals.push((t, type_idx));
                }
            }
            phase_start += phase.duration_s();
        }
        let total_duration = workload.total_duration_s();

        // Resource state, shaped by the server model: each node's cores are
        // split into a (possibly empty) network pool and an application
        // pool, and the discipline decides how many queues front the
        // application pool (one shared queue under cFCFS, one per core
        // under dFCFS, selected by the RSS indirection table).
        let dfcfs = self.server.discipline() == QueueDiscipline::DistributedFcfs;
        let queue_size = self.server.queue_size();
        let layouts: Vec<(usize, usize)> = self
            .nodes
            .iter()
            .map(|n| self.server.layout().split(n.cores()))
            .collect();
        let mut net_avail: Vec<Vec<f64>> = layouts.iter().map(|&(net, _)| vec![0.0; net]).collect();
        let mut app_avail: Vec<Vec<f64>> = layouts.iter().map(|&(_, app)| vec![0.0; app]).collect();
        let n_queues: Vec<usize> = layouts
            .iter()
            .map(|&(_, app)| if dfcfs { app } else { 1 })
            .collect();
        let rss: Vec<RssTable> = n_queues.iter().map(|&q| RssTable::new(q)).collect();
        // Start times of admitted-but-waiting calls, per queue. Starts are
        // pushed in nondecreasing order (pool free times and event times
        // are both monotone), so entries <= now can be pruned from the
        // front; what remains is the queue's current occupancy.
        let mut waiting: Vec<Vec<VecDeque<f64>>> =
            n_queues.iter().map(|&q| vec![VecDeque::new(); q]).collect();
        let mut queue_drops: Vec<Vec<u64>> = n_queues.iter().map(|&q| vec![0_u64; q]).collect();
        let mut calls_arrived: Vec<u64> = vec![0; self.nodes.len()];
        let mut calls_served: Vec<u64> = vec![0; self.nodes.len()];
        let mut dropped_arrivals: Vec<f64> = Vec::new();
        let buckets = total_duration.ceil() as usize + 2;
        let mut utilization: Vec<NodeUtilization> = self
            .nodes
            .iter()
            .map(|n| NodeUtilization::new(n.name(), n.cores(), buckets))
            .collect();
        let mut client_avail: Vec<f64> = vec![0.0; self.app.client_workers() as usize];
        let mut link_avail: f64 = 0.0;

        let frontend_node = self
            .placement
            .node_of(self.app.frontend())
            .expect("placement covers the frontend");

        // Event queue. Every resource reservation (client worker, shared
        // WiFi channel, node core) happens at event-pop time, so each
        // resource is served in true timestamp order.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Step {
            /// Request arrives at the (possibly colocated) load generator.
            Arrive,
            /// The frontend fans out the calls of a stage.
            Dispatch { stage: usize },
            /// A call's request message has reached its service's node.
            CallArrived { stage: usize, call: usize },
            /// A call's network-stack processing on a dedicated network
            /// core has finished; queue for an application core.
            CallNetDone { stage: usize, call: usize },
            /// A call's CPU work has finished; send the reply.
            CallFinished { stage: usize, call: usize },
            /// All stages are done; return the response to the client.
            Complete,
        }

        #[derive(PartialEq)]
        struct Event {
            time: f64,
            seq: u64,
            request: usize,
            step: Step,
        }
        impl Eq for Event {}
        impl Ord for Event {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse order: the binary heap is a max-heap, we want the
                // earliest event first.
                other
                    .time
                    .total_cmp(&self.time)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }
        impl PartialOrd for Event {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        struct RequestState {
            arrival: f64,
            type_idx: usize,
            outstanding_calls: usize,
            stage_end: f64,
            flow: u64,
            dropped: bool,
        }

        let mut events: BinaryHeap<Event> = BinaryHeap::with_capacity(arrivals.len() * 4);
        let mut seq = 0u64;
        let mut requests: Vec<RequestState> = Vec::with_capacity(arrivals.len());
        for (t, type_idx) in &arrivals {
            requests.push(RequestState {
                arrival: *t,
                type_idx: *type_idx,
                outstanding_calls: 0,
                stage_end: *t,
                flow: flow_hash(requests.len() as u64),
                dropped: false,
            });
            events.push(Event {
                time: *t,
                seq,
                request: requests.len() - 1,
                step: Step::Arrive,
            });
            seq += 1;
        }

        let mut completions: Vec<CompletedRequest> = Vec::with_capacity(arrivals.len());

        // Sends a message at `now` (the current event time). Cross-node and
        // client messages serialise through the shared channel, if any.
        let send = |link_avail: &mut f64,
                    now: f64,
                    same_node: bool,
                    bytes: f64,
                    client_hop: bool|
         -> f64 {
            let latency = if client_hop {
                self.network.client_latency_ms() / 1_000.0
            } else {
                self.network.hop_latency_secs(same_node)
            };
            if same_node && !client_hop {
                return now + latency;
            }
            let tx = self.network.transmission_secs(bytes);
            if tx > 0.0 {
                let start = now.max(*link_avail);
                *link_avail = start + tx;
                start + tx + latency
            } else {
                now + latency
            }
        };

        let mut processed = 0_u64;
        while let Some(event) = events.pop() {
            processed += 1;
            let now = event.time;
            let type_idx = requests[event.request].type_idx;
            let request_type = &self.app.request_types()[type_idx];
            let mut push = |time: f64, request: usize, step: Step, seq: &mut u64| {
                events.push(Event {
                    time,
                    seq: *seq,
                    request,
                    step,
                });
                *seq += 1;
            };

            match event.step {
                Step::Arrive => {
                    let ready = if self.colocated_client {
                        let cost = self.nodes[0].service_secs(request_type.client_cost_ms());
                        let (best, _) = client_avail
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1))
                            .expect("client pool is non-empty");
                        let start = now.max(client_avail[best]);
                        client_avail[best] = start + cost;
                        start + cost + self.network.hop_latency_secs(true)
                    } else {
                        send(&mut link_avail, now, false, CLIENT_REQUEST_BYTES, true)
                    };
                    push(ready, event.request, Step::Dispatch { stage: 0 }, &mut seq);
                }
                Step::Dispatch { stage } => {
                    let calls = request_type.stages()[stage].calls();
                    requests[event.request].outstanding_calls = calls.len();
                    requests[event.request].stage_end = now;
                    for (call_idx, call) in calls.iter().enumerate() {
                        let target = self
                            .placement
                            .node_of(call.service())
                            .expect("placement covers every service");
                        let same_node = target == frontend_node;
                        let delivered =
                            send(&mut link_avail, now, same_node, call.request_bytes(), false);
                        push(
                            delivered,
                            event.request,
                            Step::CallArrived {
                                stage,
                                call: call_idx,
                            },
                            &mut seq,
                        );
                    }
                }
                Step::CallArrived { stage, call } => {
                    let call_spec = &request_type.stages()[stage].calls()[call];
                    let target = self
                        .placement
                        .node_of(call_spec.service())
                        .expect("placement covers every service");
                    let node = &self.nodes[target];
                    let user_secs = node.service_secs(call_spec.cpu_ms());
                    let sys_secs = node.service_secs(RPC_SYS_OVERHEAD_MS);
                    let (net, _) = layouts[target];
                    calls_arrived[target] += 1;
                    if net > 0 {
                        // Dedicated layout: network processing first, on
                        // the earliest-free network core (unbounded — the
                        // application queue downstream is what the bound
                        // protects).
                        let (best, _) = net_avail[target]
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1))
                            .expect("dedicated layout has a network core");
                        let start = now.max(net_avail[target][best]);
                        net_avail[target][best] = start + sys_secs;
                        utilization[target].add_sys(start, sys_secs);
                        push(
                            start + sys_secs,
                            event.request,
                            Step::CallNetDone { stage, call },
                            &mut seq,
                        );
                        continue;
                    }
                    // Combined layout: admission against the discipline's
                    // application queue, then one reservation covering
                    // system and application work.
                    let queue = if dfcfs {
                        rss[target].queue_of(requests[event.request].flow)
                    } else {
                        0
                    };
                    let avail = if dfcfs {
                        app_avail[target][queue]
                    } else {
                        app_avail[target]
                            .iter()
                            .copied()
                            .fold(f64::INFINITY, f64::min)
                    };
                    let start = now.max(avail);
                    if let Some(cap) = queue_size {
                        if start > now {
                            // The call has to wait: count the queue's
                            // current occupancy and drop at the bound.
                            let q = &mut waiting[target][queue];
                            while q.front().is_some_and(|&s| s <= now) {
                                q.pop_front();
                            }
                            if q.len() >= cap {
                                queue_drops[target][queue] += 1;
                                let state = &mut requests[event.request];
                                state.dropped = true;
                                state.outstanding_calls -= 1;
                                if state.outstanding_calls == 0 {
                                    dropped_arrivals.push(state.arrival);
                                }
                                continue;
                            }
                            q.push_back(start);
                        }
                    }
                    let finish = start + user_secs + sys_secs;
                    if dfcfs {
                        app_avail[target][queue] = finish;
                    } else {
                        let (best, _) = app_avail[target]
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1))
                            .expect("node has at least one core");
                        app_avail[target][best] = finish;
                    }
                    utilization[target].add_user(start, user_secs);
                    utilization[target].add_sys(start, sys_secs);
                    push(
                        finish,
                        event.request,
                        Step::CallFinished { stage, call },
                        &mut seq,
                    );
                }
                Step::CallNetDone { stage, call } => {
                    // Network processing done: queue for an application
                    // core. This is where the dedicated layout's bound
                    // applies — a drop here has already burnt network-core
                    // time on the doomed call.
                    let call_spec = &request_type.stages()[stage].calls()[call];
                    let target = self
                        .placement
                        .node_of(call_spec.service())
                        .expect("placement covers every service");
                    let user_secs = self.nodes[target].service_secs(call_spec.cpu_ms());
                    let queue = if dfcfs {
                        rss[target].queue_of(requests[event.request].flow)
                    } else {
                        0
                    };
                    let avail = if dfcfs {
                        app_avail[target][queue]
                    } else {
                        app_avail[target]
                            .iter()
                            .copied()
                            .fold(f64::INFINITY, f64::min)
                    };
                    let start = now.max(avail);
                    if let Some(cap) = queue_size {
                        if start > now {
                            let q = &mut waiting[target][queue];
                            while q.front().is_some_and(|&s| s <= now) {
                                q.pop_front();
                            }
                            if q.len() >= cap {
                                queue_drops[target][queue] += 1;
                                let state = &mut requests[event.request];
                                state.dropped = true;
                                state.outstanding_calls -= 1;
                                if state.outstanding_calls == 0 {
                                    dropped_arrivals.push(state.arrival);
                                }
                                continue;
                            }
                            q.push_back(start);
                        }
                    }
                    if dfcfs {
                        app_avail[target][queue] = start + user_secs;
                    } else {
                        let (best, _) = app_avail[target]
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1))
                            .expect("node has at least one application core");
                        app_avail[target][best] = start + user_secs;
                    }
                    utilization[target].add_user(start, user_secs);
                    push(
                        start + user_secs,
                        event.request,
                        Step::CallFinished { stage, call },
                        &mut seq,
                    );
                }
                Step::CallFinished { stage, call } => {
                    let call_spec = &request_type.stages()[stage].calls()[call];
                    let target = self
                        .placement
                        .node_of(call_spec.service())
                        .expect("placement covers every service");
                    calls_served[target] += 1;
                    let same_node = target == frontend_node;
                    let replied = send(
                        &mut link_avail,
                        now,
                        same_node,
                        call_spec.response_bytes(),
                        false,
                    );
                    let state = &mut requests[event.request];
                    if replied > state.stage_end {
                        state.stage_end = replied;
                    }
                    state.outstanding_calls -= 1;
                    if state.outstanding_calls == 0 {
                        if state.dropped {
                            // A sibling call of this stage was dropped: the
                            // request terminates once its in-flight calls
                            // drain, without further stages or completion.
                            dropped_arrivals.push(state.arrival);
                        } else {
                            let next_time = state.stage_end;
                            let next_step = if stage + 1 < request_type.stages().len() {
                                Step::Dispatch { stage: stage + 1 }
                            } else {
                                Step::Complete
                            };
                            push(next_time, event.request, next_step, &mut seq);
                        }
                    }
                }
                Step::Complete => {
                    let done = if self.colocated_client {
                        now + self.network.hop_latency_secs(true)
                    } else {
                        send(
                            &mut link_avail,
                            now,
                            false,
                            request_type.response_to_client_bytes(),
                            true,
                        )
                    };
                    let arrival = requests[event.request].arrival;
                    completions.push(CompletedRequest::new(arrival, (done - arrival) * 1_000.0));
                }
            }
        }

        let queue_stats: Vec<NodeQueueStats> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                NodeQueueStats::new(
                    n.name(),
                    calls_arrived[i],
                    calls_served[i],
                    queue_drops[i].clone(),
                )
            })
            .collect();
        Ok(
            RunMetrics::new(total_duration, arrivals.len(), completions, utilization)
                .with_events(processed)
                .with_queue_stats(dropped_arrivals, queue_stats),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{hotel_reservation, social_network, SN_COMPOSE_POST, SN_READ_HOME_TIMELINE};
    use crate::node::{ten_pixel_cloudlet, NodeSpec};

    fn phone_sim(app: Application) -> Simulation {
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
    }

    fn c5_sim(app: Application, vcpus: u32, memory: f64) -> Simulation {
        let nodes = vec![NodeSpec::c5("c5", vcpus, memory)];
        let placement = Placement::single_node(&app);
        Simulation::new(app, nodes, placement, NetworkModel::single_node_loopback())
            .unwrap()
            .with_colocated_client(true)
    }

    #[test]
    fn light_load_completes_everything_with_low_latency() {
        let sim = phone_sim(hotel_reservation());
        let metrics = sim.run(&Workload::steady(200.0, 5.0, None, 1)).unwrap();
        assert_eq!(metrics.offered(), metrics.completions().len());
        let stats = metrics.latency_stats();
        assert!(
            stats.median_ms().unwrap() < 80.0,
            "median {:?}",
            stats.median_ms()
        );
        assert!(
            stats.tail_ms().unwrap() < 150.0,
            "tail {:?}",
            stats.tail_ms()
        );
    }

    #[test]
    fn latency_blows_up_past_saturation_relative_to_a_low_load_baseline() {
        // Relative saturation criterion: instead of asserting a blow-up at
        // a magic absolute QPS near the queueing knee (which depends on the
        // vendored RNG's exact arrival sequence), compare medians against a
        // low-load baseline. Far below the cloudlet's ~4.7k-ref-core
        // capacity the curve is flat; far above it (several times the
        // aggregate capacity) the median must blow up by a large factor,
        // whatever the arrival sequence looks like.
        let sim = phone_sim(hotel_reservation());
        let median_at = |qps: f64| {
            sim.run(&Workload::steady(qps, 4.0, None, 2))
                .unwrap()
                .latency_stats_between(1.0, 4.0)
                .median_ms()
                .unwrap()
        };
        let baseline = median_at(250.0);
        let light = median_at(500.0);
        let heavy = median_at(16_000.0);
        assert!(
            light < baseline * 2.0,
            "the low-load region must be flat: {baseline} vs {light}"
        );
        assert!(
            heavy > baseline * 5.0,
            "deep saturation must blow the median up: {baseline} vs {heavy}"
        );
    }

    #[test]
    fn single_node_has_lower_base_latency_than_the_cloudlet() {
        let app = social_network();
        let phones = phone_sim(app.clone());
        let c5 = c5_sim(app, 36, 72.0);
        let workload = Workload::steady(300.0, 4.0, Some(SN_READ_HOME_TIMELINE), 3);
        let phone_p50 = phones
            .run(&workload)
            .unwrap()
            .latency_stats()
            .median_ms()
            .unwrap();
        let c5_p50 = c5
            .run(&workload)
            .unwrap()
            .latency_stats()
            .median_ms()
            .unwrap();
        assert!(
            phone_p50 > c5_p50,
            "phones should pay WiFi latency: {phone_p50} vs {c5_p50}"
        );
    }

    #[test]
    fn colocated_client_throttles_writes_on_the_single_node() {
        let app = social_network();
        let c5 = c5_sim(app, 36, 72.0);
        // Well above the client-pool capacity of ~2,000 composed posts/s.
        let overloaded = c5
            .run(&Workload::steady(3_200.0, 4.0, Some(SN_COMPOSE_POST), 4))
            .unwrap();
        let tail = overloaded
            .latency_stats_between(2.0, 4.0)
            .tail_ms()
            .unwrap();
        assert!(
            tail > 200.0,
            "writes past the client cap should queue: {tail}"
        );
        // The same offered load of reads is fine.
        let reads = c5
            .run(&Workload::steady(
                3_200.0,
                4.0,
                Some(SN_READ_HOME_TIMELINE),
                4,
            ))
            .unwrap();
        let read_tail = reads.latency_stats_between(2.0, 4.0).tail_ms().unwrap();
        assert!(
            read_tail < 100.0,
            "reads should not hit the client cap: {read_tail}"
        );
    }

    #[test]
    fn utilization_is_recorded_on_busy_nodes() {
        let sim = phone_sim(social_network());
        let metrics = sim
            .run(&Workload::steady(1_000.0, 4.0, Some(SN_COMPOSE_POST), 5))
            .unwrap();
        let means: Vec<f64> = metrics
            .node_utilization()
            .iter()
            .map(|u| u.mean_percent_between(1, 4))
            .collect();
        let busiest = means.iter().copied().fold(0.0_f64, f64::max);
        let quietest = means.iter().copied().fold(100.0_f64, f64::min);
        assert!(
            busiest > 10.0,
            "some phone should be visibly busy, got {busiest:.1}%"
        );
        // Figure 8's observation: utilisation varies widely across phones.
        assert!(
            busiest > quietest * 2.0,
            "imbalance expected: busiest {busiest:.1}% quietest {quietest:.1}%"
        );
    }

    #[test]
    fn idle_phases_produce_no_arrivals() {
        let sim = phone_sim(hotel_reservation());
        let workload = Workload::phased(
            vec![
                Phase::idle(2.0),
                Phase::new(100.0, 2.0, None),
                Phase::idle(1.0),
            ],
            9,
        );
        let metrics = sim.run(&workload).unwrap();
        assert!(metrics.offered() > 100 && metrics.offered() < 320);
        assert!(metrics
            .completions()
            .iter()
            .all(|c| c.arrival_s() >= 2.0 && c.arrival_s() < 4.0));
        assert!((metrics.duration_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ramp_phase_accessors_are_consistent() {
        let up = Phase::ramp(100.0, 500.0, 10.0, None);
        assert!(up.is_ramp());
        assert_eq!(up.qps(), 100.0);
        assert_eq!(up.end_qps(), 500.0);
        assert_eq!(up.peak_qps(), 500.0);
        assert_eq!(up.mean_qps(), 300.0);
        assert_eq!(up.rate_at(0.0), 100.0);
        assert_eq!(up.rate_at(5.0), 300.0);
        assert_eq!(up.rate_at(10.0), 500.0);
        // Clamped outside the phase.
        assert_eq!(up.rate_at(-1.0), 100.0);
        assert_eq!(up.rate_at(20.0), 500.0);
        let down = Phase::ramp(500.0, 100.0, 10.0, Some("x"));
        assert_eq!(down.peak_qps(), 500.0);
        assert_eq!(down.request_type(), Some("x"));
        // Constant phases and flat ramps are not time-varying.
        assert!(!Phase::new(200.0, 1.0, None).is_ramp());
        assert!(!Phase::ramp(200.0, 200.0, 1.0, None).is_ramp());
        assert_eq!(Phase::new(200.0, 1.0, None).end_qps(), 200.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_ramp_target_panics() {
        let _ = Phase::ramp(100.0, -1.0, 1.0, None);
    }

    #[test]
    fn unknown_request_type_is_an_error() {
        let sim = phone_sim(hotel_reservation());
        let err = sim
            .run(&Workload::steady(10.0, 1.0, Some("no-such-request"), 0))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownRequestType(_)));
        assert!(err.to_string().contains("no-such-request"));
    }

    #[test]
    fn incomplete_placement_is_rejected() {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let partial = Placement::manual([("nginx-web-server", 0usize)], &nodes).unwrap();
        let err = Simulation::new(app, nodes, partial, NetworkModel::phone_wifi()).unwrap_err();
        assert_eq!(err, SimError::IncompletePlacement);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let sim = phone_sim(hotel_reservation());
        let a = sim.run(&Workload::steady(400.0, 3.0, None, 77)).unwrap();
        let b = sim.run(&Workload::steady(400.0, 3.0, None, 77)).unwrap();
        assert_eq!(a.offered(), b.offered());
        assert_eq!(
            a.latency_stats().median_ms().unwrap(),
            b.latency_stats().median_ms().unwrap()
        );
    }
}
