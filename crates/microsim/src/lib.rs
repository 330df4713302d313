//! Discrete-event microservice cloudlet simulator.
//!
//! This crate is the substitute for the paper's physical Section 6 testbed:
//! ten Ubuntu Touch Pixel 3A phones running DeathStarBench under Docker
//! Swarm, compared against single AWS EC2 C5 instances. It provides:
//!
//! * [`service`] / [`app`] — microservice and application models, including
//!   calibrated SocialNetwork and HotelReservation graphs.
//! * [`node`] — cluster nodes (phones, C5 instances) with per-core speeds.
//! * [`placement`] — Docker-Swarm-style spreading and single-node placement.
//! * [`network`] — shared-WiFi and loopback network models.
//! * [`sim`] — the open-loop discrete-event engine (and the reference
//!   event loop that specifies its semantics).
//! * [`compiled`] — the index-resolved, lazily-generating hot path behind
//!   [`Simulation::run`], bit-identical to the reference engine.
//! * [`metrics`] — latency distributions and per-node utilisation traces.
//! * [`sweep`] — throughput sweeps (Figure 7, threaded across load
//!   points) and the phased utilisation scenario (Figure 8).
//!
//! # Example
//!
//! ```
//! use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
//! use junkyard_microsim::network::NetworkModel;
//! use junkyard_microsim::node::ten_pixel_cloudlet;
//! use junkyard_microsim::placement::Placement;
//! use junkyard_microsim::sim::{Simulation, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = social_network();
//! let nodes = ten_pixel_cloudlet();
//! let placement = Placement::swarm_spread(&app, &nodes, 7)?;
//! let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())?;
//! let metrics = sim.run(&Workload::steady(200.0, 2.0, Some(SN_COMPOSE_POST), 1))?;
//! println!("median: {:?} ms", metrics.latency_stats().median_ms());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod compiled;
pub mod metrics;
pub mod network;
pub mod node;
pub mod placement;
pub mod service;
pub mod sim;
pub mod sweep;

pub use app::{Application, RequestType, ServiceCall, Stage};
pub use compiled::{CompiledSim, CoreHeap, LazyArrivals};
/// The fan-out primitive sweeps run on, re-exported for drivers that fan
/// whole sweeps out without depending on `junkyard_obs` themselves.
pub use junkyard_obs::fanout;
pub use metrics::{LatencyStats, NodeQueueStats, NodeUtilization, RunMetrics};
pub use network::NetworkModel;
pub use node::NodeSpec;
pub use placement::{Placement, PlacementError};
pub use service::{ServiceKind, ServiceSpec};
pub use sim::{
    CoreLayout, Phase, QueueDiscipline, RssTable, ServerModel, SimError, Simulation, Workload,
};
pub use sweep::{CurvePoint, LatencyCurve, SweepConfig};
