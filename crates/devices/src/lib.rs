//! Device catalog substrate for the Junkyard Computing reproduction.
//!
//! This crate carries everything the carbon models and simulators need to
//! know about hardware:
//!
//! * [`benchmark`] — GeekBench-style scores (Table 1) and server-equivalence
//!   sizing.
//! * [`power`] — measured power-vs-load curves (Table 2) and duty-cycle
//!   profiles, including the Dell LCA "light-medium" regime.
//! * [`battery`] — battery pack specifications and wear projections
//!   (Section 4.3).
//! * [`components`] — per-component embodied carbon (Table 3) and reuse
//!   roles.
//! * [`device`] — the [`DeviceSpec`] aggregate and its
//!   builder.
//! * [`catalog`] — ready-made specifications for every device in the paper
//!   (PowerEdge R740, ProLiant DL380 G6, ThinkPad X1 Carbon G3, Pixel 3A,
//!   Nexus 4/5, EC2 C5 instances).
//! * [`release_db`] — the yearly Android-capability dataset behind Figure 1.
//!
//! # Example
//!
//! ```
//! use junkyard_devices::catalog;
//! use junkyard_devices::benchmark::Benchmark;
//! use junkyard_devices::power::LoadProfile;
//!
//! let pixel = catalog::pixel_3a();
//! let profile = LoadProfile::light_medium();
//! println!(
//!     "{} draws {:.2} on the light-medium duty cycle",
//!     pixel.name(),
//!     pixel.average_power(&profile)
//! );
//! let n = pixel
//!     .benchmarks()
//!     .devices_to_match(catalog::poweredge_r740().benchmarks(), Benchmark::Sgemm)
//!     .unwrap();
//! assert_eq!(n, 54);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod benchmark;
pub mod catalog;
pub mod components;
pub mod device;
pub mod power;
pub mod release_db;

pub use battery::BatterySpec;
pub use benchmark::{Benchmark, BenchmarkScore, BenchmarkSuite};
pub use components::{Component, ComponentBreakdown};
pub use device::{DeviceClass, DeviceSpec, DeviceSpecBuilder, RadioSpec};
pub use power::{LoadProfile, LoadSegment, PowerCurve};
