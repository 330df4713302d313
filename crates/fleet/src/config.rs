//! The run configuration shared by [`FleetSim`](crate::sim::FleetSim)
//! and [`LifecycleSim`](crate::lifecycle::LifecycleSim).
//!
//! Both engines measure every routing window with the same slice kernel
//! and fan their cells out the same way, so they take the same five
//! knobs: windows per day, the measured slice and its warm-up, the root
//! seed and the worker cap. [`RunConfig`] holds them once, with one copy
//! of each builder and each check. Its type parameter is the horizon:
//! a fleet run covers its schedule's own days (`()`), a lifecycle run a
//! multi-year [`Horizon`].

use serde::{Deserialize, Serialize};

use crate::lifecycle::DAYS_PER_YEAR;

/// Tunables of a fleet or lifecycle run: accounting granularity, the
/// length of the representative microsim slice per window, seeding and
/// threading, plus the horizon `H`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig<H> {
    horizon: H,
    pub(crate) windows_per_day: usize,
    pub(crate) sim_slice_s: f64,
    pub(crate) warmup_s: f64,
    pub(crate) seed: u64,
    pub(crate) parallelism: Option<usize>,
}

/// A [`FleetSim`](crate::sim::FleetSim) run: the schedule's own days.
pub type FleetConfig = RunConfig<()>;

/// A [`LifecycleSim`](crate::lifecycle::LifecycleSim) run over a
/// multi-year [`Horizon`].
pub type LifecycleConfig = RunConfig<Horizon>;

/// The simulated span of a lifecycle run, in whole days.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Horizon(usize);

impl<H> RunConfig<H> {
    /// The shared defaults (1-second warm-up, seed 42, machine
    /// parallelism) around each engine's own granularity.
    fn with_horizon(horizon: H, windows_per_day: usize, sim_slice_s: f64) -> Self {
        Self {
            horizon,
            windows_per_day,
            sim_slice_s,
            warmup_s: 1.0,
            seed: 42,
            parallelism: None,
        }
    }

    /// Sets the number of routing/accounting windows per day.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn windows_per_day(mut self, windows_per_day: usize) -> Self {
        assert!(windows_per_day > 0, "need at least one window per day");
        self.windows_per_day = windows_per_day;
        self
    }

    /// Sets the measured length of each window's representative microsim
    /// slice. Latency and utilisation measured over this slice are
    /// extrapolated to the whole window.
    ///
    /// The engine accumulates utilisation in one-second buckets, so the
    /// slice must be a whole number of seconds — a fractional trailing
    /// bucket would be divided by a full second and bias utilisation
    /// (and therefore energy and operational carbon) low.
    ///
    /// # Panics
    ///
    /// Panics if not a strictly positive whole number of seconds.
    #[must_use]
    pub fn sim_slice_s(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "slice duration must be positive");
        assert!(
            seconds.fract() == 0.0,
            "slice duration must be a whole number of seconds (1-second utilisation buckets)"
        );
        self.sim_slice_s = seconds;
        self
    }

    /// Sets the warm-up excluded from each slice's measurements.
    ///
    /// Like the slice, the warm-up must be a whole number of seconds so
    /// the measurement window aligns with the engine's one-second
    /// utilisation buckets and no warm-up work leaks into it.
    ///
    /// # Panics
    ///
    /// Panics if negative or not a whole number of seconds.
    #[must_use]
    pub fn warmup_s(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "warm-up cannot be negative");
        assert!(
            seconds.fract() == 0.0,
            "warm-up must be a whole number of seconds (1-second utilisation buckets)"
        );
        self.warmup_s = seconds;
        self
    }

    /// Sets the root seed; failure draws and per-window workload seeds
    /// are mixed from it with
    /// [`decorrelate_seed`](junkyard_microsim::sweep::decorrelate_seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The root seed set by [`seed`](Self::seed).
    #[must_use]
    pub fn root_seed(&self) -> u64 {
        self.seed
    }

    /// Caps the number of worker threads; `1` forces a serial run.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a run needs at least one worker");
        self.parallelism = Some(workers);
        self
    }
}

impl RunConfig<()> {
    /// Defaults: 24 one-hour windows per day, a 2-second measured slice
    /// after a 1-second warm-up, seed 42, machine parallelism.
    #[must_use]
    pub fn new() -> Self {
        Self::with_horizon((), 24, 2.0)
    }
}

impl Default for RunConfig<()> {
    fn default() -> Self {
        Self::new()
    }
}

impl RunConfig<Horizon> {
    /// Defaults for `years` simulated years: six 4-hour routing windows
    /// per day, a 1-second measured slice after a 1-second warm-up, seed
    /// 42, machine parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `years` is zero.
    #[must_use]
    pub fn new(years: usize) -> Self {
        assert!(years > 0, "the lifecycle needs at least one year");
        Self::with_horizon(Horizon(years * DAYS_PER_YEAR), 6, 1.0)
    }

    /// Overrides the horizon with an exact number of days instead of whole
    /// years — the planner's coarse-fidelity knob: a candidate deployment
    /// can be screened on a few simulated days before the survivors earn a
    /// multi-year run. Accounting cells still cover at most one year each;
    /// the last cell is simply shorter.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    #[must_use]
    pub fn horizon_days(mut self, days: usize) -> Self {
        assert!(days > 0, "the lifecycle needs at least one day");
        self.horizon = Horizon(days);
        self
    }

    /// Simulated days of the horizon.
    #[must_use]
    pub fn total_days(&self) -> usize {
        self.horizon.0
    }
}
