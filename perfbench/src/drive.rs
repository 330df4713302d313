//! The measurement loop shared by every workload: repeated set-up with a
//! median, then queries until the run's time is spent, each query checked
//! and tallied.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::Report;
use crate::stats::median;

/// Set-up is sampled at least this many times...
const SETUP_MIN_SAMPLES: usize = 5;
/// ...and until this much time has gone into it.
const SETUP_BUDGET_S: f64 = 1.0;
/// One sample repeats the build until this much time has passed and
/// reports the mean; a build of a few microseconds is otherwise at the
/// mercy of a single scheduler tick.
const SETUP_BATCH_S: f64 = 0.005;

/// The run as the command line gave it.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the query loop runs, seconds.
    pub seconds: f64,
    /// Workers every fan-out is configured with (`nproc`).
    pub workers: usize,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Outcome of one query: its measured seconds and either a digest of its
/// result bits or the check it failed.
pub type Query<T> = (f64, Result<(u64, T), String>);

/// Times and verdicts of one side (traced or untraced) of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Measured seconds of every query, failed ones included.
    pub times: Vec<f64>,
    /// One message per failed query.
    pub failures: Vec<String>,
    /// Distinct result digests, with how many queries produced each.
    pub digests: BTreeMap<u64, usize>,
}

impl Tally {
    fn record<T>(&mut self, (seconds, outcome): Query<T>) -> Option<T> {
        self.times.push(seconds);
        match outcome {
            Ok((digest, value)) => {
                *self.digests.entry(digest).or_insert(0) += 1;
                Some(value)
            }
            Err(message) => {
                self.failures.push(message);
                None
            }
        }
    }

    /// Median query seconds.
    ///
    /// # Panics
    ///
    /// Panics if no query ran; the loop always runs at least one.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        median(&self.times).expect("at least one query ran")
    }
}

/// Builds the workload's inputs repeatedly and returns the last build
/// with the median seconds of one build.
///
/// # Errors
///
/// Returns the first build error.
pub fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let batch = Instant::now();
        let mut builds = 0u32;
        let built = loop {
            let built = build()?;
            builds += 1;
            if batch.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break built;
            }
        };
        samples.push(batch.elapsed().as_secs_f64() / f64::from(builds));
        if samples.len() >= SETUP_MIN_SAMPLES && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            let median = median(&samples).expect("at least one sample");
            return Ok((built, median));
        }
    }
}

/// Runs queries until `ctx.seconds` have passed (at least one). In the
/// traced run every successful untraced query `i` is followed by traced
/// query `i`, which receives the untraced result to compare against; the
/// two sides alternate so drift on the machine hits both alike.
pub fn drive<U, V>(
    ctx: &Ctx,
    mut untraced: impl FnMut(usize) -> Query<U>,
    mut traced: impl FnMut(usize, &U) -> Query<V>,
) -> (Tally, Tally) {
    let start = Instant::now();
    let mut plain = Tally::default();
    let mut with_trace = Tally::default();
    for i in 0.. {
        let result = plain.record(untraced(i));
        if ctx.trace {
            if let Some(reference) = result {
                with_trace.record(traced(i, &reference));
            }
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    (plain, with_trace)
}

/// Times `work`, returning its result and elapsed seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = work();
    (value, start.elapsed().as_secs_f64())
}

/// Per-query values of per-layer metrics; each reports its median.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one query's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of `name`'s values so far (0 when none).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|v| median(v)).unwrap_or(0.0)
    }

    /// Writes every metric's median into `report`.
    pub fn into_report(self, report: &mut Report) {
        for (name, values) in self.0 {
            report.set(name, median(&values).expect("pushed at least once"));
        }
    }
}
