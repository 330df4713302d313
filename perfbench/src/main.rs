//! End-to-end and per-layer benchmark of the junkyard study stack.
//!
//! Usage: `junkyard_perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--nproc <n>]`. Normally started by `perfbench/run.py`,
//! which builds this binary first. See `perfbench/README.md` for the
//! workloads, their metrics and what stays unmeasured.
//!
//! The last line of standard output is the result object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod drive;
mod fleet;
mod lifecycle;
mod metrics;
mod microsim;
mod planner;
mod stats;

use std::process::ExitCode;

use junkyard_obs::{EVENT_KINDS, KIND_COUNT};

use crate::drive::{Ctx, Samples, Tally};
use crate::metrics::{Report, END_TO_END, PER_LAYER};

/// What a workload hands back: set-up time, both sides' query tallies,
/// the traced run's per-layer samples and lines for the text report.
pub struct Outcome {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Queries with tracing off.
    pub plain: Tally,
    /// Queries with tracing on (empty unless traced).
    pub traced: Tally,
    /// Per-layer values of the traced queries.
    pub layers: Samples,
    /// Extra lines for the text report.
    pub notes: Vec<String>,
}

/// Runs one workload end to end.
type Workload = fn(&Ctx) -> Result<Outcome, String>;

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: &[(&str, Workload)] = &[
    ("microsim-overload", microsim::run),
    ("fleet-day", fleet::run),
    ("lifecycle-decade", lifecycle::run),
    ("planner-search", planner::run),
];

/// Layer work the benchmark cannot time from outside the program.
const UNMEASURED: &str = "unmeasured: microsim share inside fleet/lifecycle/planner cells; \
                          slice-memo hits; the lifecycle's serial dynamics pass; \
                          lifecycle workers inside planner evaluations";

/// `kind=count` for every trace event kind with a non-zero count.
#[must_use]
pub fn kind_counts(counts: &[u64; KIND_COUNT]) -> String {
    let parts: Vec<String> = EVENT_KINDS
        .iter()
        .filter(|k| counts[k.index()] > 0)
        .map(|k| format!("{}={}", k.name(), counts[k.index()]))
        .collect();
    format!(
        "trace counts of the first traced query: {}",
        parts.join(" ")
    )
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut nproc = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--nproc" => nproc = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive: {seconds}"));
    }
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workers = nproc.unwrap_or(available);
    if workers == 0 {
        return Err("--nproc must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            workers,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn tally_lines(side: &str, tally: &Tally) -> Vec<String> {
    let digests: Vec<String> = tally
        .digests
        .iter()
        .map(|(d, n)| format!("{d:016x}x{n}"))
        .collect();
    let mut lines = vec![format!(
        "{side}: {} queries, {} failed, median {:.6} s, result digests {}",
        tally.times.len(),
        tally.failures.len(),
        tally.median_s(),
        digests.join(" ")
    )];
    let times: Vec<String> = tally.times.iter().map(|t| format!("{t:.4}")).collect();
    lines.push(format!("  query seconds: {}", times.join(" ")));
    lines.extend(
        tally
            .failures
            .iter()
            .take(5)
            .map(|f| format!("  FAILED: {f}")),
    );
    lines
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("junkyard_perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some((_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!("junkyard_perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let ctx = args.ctx;
    let outcome = match run(&ctx) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!(
                "junkyard_perfbench: {} could not run: {message}",
                args.workload
            );
            return ExitCode::FAILURE;
        }
    };
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "machine: nproc={} available_parallelism={available} profile={profile}",
        ctx.workers
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for line in tally_lines("untraced", &outcome.plain) {
        println!("{line}");
    }
    let attempted = outcome.plain.times.len() + outcome.traced.times.len();
    let failed = outcome.plain.failures.len() + outcome.traced.failures.len();

    let report = if ctx.trace {
        for line in tally_lines("traced", &outcome.traced) {
            println!("{line}");
        }
        println!("{UNMEASURED}");
        let mut report = Report::new(PER_LAYER);
        let overhead = if outcome.traced.times.is_empty() {
            0.0
        } else {
            outcome.traced.median_s() / outcome.plain.median_s() - 1.0
        };
        report.set("obs.trace_overhead", overhead);
        report.set("machine.nproc", ctx.workers as f64);
        report.set("machine.available_parallelism", available as f64);
        outcome.layers.into_report(&mut report);
        report.zero_unset();
        report
    } else {
        let mut report = Report::new(END_TO_END);
        report.set("query_s", outcome.plain.median_s());
        report.set("setup_s", outcome.setup_s);
        report.set("peak_rss_mb", stats::peak_rss_mb());
        report
    };
    println!(
        "failed_fraction: {:.6} (of {attempted} queries)",
        failed as f64 / attempted as f64
    );
    for line in report.lines() {
        println!("{line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        report.to_json()
    );
    ExitCode::SUCCESS
}
