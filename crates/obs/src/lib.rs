//! # `junkyard_obs` — the observability layer
//!
//! Two strictly separated facets:
//!
//! * **Deterministic sim-time tracing** ([`Recorder`], [`TraceRecorder`],
//!   [`TraceShard`], [`ConservedLedger`]): events keyed by *simulated*
//!   time, recorded through a zero-cost-when-disabled trait threaded into
//!   the hot paths as hooks. Workers inside the [`fanout`] primitive
//!   only ever touch their own [`TraceShard`] (one per result slot); the
//!   serial driver absorbs shards back in slot order, so an enabled
//!   trace is worker-count invariant — the same contract the results
//!   themselves already obey. With the [`NoopRecorder`] every hook
//!   folds to a constant-false branch and runs are bit-identical to
//!   builds that never heard of tracing.
//! * **Wall-clock profiling** ([`Profiler`]): the *only* sanctioned
//!   wall-clock site outside `crates/bench` (enforced by
//!   `junkyard_lint`'s `wall-clock-in-sim` rule). The profiler is
//!   deliberately `!Send` so it cannot migrate into a fan-out worker;
//!   it measures per-stage wall time on the serial driver side and
//!   emits collapsed-stack (`PROFILE.folded`) output.
//!
//! The split is load-bearing: simulated time is replayable and belongs
//! in results and traces; wall time is not and must never flow into
//! anything a test pins. The lint gate (`wall-clock-in-sim`,
//! `fanout-purity`'s `recorder-in-fanout` facet) enforces the boundary
//! mechanically.
//!
//! Both facets export JSONL with a pinned schema — see
//! [`TraceRecorder::to_jsonl`] and the `trace_schema` regression test.

pub mod event;
pub mod fanout;
pub mod ledger;
pub mod profiler;
pub mod recorder;
pub mod trace;

pub use event::{EventKind, TraceEvent, EVENT_KINDS, KIND_COUNT, TRACE_SCHEMA};
pub use ledger::{ConservedLedger, LedgerError};
pub use profiler::Profiler;
pub use recorder::{NoopRecorder, Recorder};
pub use trace::{EventSource, TraceRecorder, TraceShard};
