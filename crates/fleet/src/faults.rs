//! Correlated fault injection and the failure-aware serving path.
//!
//! The lifecycle layer's stochastic per-device failures are *independent*
//! — one slot at a time, quietly refilled after a lag — and its router is
//! omniscient, re-planning every window from perfectly known alive
//! capacity. Real junkyard fleets fail in correlated ways: a regional
//! grid outage darkens a whole site for hours, a bad firmware batch
//! strikes a correlated fraction of a cohort at once, and thermal
//! mass-shutdowns temporarily zero a site's capacity. This module models
//! those events and what a serving stack does about them:
//!
//! * [`FaultConfig`] → [`FaultPlan`]: a deterministic schedule of
//!   correlated fault events, seeded through `decorrelate_seed` so the
//!   plan is bit-identical at any worker count. The plan reduces to a
//!   per-(window, site) *availability* multiplier in `[0, 1]`.
//! * Health view with detection lag: the router plans window `w` from
//!   the availability that was true at window `w - lag`. With a stale
//!   view, requests land on dead capacity and fail — detection lag is
//!   the knob that converts outages into failed requests.
//! * [`RetryPolicy`]: failed first attempts are re-sent (bounded rounds,
//!   per-attempt timeout and exponential backoff) to sites in proportion
//!   to the *observed* — stale — healthy capacity, so retries can land on
//!   dead capacity again. Every attempt, successful or not, is charged
//!   its network carbon; requests that land are charged marginal compute.
//!   An optional hedge forwards what is left to a standby fallback site.
//! * [`DegradationLadder`]: when retries exhaust, the operator (who sees
//!   the truth) reroutes to any real spare capacity, then sheds a
//!   low-priority fraction, then brown-outs: serves the remainder at
//!   degraded quality by stretching site capacity.
//!
//! [`resolve_window`] runs that pipeline for one window as plain
//! arithmetic on mean rates — no simulation — and the lifecycle layer
//! folds the outcome into its carbon and availability accounting.

use serde::{Deserialize, Serialize};

use junkyard_carbon::convert::{count_f64, index_u64, unit_draw as convert_unit_draw};
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::{EventKind, Recorder, TraceEvent};

use crate::schedule::LoadWindow;

/// Converts a 64-bit draw into a unit float in `[0, 1)`, the same way the
/// sweep layer seeds its workloads.
fn unit_draw(draw: u64) -> f64 {
    convert_unit_draw(draw)
}

/// The kind of a correlated fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// A regional grid outage: the whole site is dark for the duration.
    GridOutage,
    /// A firmware-batch failure: a correlated fraction of the cohort
    /// drops out at once.
    FirmwareBatch,
    /// A thermal mass-shutdown: every device throttles to zero capacity
    /// until the site cools.
    ThermalShutdown,
}

impl FaultKind {
    /// Display label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::GridOutage => "grid-outage",
            FaultKind::FirmwareBatch => "firmware-batch",
            FaultKind::ThermalShutdown => "thermal-shutdown",
        }
    }
}

/// One correlated fault event of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    site: usize,
    kind: FaultKind,
    start_window: usize,
    duration_windows: usize,
    severity: f64,
}

impl FaultEvent {
    /// Index of the struck site.
    #[must_use]
    pub fn site(&self) -> usize {
        self.site
    }

    /// What kind of fault this is.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// First routing window the event covers.
    #[must_use]
    pub fn start_window(&self) -> usize {
        self.start_window
    }

    /// Number of consecutive windows the event lasts.
    #[must_use]
    pub fn duration_windows(&self) -> usize {
        self.duration_windows
    }

    /// Fraction of the site's capacity the event removes, in `(0, 1]`.
    #[must_use]
    pub fn severity(&self) -> f64 {
        self.severity
    }
}

/// Rates and shapes of the correlated fault processes. All three kinds
/// default to disabled; enable each with its builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    grid_outage_mean_days: f64,
    grid_outage_duration_windows: usize,
    firmware_mean_days: f64,
    firmware_fraction: f64,
    firmware_duration_windows: usize,
    thermal_mean_days: f64,
    thermal_duration_windows: usize,
}

impl FaultConfig {
    /// A configuration with every fault process disabled. The generated
    /// plan is all-ones and the serving path treats it as fault-free.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            grid_outage_mean_days: 0.0,
            grid_outage_duration_windows: 1,
            firmware_mean_days: 0.0,
            firmware_fraction: 0.0,
            firmware_duration_windows: 1,
            thermal_mean_days: 0.0,
            thermal_duration_windows: 1,
        }
    }

    /// Enables regional grid outages: per site, one strikes on average
    /// every `mean_days` days and darkens the whole site for
    /// `duration_windows` routing windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive or the duration is
    /// zero.
    #[must_use]
    pub fn grid_outages(mut self, mean_days: f64, duration_windows: usize) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between outages must be positive"
        );
        assert!(duration_windows > 0, "an outage lasts at least one window");
        self.grid_outage_mean_days = mean_days;
        self.grid_outage_duration_windows = duration_windows;
        self
    }

    /// Enables firmware-batch failures: per site, one strikes on average
    /// every `mean_days` days and takes down `fraction` of the cohort's
    /// capacity for `duration_windows` windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive, `fraction` is
    /// outside `(0, 1]` or the duration is zero.
    #[must_use]
    pub fn firmware_batches(
        mut self,
        mean_days: f64,
        fraction: f64,
        duration_windows: usize,
    ) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between firmware faults must be positive"
        );
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "the struck cohort fraction must be in (0, 1]"
        );
        assert!(
            duration_windows > 0,
            "a firmware fault lasts at least one window"
        );
        self.firmware_mean_days = mean_days;
        self.firmware_fraction = fraction;
        self.firmware_duration_windows = duration_windows;
        self
    }

    /// Enables thermal mass-shutdowns: per site, one strikes on average
    /// every `mean_days` days and zeroes the site's capacity for
    /// `duration_windows` windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive or the duration is
    /// zero.
    #[must_use]
    pub fn thermal_shutdowns(mut self, mean_days: f64, duration_windows: usize) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between thermal shutdowns must be positive"
        );
        assert!(duration_windows > 0, "a shutdown lasts at least one window");
        self.thermal_mean_days = mean_days;
        self.thermal_duration_windows = duration_windows;
        self
    }

    /// `true` when every fault process is disabled.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.grid_outage_mean_days <= 0.0
            && self.firmware_mean_days <= 0.0
            && self.thermal_mean_days <= 0.0
    }

    /// The three processes as `(kind, mean_days, duration, severity)`
    /// rows, disabled ones included with a zero rate.
    fn processes(&self) -> [(FaultKind, f64, usize, f64); 3] {
        [
            (
                FaultKind::GridOutage,
                self.grid_outage_mean_days,
                self.grid_outage_duration_windows,
                1.0,
            ),
            (
                FaultKind::FirmwareBatch,
                self.firmware_mean_days,
                self.firmware_duration_windows,
                self.firmware_fraction,
            ),
            (
                FaultKind::ThermalShutdown,
                self.thermal_mean_days,
                self.thermal_duration_windows,
                1.0,
            ),
        ]
    }
}

/// A deterministic schedule of correlated fault events over a horizon,
/// reduced to a per-(window, site) availability multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    windows: usize,
    sites: usize,
    /// Window-major: `availability[window * sites + site]`, in `[0, 1]`.
    availability: Vec<f64>,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The fault-free plan: availability 1.0 everywhere, no events.
    #[must_use]
    pub fn none(windows: usize, sites: usize) -> Self {
        Self {
            windows,
            sites,
            availability: vec![1.0; windows * sites],
            events: Vec::new(),
        }
    }

    /// Generates the plan for `windows` routing windows over `sites`
    /// sites at `windows_per_day` windows per day. Every draw comes from
    /// a [`decorrelate_seed`] chain indexed by (kind, site, window), so
    /// the plan is a pure function of its arguments — bit-identical at
    /// any worker count and stable when other seeded draws change.
    #[must_use]
    pub fn generate(
        config: &FaultConfig,
        windows: usize,
        sites: usize,
        windows_per_day: usize,
        seed: u64,
    ) -> Self {
        let mut plan = Self::none(windows, sites);
        if config.is_disabled() {
            return plan;
        }
        for (kind_index, (kind, mean_days, duration, severity)) in
            config.processes().into_iter().enumerate()
        {
            if mean_days <= 0.0 {
                continue;
            }
            // Per-window hazard of a process with the given mean
            // inter-arrival time in days.
            let hazard = 1.0 - (-1.0 / (mean_days * count_f64(windows_per_day))).exp();
            let kind_seed = decorrelate_seed(seed, index_u64(kind_index) + 1);
            for site in 0..sites {
                let site_seed = decorrelate_seed(kind_seed, index_u64(site) + 1);
                let mut window = 0;
                while window < windows {
                    let draw = unit_draw(decorrelate_seed(site_seed, index_u64(window) + 1));
                    if draw < hazard {
                        plan.push_event(FaultEvent {
                            site,
                            kind,
                            start_window: window,
                            duration_windows: duration,
                            severity,
                        });
                        // One event of a kind at a time per site: skip to
                        // the end of this event before drawing again.
                        window += duration;
                    } else {
                        window += 1;
                    }
                }
            }
        }
        plan
    }

    fn push_event(&mut self, event: FaultEvent) {
        let end = (event.start_window + event.duration_windows).min(self.windows);
        for window in event.start_window..end {
            let cell = &mut self.availability[window * self.sites + event.site];
            *cell = (*cell * (1.0 - event.severity)).max(0.0);
        }
        self.events.push(event);
    }

    /// Number of routing windows the plan covers.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Number of sites the plan covers.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The availability multiplier of one (window, site) pair, in
    /// `[0, 1]`: the fraction of the site's capacity the faults leave
    /// standing.
    #[must_use]
    pub fn availability(&self, window: usize, site: usize) -> f64 {
        self.availability[window * self.sites + site]
    }

    /// Every scheduled fault event, in generation order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the plan removes no capacity anywhere.
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.events.is_empty()
    }
}

/// What a client does after a request fails: bounded retries with
/// timeout and exponential backoff, each attempt charged its network
/// carbon, with an optional hedge to the standby fallback site once
/// retries exhaust.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    max_retries: usize,
    timeout_s: f64,
    backoff_base_s: f64,
    network_grams_per_attempt: f64,
    hedge_to_fallback: bool,
}

impl RetryPolicy {
    /// A policy with `max_retries` retry rounds, a 250 ms per-attempt
    /// timeout, a 100 ms exponential backoff base and 2 mgCO2e of network
    /// carbon per re-sent attempt; no hedging.
    ///
    /// # Panics
    ///
    /// Panics if `max_retries` is zero — use no policy instead.
    #[must_use]
    pub fn new(max_retries: usize) -> Self {
        assert!(max_retries > 0, "a retry policy needs at least one retry");
        Self {
            max_retries,
            timeout_s: 0.25,
            backoff_base_s: 0.1,
            network_grams_per_attempt: 0.002,
            hedge_to_fallback: false,
        }
    }

    /// Overrides the per-attempt timeout and the exponential backoff
    /// base (seconds).
    ///
    /// # Panics
    ///
    /// Panics if either is negative.
    #[must_use]
    pub fn timing(mut self, timeout_s: f64, backoff_base_s: f64) -> Self {
        assert!(timeout_s >= 0.0, "the timeout cannot be negative");
        assert!(backoff_base_s >= 0.0, "the backoff base cannot be negative");
        self.timeout_s = timeout_s;
        self.backoff_base_s = backoff_base_s;
        self
    }

    /// Overrides the network carbon charged per re-sent attempt, grams
    /// of CO2e (covers the extra radio/WAN transfer of the retry).
    ///
    /// # Panics
    ///
    /// Panics if negative.
    #[must_use]
    pub fn network_grams_per_attempt(mut self, grams: f64) -> Self {
        assert!(grams >= 0.0, "network carbon cannot be negative");
        self.network_grams_per_attempt = grams;
        self
    }

    /// After the retry rounds exhaust, hedge what is left to the
    /// resilience policy's fallback site.
    #[must_use]
    pub fn hedge_to_fallback(mut self) -> Self {
        self.hedge_to_fallback = true;
        self
    }

    /// Number of retry rounds.
    #[must_use]
    pub fn max_retries(&self) -> usize {
        self.max_retries
    }

    /// Whether exhausted retries hedge to the fallback site.
    #[must_use]
    pub fn hedges(&self) -> bool {
        self.hedge_to_fallback
    }

    /// Network carbon charged per re-sent attempt, gCO2e.
    #[must_use]
    pub fn attempt_grams(&self) -> f64 {
        self.network_grams_per_attempt
    }

    /// Worst-case client-side latency penalty of a request that burns
    /// every retry round: the sum of per-round timeout plus exponential
    /// backoff, seconds.
    #[must_use]
    pub fn worst_case_penalty_s(&self) -> f64 {
        (0..self.max_retries)
            .map(|round| self.timeout_s + self.backoff_base_s * count_f64(1 << round))
            .sum()
    }
}

/// What the operator does once client retries exhaust: reroute to real
/// spare capacity, shed a low-priority fraction, then brown-out — serve
/// the remainder at degraded quality by stretching capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationLadder {
    reroute: bool,
    low_priority_fraction: f64,
    brownout_stretch: f64,
}

impl DegradationLadder {
    /// The first rung only: the operator (with a truthful health view)
    /// reroutes unserved traffic to any real spare capacity.
    #[must_use]
    pub fn new() -> Self {
        Self {
            reroute: true,
            low_priority_fraction: 0.0,
            brownout_stretch: 1.0,
        }
    }

    /// Sheds up to `fraction` of the still-unserved traffic as
    /// low-priority before browning out.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn shed_low_priority(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "the low-priority fraction must be in [0, 1]"
        );
        self.low_priority_fraction = fraction;
        self
    }

    /// Serves what remains at degraded quality, stretching each site's
    /// true capacity by `stretch` (≥ 1.0; 1.0 disables the rung).
    ///
    /// # Panics
    ///
    /// Panics if `stretch` is below 1.0.
    #[must_use]
    pub fn brownout(mut self, stretch: f64) -> Self {
        assert!(stretch >= 1.0, "a brown-out stretch cannot shrink capacity");
        self.brownout_stretch = stretch;
        self
    }

    /// Fraction of still-unserved traffic shed as low-priority.
    #[must_use]
    pub fn low_priority_fraction(&self) -> f64 {
        self.low_priority_fraction
    }

    /// The brown-out capacity stretch factor (1.0 = disabled).
    #[must_use]
    pub fn brownout_stretch(&self) -> f64 {
        self.brownout_stretch
    }
}

impl Default for DegradationLadder {
    fn default() -> Self {
        Self::new()
    }
}

/// The failure-aware serving policy of a lifecycle run: how stale the
/// router's health view is, what clients do about failures, what the
/// operator does when retries exhaust, and which site (if any) is held
/// back as a standby fallback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    detection_lag_windows: usize,
    retry: Option<RetryPolicy>,
    degradation: Option<DegradationLadder>,
    fallback_site: Option<usize>,
}

impl ResiliencePolicy {
    /// The do-nothing policy: an omniscient router (no detection lag),
    /// no retries, no degradation, no fallback.
    #[must_use]
    pub fn new() -> Self {
        Self {
            detection_lag_windows: 0,
            retry: None,
            degradation: None,
            fallback_site: None,
        }
    }

    /// Sets the health-view detection lag in routing windows: window `w`
    /// is planned from the availability that was true at `w - lag`.
    /// Zero means the router sees the truth.
    #[must_use]
    pub fn detection_lag_windows(mut self, windows: usize) -> Self {
        self.detection_lag_windows = windows;
        self
    }

    /// Installs a client retry policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Installs an operator degradation ladder.
    #[must_use]
    pub fn degradation(mut self, ladder: DegradationLadder) -> Self {
        self.degradation = Some(ladder);
        self
    }

    /// Holds site `site` back as a standby fallback: the router assigns
    /// it no primary traffic, and hedged requests (see
    /// [`RetryPolicy::hedge_to_fallback`]) land on it.
    #[must_use]
    pub fn fallback_site(mut self, site: usize) -> Self {
        self.fallback_site = Some(site);
        self
    }

    /// The health-view detection lag, routing windows.
    #[must_use]
    pub fn lag_windows(&self) -> usize {
        self.detection_lag_windows
    }

    /// The client retry policy, if any.
    #[must_use]
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The operator degradation ladder, if any.
    #[must_use]
    pub fn degradation_ladder(&self) -> Option<&DegradationLadder> {
        self.degradation.as_ref()
    }

    /// The standby fallback site index, if any.
    #[must_use]
    pub fn fallback(&self) -> Option<usize> {
        self.fallback_site
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The resolved serving outcome of one routing window under faults: who
/// served what, what was retried where, and what finally failed. All
/// rates are window-mean requests/second.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowResolution {
    /// True availability per site, from the fault plan.
    pub avail: Vec<f64>,
    /// `first_served / assigned` per site — exactly 1.0 when the site
    /// could take everything the router sent, so scaling the measured
    /// slice's load by it leaves the load's bits unchanged.
    pub delivered_ratio: Vec<f64>,
    /// Traffic landed on each site *beyond* its first-attempt share:
    /// successful retries, hedges, reroutes and brown-out serving.
    pub extra_served_mean: Vec<f64>,
    /// Retry/hedge attempts aimed at each site (landed or not); each is
    /// charged the retry policy's network carbon.
    pub retry_attempt_mean: Vec<f64>,
    /// First-attempt failures: traffic sent to capacity that was not
    /// actually there.
    pub failed_first_mean: f64,
    /// Recovered via client retries.
    pub retried_ok_mean: f64,
    /// Recovered via the hedge to the fallback site.
    pub hedged_mean: f64,
    /// Recovered via the operator reroute rung.
    pub rerouted_mean: f64,
    /// Served at degraded quality via the brown-out rung.
    pub brownout_mean: f64,
    /// Shed as low-priority by the degradation ladder.
    pub lp_shed_mean: f64,
    /// Finally failed: nothing on the ladder could place it.
    pub failed_mean: f64,
}

impl WindowResolution {
    /// The outcome of a window nothing went wrong in: every site fully
    /// available and delivering its whole first-attempt share, nothing
    /// retried, hedged, degraded or failed. It is exactly what
    /// [`resolve_window`] returns for such a window, and reading it in
    /// place of no resolution changes no result bit: its `1.0` factors
    /// and `0.0` terms are exact in IEEE-754 (`x * 1.0`, `x + 0.0` and
    /// `x - 0.0` all return `x`).
    #[must_use]
    pub fn healthy(sites: usize) -> Self {
        Self {
            avail: vec![1.0; sites],
            delivered_ratio: vec![1.0; sites],
            extra_served_mean: vec![0.0; sites],
            retry_attempt_mean: vec![0.0; sites],
            ..Self::default()
        }
    }

    /// Records this outcome for `window` into `recorder`: one `fault`
    /// event per site (`site_names` in site order) below full
    /// availability, then one event per recovery path that carried
    /// traffic — retry, hedge, reroute, and degradation (brown-out plus
    /// low-priority shed). A healthy window records nothing.
    pub(crate) fn record_transitions<'a, R: Recorder>(
        &self,
        recorder: &mut R,
        window: &LoadWindow,
        site_names: impl Iterator<Item = &'a str>,
    ) {
        let t = window.start().seconds();
        let w = window.index();
        for (name, &avail) in site_names.zip(&self.avail) {
            if avail < 1.0 {
                let event = TraceEvent::new(EventKind::Fault, t, name, avail);
                recorder.event(event.with_detail(&format!("w{w}")));
            }
        }
        let degraded = self.brownout_mean + self.lp_shed_mean;
        let recoveries = [
            (EventKind::Retry, "retried-ok", self.retried_ok_mean),
            (EventKind::Hedge, "hedged", self.hedged_mean),
            (EventKind::Route, "rerouted", self.rerouted_mean),
            (EventKind::Degrade, "degraded", degraded),
        ];
        for (kind, key, value) in recoveries {
            if value > 0.0 {
                let detail = match kind {
                    EventKind::Route => format!("w{w} reroute"),
                    EventKind::Degrade => format!(
                        "w{w} brownout={} lp-shed={}",
                        self.brownout_mean, self.lp_shed_mean
                    ),
                    _ => format!("w{w}"),
                };
                recorder.event(TraceEvent::new(kind, t, key, value).with_detail(&detail));
            }
        }
    }
}

/// Resolves one window's serving outcome: first attempts against true
/// capacity, then the retry rounds (targeted by the *observed*, possibly
/// stale, capacity), the hedge, and the degradation ladder. Pure
/// arithmetic on mean rates; deterministic.
#[must_use]
pub fn resolve_window(
    assigned_mean: &[f64],
    true_cap: &[f64],
    observed_cap: &[f64],
    avail: &[f64],
    policy: Option<&ResiliencePolicy>,
) -> WindowResolution {
    let sites = assigned_mean.len();
    let mut delivered_ratio = vec![1.0; sites];
    let mut extra = vec![0.0; sites];
    let mut attempts = vec![0.0; sites];
    let mut spare = vec![0.0; sites];
    let mut pool = 0.0;
    for s in 0..sites {
        let first = assigned_mean[s].min(true_cap[s]);
        if assigned_mean[s] > 0.0 && first < assigned_mean[s] {
            delivered_ratio[s] = first / assigned_mean[s];
            pool += assigned_mean[s] - first;
        }
        spare[s] = (true_cap[s] - first).max(0.0);
    }
    let failed_first = pool;

    let mut retried_ok = 0.0;
    let mut hedged = 0.0;
    let mut rerouted = 0.0;
    let mut brownout = 0.0;
    let mut lp_shed = 0.0;
    let fallback = policy.and_then(ResiliencePolicy::fallback);

    if let Some(retry) = policy.and_then(ResiliencePolicy::retry_policy) {
        for _round in 0..retry.max_retries() {
            if pool <= 0.0 {
                break;
            }
            // Clients re-send in proportion to the capacity they *believe*
            // is healthy; the standby fallback is invisible to them.
            let total_observed: f64 = (0..sites)
                .filter(|s| Some(*s) != fallback)
                .map(|s| observed_cap[s])
                .sum();
            if total_observed <= 0.0 {
                break;
            }
            let mut round_ok = 0.0;
            for s in 0..sites {
                if Some(s) == fallback || observed_cap[s] <= 0.0 {
                    continue;
                }
                let aimed = pool * observed_cap[s] / total_observed;
                attempts[s] += aimed;
                let landed = aimed.min(spare[s]);
                spare[s] -= landed;
                extra[s] += landed;
                round_ok += landed;
            }
            retried_ok += round_ok;
            pool -= round_ok;
        }
        if retry.hedges() {
            if let Some(f) = fallback {
                if pool > 0.0 {
                    attempts[f] += pool;
                    let landed = pool.min(spare[f]);
                    spare[f] -= landed;
                    extra[f] += landed;
                    hedged = landed;
                    pool -= landed;
                }
            }
        }
    }

    if let Some(ladder) = policy.and_then(ResiliencePolicy::degradation_ladder) {
        // Rung 1: the operator sees true spare capacity and reroutes.
        if pool > 0.0 {
            for s in 0..sites {
                if pool <= 0.0 {
                    break;
                }
                let landed = pool.min(spare[s]);
                spare[s] -= landed;
                extra[s] += landed;
                rerouted += landed;
                pool -= landed;
            }
        }
        // Rung 2: shed the low-priority share of what is still unserved.
        if pool > 0.0 && ladder.low_priority_fraction() > 0.0 {
            lp_shed = pool * ladder.low_priority_fraction();
            pool -= lp_shed;
        }
        // Rung 3: brown-out — stretch true capacity and serve degraded.
        if pool > 0.0 && ladder.brownout_stretch() > 1.0 {
            for s in 0..sites {
                if pool <= 0.0 {
                    break;
                }
                let headroom = true_cap[s] * (ladder.brownout_stretch() - 1.0);
                let landed = pool.min(headroom);
                extra[s] += landed;
                brownout += landed;
                pool -= landed;
            }
        }
    }

    WindowResolution {
        avail: avail.to_vec(),
        delivered_ratio,
        extra_served_mean: extra,
        retry_attempt_mean: attempts,
        failed_first_mean: failed_first,
        retried_ok_mean: retried_ok,
        hedged_mean: hedged,
        rerouted_mean: rerouted,
        brownout_mean: brownout,
        lp_shed_mean: lp_shed,
        failed_mean: pool.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_generates_the_fault_free_plan() {
        let plan = FaultPlan::generate(&FaultConfig::disabled(), 48, 3, 6, 42);
        assert!(plan.is_fault_free());
        assert_eq!(plan, FaultPlan::none(48, 3));
        for w in 0..48 {
            for s in 0..3 {
                assert_eq!(plan.availability(w, s), 1.0);
            }
        }
    }

    #[test]
    fn generated_plans_are_deterministic_and_seed_sensitive() {
        let config = FaultConfig::disabled()
            .grid_outages(3.0, 2)
            .firmware_batches(2.0, 0.4, 3)
            .thermal_shutdowns(4.0, 1);
        let a = FaultPlan::generate(&config, 240, 2, 6, 7);
        let b = FaultPlan::generate(&config, 240, 2, 6, 7);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&config, 240, 2, 6, 8);
        assert_ne!(a, c, "a different seed should reschedule the faults");
        assert!(!a.is_fault_free(), "these rates strike within 40 days");
        // Availability stays in [0, 1] and every event maps onto it.
        for w in 0..240 {
            for s in 0..2 {
                let avail = a.availability(w, s);
                assert!((0.0..=1.0).contains(&avail));
            }
        }
        for event in a.events() {
            let window = event.start_window();
            assert!(a.availability(window, event.site()) < 1.0);
        }
    }

    #[test]
    fn outages_zero_a_site_and_firmware_takes_a_fraction() {
        let outage = FaultConfig::disabled().grid_outages(1.0e-9, 4);
        let plan = FaultPlan::generate(&outage, 8, 1, 1, 1);
        // A near-certain hazard strikes immediately and repeatedly.
        assert!(plan.availability(0, 0) == 0.0);
        let firmware = FaultConfig::disabled().firmware_batches(1.0e-9, 0.3, 1);
        let plan = FaultPlan::generate(&firmware, 4, 1, 1, 1);
        assert!((plan.availability(0, 0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn resolution_conserves_the_assigned_traffic() {
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(1)
            .retry(RetryPolicy::new(2).hedge_to_fallback())
            .degradation(
                DegradationLadder::new()
                    .shed_low_priority(0.5)
                    .brownout(1.2),
            )
            .fallback_site(2);
        let assigned = [400.0, 300.0, 0.0];
        let true_cap = [100.0, 300.0, 250.0];
        let observed = [400.0, 300.0, 0.0];
        let avail = [0.25, 1.0, 1.0];
        let res = resolve_window(&assigned, &true_cap, &observed, &avail, Some(&policy));
        let served: f64 = (0..3)
            .map(|s| assigned[s] * res.delivered_ratio[s] + res.extra_served_mean[s])
            .sum();
        let total = served + res.lp_shed_mean + res.failed_mean;
        let offered: f64 = assigned.iter().sum();
        assert!(
            (total - offered).abs() < 1e-9 * offered,
            "conservation: {total} vs {offered}"
        );
        assert!(res.failed_first_mean > 0.0);
        assert!(res.hedged_mean > 0.0, "the fallback has spare capacity");
    }

    #[test]
    fn stale_retries_fail_against_dead_capacity() {
        // One site, fully dark, but the observed view still says healthy:
        // every retry round lands on dead capacity and fails.
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(2)
            .retry(RetryPolicy::new(3));
        let res = resolve_window(&[200.0], &[0.0], &[400.0], &[0.0], Some(&policy));
        assert_eq!(res.retried_ok_mean, 0.0);
        assert_eq!(res.failed_mean, 200.0);
        // Three rounds of 200 qps aimed at the dead site, all charged.
        assert!((res.retry_attempt_mean[0] - 600.0).abs() < 1e-9);
    }

    #[test]
    fn no_policy_means_first_attempt_failures_are_final() {
        let res = resolve_window(&[300.0], &[100.0], &[300.0], &[1.0 / 3.0], None);
        assert!((res.failed_mean - 200.0).abs() < 1e-9);
        assert_eq!(res.retried_ok_mean, 0.0);
        assert_eq!(res.extra_served_mean[0], 0.0);
    }

    #[test]
    fn fault_free_resolution_is_the_identity() {
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(3)
            .retry(RetryPolicy::new(2));
        let res = resolve_window(
            &[250.0, 100.0],
            &[400.0, 200.0],
            &[400.0, 200.0],
            &[1.0, 1.0],
            Some(&policy),
        );
        assert_eq!(res.delivered_ratio, vec![1.0, 1.0]);
        assert_eq!(res.failed_mean, 0.0);
        assert_eq!(res.retry_attempt_mean, vec![0.0, 0.0]);
    }

    #[test]
    fn healthy_resolution_is_bit_identical_to_resolving_a_healthy_window() {
        // The lifecycle reads `WindowResolution::healthy` for every window
        // of a fault-free run instead of resolving it: that is only sound
        // if resolving a fully available, within-capacity window yields
        // the same bits, whatever the policy.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let assigned = [120.0, 0.0, 300.0];
        let capacity = [150.0, 80.0, 300.0];
        let avail = [1.0; 3];
        let full = ResiliencePolicy::new()
            .detection_lag_windows(2)
            .retry(RetryPolicy::new(3).hedge_to_fallback())
            .degradation(
                DegradationLadder::new()
                    .shed_low_priority(0.5)
                    .brownout(1.3),
            )
            .fallback_site(1);
        let healthy = WindowResolution::healthy(3);
        for policy in [None, Some(&full)] {
            let r = resolve_window(&assigned, &capacity, &capacity, &avail, policy);
            assert_eq!(bits(&r.avail), bits(&healthy.avail));
            assert_eq!(bits(&r.delivered_ratio), bits(&healthy.delivered_ratio));
            assert_eq!(bits(&r.extra_served_mean), bits(&healthy.extra_served_mean));
            assert_eq!(
                bits(&r.retry_attempt_mean),
                bits(&healthy.retry_attempt_mean)
            );
            let scalars = |r: &WindowResolution| {
                bits(&[
                    r.failed_first_mean,
                    r.retried_ok_mean,
                    r.hedged_mean,
                    r.rerouted_mean,
                    r.brownout_mean,
                    r.lp_shed_mean,
                    r.failed_mean,
                ])
            };
            assert_eq!(scalars(&r), scalars(&healthy), "policy {policy:?}");
        }
    }

    #[test]
    fn retry_penalty_sums_timeout_and_exponential_backoff() {
        let retry = RetryPolicy::new(3).timing(0.25, 0.1);
        // 3 rounds: (0.25 + 0.1) + (0.25 + 0.2) + (0.25 + 0.4).
        assert!((retry.worst_case_penalty_s() - 1.45).abs() < 1e-12);
    }
}
