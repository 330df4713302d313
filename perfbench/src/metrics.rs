//! The metric names this benchmark may emit, with their units, and the
//! report that enforces them: every value set must be a listed name, and
//! a report is only printed once every name of its kind has a value.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("query_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, measured in the separate traced run. A layer the
/// workload does not call from the benchmark reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.nproc", "count"),
    ("machine.available_parallelism", "count"),
    ("microsim.events", "count"),
    ("microsim.busy_s", "s"),
    ("microsim.ns_per_event.below_knee", "ns"),
    ("microsim.ns_per_event.above_knee", "ns"),
    ("microsim.admitted", "count"),
    ("microsim.completed", "count"),
    ("microsim.dropped", "count"),
    ("microsim.completion_ratio", "ratio"),
    ("microsim.compile_s", "s"),
    ("sweep.points", "count"),
    ("sweep.workers", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.worker_share_max", "ratio"),
    ("sweep.parallel_efficiency", "ratio"),
    ("fleet.workers", "count"),
    ("fleet.cells", "count"),
    ("fleet.run_s.static", "s"),
    ("fleet.run_s.carbon_aware", "s"),
    ("fleet.ms_per_cell", "ms"),
    ("fleet.route_events", "count"),
    ("fleet.parallel_efficiency", "ratio"),
    ("lifecycle.workers", "count"),
    ("lifecycle.runs", "count"),
    ("lifecycle.site_days", "count"),
    ("lifecycle.cells", "count"),
    ("lifecycle.busy_s", "s"),
    ("lifecycle.ms_per_site_day", "ms"),
    ("lifecycle.cloudlet_s", "s"),
    ("lifecycle.datacenter_s", "s"),
    ("lifecycle.parallel_efficiency", "ratio"),
    ("lifecycle.route_events", "count"),
    ("lifecycle.ledger_events", "count"),
    ("planner.workers", "count"),
    ("planner.screen_build_s", "s"),
    ("planner.search_s", "s"),
    ("planner.candidates_enumerated", "count"),
    ("planner.screened_out", "count"),
    ("planner.evaluations", "count"),
    ("planner.evaluations.rung0", "count"),
    ("planner.evaluations.rung1", "count"),
    ("planner.cache_hits", "count"),
    ("planner.cache_hit_rate", "ratio"),
    ("planner.eval_busy_s", "s"),
    ("planner.eval_covered_s", "s"),
    ("planner.self_s", "s"),
    ("planner.eval_parallel_efficiency", "ratio"),
    ("planner.frontier_yield", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// The values of one run, restricted to one metric table.
#[derive(Debug)]
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report over `table`.
    #[must_use]
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be listed in the table.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list or a non-finite value:
    /// both are defects of the benchmark, not of the program.
    pub fn set(&mut self, name: &str, value: f64) {
        let (listed, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(listed, value);
    }

    /// Sets every listed name that has no value yet to 0: the layers this
    /// workload never calls.
    pub fn zero_unset(&mut self) {
        for (name, _) in self.table {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// Human-readable lines, one per metric, in table order.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.table
            .iter()
            .filter_map(|(name, unit)| {
                self.values
                    .get(name)
                    .map(|v| format!("  {name:<36} {v:>16.6} {unit}"))
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    ///
    /// # Panics
    ///
    /// Panics if a listed name has no value.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one array of
    /// `BENCHMARK.json`, read without a JSON library: each metric is a
    /// flat object holding `"name"` then `"unit"`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the array closes")];
        let field = |object: &str, name: &str| {
            let at = object.find(&format!("\"{name}\"")).expect("field present");
            let rest = &object[at + name.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root")
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn report_requires_listed_names() {
        let mut report = Report::new(END_TO_END);
        report.set("query_s", 1.5);
        let unlisted = std::panic::catch_unwind(move || {
            let mut r = Report::new(END_TO_END);
            r.set("latency_ms", 1.0);
        });
        assert!(unlisted.is_err());
        report.zero_unset();
        let json = report.to_json();
        assert!(json.starts_with("{\"query_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    }

    #[test]
    fn report_refuses_to_print_a_missing_metric() {
        let result = std::panic::catch_unwind(|| Report::new(END_TO_END).to_json());
        assert!(result.is_err());
    }
}
