//! Metric names, sample statistics, the reconciliation gate and the
//! result line.

use std::fmt::Write as _;

/// A reported metric: name and unit, as listed in `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("sim_steps_per_s", "1/s"),
    m("sim_msgs_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("ok_frac", "fraction"),
];

/// Printed with `--trace 1`; README.md says which end-to-end metric and
/// workload each should move.
pub const PER_LAYER: [Metric; 21] = [
    m("algos.compute_s", "s"),
    m("sim.scatter_s", "s"),
    m("sim.gather_s", "s"),
    m("sim.recycle_s", "s"),
    m("sim.sharded_frac", "fraction"),
    m("sim.supersteps", "count"),
    m("sim.records", "count"),
    m("sim.machines", "count"),
    m("machines.price_s", "s"),
    m("machines.memo_hit_rate", "fraction"),
    m("machines.router_rounds", "count"),
    m("experiments.outside_s", "s"),
    m("core.render_s", "s"),
    m("audit.extract_s", "s"),
    m("audit.check_s", "s"),
    m("audit.plans", "count"),
    m("rayon.fan_outs", "count"),
    m("rayon.parks", "count"),
    m("rayon.busy_frac", "fraction"),
    m("trace.overhead", "fraction"),
    m("trace.reconcile_err", "fraction"),
];

/// Largest share of the traced wall time the layers may fail to account
/// for before a traced run is rejected.
pub const RECONCILE_TOL: f64 = 0.01;

/// Median of `xs` (mean of the middle two for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Largest of `xs`; 0 if empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One traced pass split into layers, in thread-seconds.
///
/// `capacity_s` is the traced wall time times the threads the units ran
/// on: 1 when units run on the main thread, the pool width when they fan
/// out. Everything not attributed to a measured layer is the outside
/// remainder; layers that claim more than the capacity cannot reconcile.
pub struct Breakdown {
    pub attributed_s: f64,
    pub capacity_s: f64,
}

impl Breakdown {
    /// Time outside every measured layer.
    pub fn outside_s(&self) -> f64 {
        (self.capacity_s - self.attributed_s).max(0.0)
    }

    /// |Σ layers − capacity| / capacity.
    pub fn reconcile_err(&self) -> f64 {
        ratio(
            (self.attributed_s + self.outside_s() - self.capacity_s).abs(),
            self.capacity_s,
        )
    }

    /// The gate: the layers add up to the wall time within
    /// [`RECONCILE_TOL`].
    pub fn reconciles(&self) -> bool {
        self.capacity_s > 0.0 && self.reconcile_err() <= RECONCILE_TOL
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// one value per metric of `set`, in order. `values` holds them by name.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in set.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map_or(0.0, |&(_, v)| v);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    s.push_str("}}");
    s
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(crate::work::WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(valid_name(n), "{n} matches [A-Za-z0-9_.-]+");
            assert!(seen.insert(n), "{n} is used once");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\"").count();
        let ours = END_TO_END.len() + PER_LAYER.len() + crate::work::WORKLOADS.len();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json names every metric and workload"
        );
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| (m.name, Some(m.unit)))
            .chain(crate::work::WORKLOADS.iter().map(|w| (w.name, None)));
        for (name, unit) in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} listed"
            );
            if let Some(u) = unit {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{u}\"");
                assert!(json.contains(&entry), "{name} has unit {u}");
            }
        }
    }

    #[test]
    fn breakdown_that_adds_up_reconciles() {
        let b = Breakdown {
            attributed_s: 0.7,
            capacity_s: 1.0,
        };
        assert!((b.outside_s() - 0.3).abs() < 1e-12);
        assert!(b.reconciles());
    }

    #[test]
    fn over_attributed_breakdown_is_rejected() {
        let b = Breakdown {
            attributed_s: 1.2,
            capacity_s: 1.0,
        };
        assert_eq!(b.outside_s(), 0.0);
        assert!((b.reconcile_err() - 0.2).abs() < 1e-12);
        assert!(!b.reconciles());
        let empty = Breakdown {
            attributed_s: 0.0,
            capacity_s: 0.0,
        };
        assert!(!empty.reconciles(), "no wall time to reconcile against");
    }

    #[test]
    fn median_and_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &END_TO_END[..1], &[("wall_s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
