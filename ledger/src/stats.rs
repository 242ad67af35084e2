//! Sample statistics and the named metric a run reports.

use skyup_obs::{Counter, QueryMetrics};

/// One reported number: a name from `BENCHMARK.json`, its value as
/// measured, and its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds metrics in order; rejects nothing, so a caller lists each
/// metric once where it is measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        // A ratio over an empty base is reported as 0 rather than NaN:
        // JSON has no NaN, and the layer simply did no work.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name, value, unit });
    }
}

/// The work counts every in-process span collects, per query: dominance
/// tests, R-tree node accesses, skyline points retained, and the share
/// of kernel blocks the zone maps skipped.
pub fn put_work(m: &mut Metrics, work: &QueryMetrics, queries: f64) {
    let per_query = |c: Counter| ratio(work.get(c) as f64, queries);
    m.put(
        "core.dominance_tests_per_query",
        per_query(Counter::DominanceTests),
        "count",
    );
    m.put(
        "rtree.node_accesses_per_query",
        per_query(Counter::RtreeNodeAccesses),
        "count",
    );
    m.put(
        "skyline.points_retained_per_query",
        per_query(Counter::SkylinePointsRetained),
        "count",
    );
    let scans = work.get(Counter::KernelBlockScans) as f64;
    let skipped = work.get(Counter::KernelBlocksSkipped) as f64;
    m.put(
        "geom.kernel_skip_ratio",
        ratio(skipped, scans + skipped),
        "ratio",
    );
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`; 0 when
/// there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn non_finite_values_are_reported_as_zero() {
        let mut m = Metrics::default();
        m.put("x", f64::NAN, "count");
        assert_eq!(m.0[0].value, 0.0);
    }
}
