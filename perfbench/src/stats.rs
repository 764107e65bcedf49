//! Order statistics, the run report and its one-line JSON rendering.

use std::fmt::Write as _;

use crate::catalog::{self, Metric};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
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

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The values, space-separated, three decimals each.
pub fn list(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One line with a sample's size and quantiles.
pub fn describe(what: &str, values: &[f64], unit: &str) -> String {
    let q = |p: f64| quantile(values, p);
    format!(
        "{what}: n={} p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} p99 {:.4} max {:.4} {unit}",
        values.len(),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(0.99),
        q(1.0)
    )
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's outcome: the correctness verdict, operation counts, the
/// metric values and human-readable notes (sample counts, gate results).
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    pub notes: Vec<String>,
    /// Correctness-gate violations; any entry makes the run fail.
    pub violations: Vec<String>,
}

impl Report {
    /// Records `value` under the catalog metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = catalog::find(name).unwrap_or_else(|| panic!("metric {name} not in catalog"));
        match self.metrics.iter_mut().find(|(m, _)| m.name == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((metric, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness-gate check.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("gate ok: {what}"));
        } else {
            self.violations.push(what);
        }
    }

    /// Keeps only the metrics of `table`, in its order; every entry of the
    /// table must have been set.
    pub fn select(&mut self, table: &'static [Metric]) -> Result<(), String> {
        let mut picked = Vec::with_capacity(table.len());
        for metric in table {
            match self.get(metric.name) {
                Some(v) if v.is_finite() => picked.push((metric, v)),
                Some(v) => return Err(format!("metric {} is not finite ({v})", metric.name)),
                None => return Err(format!("metric {} was not measured", metric.name)),
            }
        }
        self.metrics = picked;
        Ok(())
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (m, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
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
    fn json_line_has_exact_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set("step_p50_ms", 1.25);
        r.set("setup_s", 2.0);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"step_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
