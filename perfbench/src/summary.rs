//! Order statistics, input digests and the one-line JSON result.

use varbench_stats::special::beta_inc;

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Harrell–Davis estimate of the `q` quantile: a Beta-weighted mean
/// of all order statistics instead of one or two of them. Latencies
/// here are mixtures of request kinds and of 50 ms poll periods, and a
/// plain sample quantile that falls between two such clusters jumps
/// from one to the other from run to run; this estimate moves smoothly.
/// `NaN` for an empty sample.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x;
        below = upto;
    }
    if v.is_empty() {
        f64::NAN
    } else {
        sum
    }
}

/// FNV-1a over a sequence of byte strings, each terminated by a 0xff
/// separator so `["ab", "c"]` and `["a", "bc"]` differ. Used to digest
/// the generated inputs of a run.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The benchmark's verdict for one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output matched and every hygiene check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (transport error, non-200, wrong bytes).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A metric that could not be measured (non-finite) is reported as
    /// `null` and makes the run incorrect.
    pub fn to_json(&self) -> String {
        let correct = self.correct && self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn harrell_davis_is_smooth_between_clusters() {
        let one = [5.0];
        assert!((hd_quantile(&one, 0.5) - 5.0).abs() < 1e-12);
        let sym: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&sym, 0.5) - 5.0).abs() < 1e-9);
        // Two clusters split 50/50: the plain median is decided by the
        // two innermost points, the estimate by many points of each side.
        let mut two: Vec<f64> = (0..50).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        two.extend((0..50).map(|i| 200.0 + f64::from(i) * 0.1));
        let est = hd_quantile(&two, 0.5);
        assert!(est > 140.0 && est < 160.0, "{est}");
        assert!(hd_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_separates_parts() {
        let a = digest([b"ab".as_slice(), b"c".as_slice()]);
        let b = digest([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a, digest([b"ab".as_slice(), b"c".as_slice()]));
    }

    #[test]
    fn result_line_shape() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
            ..out
        };
        assert!(bad.to_json().starts_with("{\"correct\":false"));
    }
}
