//! Order statistics and the result line.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail: the highest percentile with at least ten samples beyond
/// it, as `(value, percentile)`.  Below 20 samples that percentile would
/// sit under the median, so the median is reported as percentile 50.
pub fn tail(samples: &[f64]) -> (f64, u32) {
    let n = samples.len();
    if n < 20 {
        return (median(samples), 50);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 10;
    (s[k - 1], (100 * k / n) as u32)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
