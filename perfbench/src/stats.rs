//! Order statistics, the peak-RSS probe and the one-line JSON result.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile of `v` that still has ten samples above it,
/// as `(percentile, value)`. Only defined from 20 samples on.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 20 {
        return None;
    }
    let s = sorted(v);
    let idx = s.len() - 11;
    Some((100.0 * (idx + 1) as f64 / s.len() as f64, s[idx]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set of this process in MiB (`VmHWM`) since start or
/// the last [`reset_peak_rss`], if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restarts the peak-RSS high-water mark from the current resident set
/// (Linux `clear_refs`), so the next [`peak_rss_mb`] reads the peak of
/// what ran since. Where unsupported, the mark keeps covering the whole
/// process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`. Values keep every
/// digit `f64` prints; a non-finite value is reported as 0.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 99.0), 5.0);
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // Ten samples (31..=40) lie above the 75th percentile's value.
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = result_json(
            true,
            32,
            0,
            &[Metric {
                name: "suite_s".into(),
                unit: "s",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 32, \"failed\": 0, \"metrics\": \
             {\"suite_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
