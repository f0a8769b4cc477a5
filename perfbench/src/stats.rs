//! Summary statistics, process memory and the result line.

use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median_f64(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `walls`, in seconds.
pub fn median(walls: &[Duration]) -> f64 {
    median_f64(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The highest job-wall percentile with at least ten samples beyond it,
/// in seconds, and a label naming it. Runs with ten jobs or fewer have no
/// such percentile and report their slowest job.
pub fn tail(walls: &[Duration]) -> (f64, String) {
    let mut v: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, "empty".into()),
        1..=10 => (v[n - 1], "the maximum (10 jobs or fewer)".into()),
        _ => (
            v[n - 11],
            format!("p{:.1}", 100.0 * (n - 10) as f64 / n as f64),
        ),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The last line of standard output.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// A finite value in full precision; JSON has no NaN or infinity, so
/// those print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
