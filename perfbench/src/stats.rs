//! Exact sample statistics, the decision digest and the JSON the
//! benchmark prints. Every latency the benchmark reports is an order
//! statistic of per-operation `Instant` samples held here — never a
//! quantile read back from a bucketed histogram.

use echoimage_core::{AuthDecision, EchoImageError};
use std::collections::BTreeMap;
use std::time::Duration;

/// Fewest samples that must lie beyond a tail percentile before the
/// benchmark reports it.
pub const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile of `samples` by linear interpolation between the
/// two nearest order statistics (the "type 7" rule: position
/// `q·(n−1)` in the sorted sample). `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile, but only when at least [`TAIL_SUPPORT`] samples
/// lie strictly beyond its position; a tail percentile read off fewer
/// samples does not repeat from run to run.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    if beyond < TAIL_SUPPORT {
        return None;
    }
    quantile(samples, q)
}

/// The highest of p90, p99 and p99.9 the sample supports, as
/// `(label, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find_map(|(label, q)| tail_quantile(samples, q).map(|v| (label, v)))
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A one-line summary of a latency sample: median, highest supported
/// tail and the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let p50 = median(samples).unwrap_or(f64::NAN);
    match highest_tail(samples) {
        Some((label, v)) => {
            format!(
                "{name}: p50 {p50:.4} {unit}, {label} {v:.4} {unit}, n={}",
                samples.len()
            )
        }
        None => format!(
            "{name}: p50 {p50:.4} {unit}, n={} (too few samples for a tail)",
            samples.len()
        ),
    }
}

/// What one operation decided, as the digest and the ratio metrics
/// see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted or identified as the given user.
    Accepted(u64),
    /// A biometric reject (gate, no majority, replay screen).
    Rejected,
    /// Enrolment acknowledged.
    Enrolled,
    /// The program returned an error.
    Failed,
    /// The daemon shed the request.
    Shed,
    /// No response within the deadline.
    TimedOut,
}

impl Verdict {
    /// A typed decision, as opposed to an error, shed or timeout.
    pub fn is_answer(self) -> bool {
        matches!(
            self,
            Verdict::Accepted(_) | Verdict::Rejected | Verdict::Enrolled
        )
    }

    fn code(self) -> (u8, u64) {
        match self {
            Verdict::Accepted(u) => (1, u),
            Verdict::Rejected => (2, 0),
            Verdict::Enrolled => (3, 0),
            Verdict::Failed => (4, 0),
            Verdict::Shed => (5, 0),
            Verdict::TimedOut => (6, 0),
        }
    }
}

/// The verdict of an in-process decision. A capture the pipeline
/// cannot range or screen (no direct path, no echo, too few healthy
/// microphones) is a typed reject — the program audits it as a
/// capture-screen rejection, and the device would beep again — while
/// any other error is a failure.
pub fn verdict(d: Result<AuthDecision, EchoImageError>) -> Verdict {
    match d {
        Ok(AuthDecision::Accepted { user_id }) => Verdict::Accepted(user_id as u64),
        Ok(AuthDecision::Rejected) => Verdict::Rejected,
        Err(
            EchoImageError::DirectPathNotFound
            | EchoImageError::EchoNotFound
            | EchoImageError::DegradedCapture { .. },
        ) => Verdict::Rejected,
        Err(_) => Verdict::Failed,
    }
}

/// FNV-1a over `(op id, verdict, user id)` triples, in op-id order.
pub fn digest(decisions: &[(u64, Verdict)]) -> u64 {
    let mut sorted = decisions.to_vec();
    sorted.sort_by_key(|&(id, _)| id);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, v) in sorted {
        let (code, user) = v.code();
        eat(&id.to_le_bytes());
        eat(&[code]);
        eat(&user.to_le_bytes());
    }
    h
}

/// SplitMix64: the benchmark's only source of seeded variation.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Measured metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The `"metrics"` JSON object over `table`'s `(name, unit)` rows,
    /// in table order. A metric that was not measured takes `missing`,
    /// or is left out when `missing` is `None`.
    pub fn to_json(&self, table: &[(&str, &str)], missing: Option<f64>) -> String {
        let body: Vec<String> = table
            .iter()
            .filter_map(|&(n, u)| {
                let v = self.0.get(n).copied().or(missing)?;
                Some(format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    num(v)
                ))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits (`null` is never valid here, so a
/// non-finite value becomes 0 and is caught by the caller's checks).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 1.0 / 3.0), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&s, 1.5), None);
    }

    #[test]
    fn median_of_odd_sample_is_the_middle_value() {
        let s: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(median(&s), Some(51.0));
        assert_eq!(quantile(&s, 0.9), Some(91.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        // 99 samples: only 9 lie beyond p90.
        assert_eq!(tail_quantile(&s, 0.90), None);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let close = |v: Option<f64>, want: f64| v.is_some_and(|v| (v - want).abs() < 1e-9);
        assert!(close(tail_quantile(&s, 0.90), 89.1));
        assert_eq!(tail_quantile(&s, 0.99), None);
        assert_eq!(highest_tail(&s).map(|t| t.0), Some("p90"));
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_tail(&s).map(|t| t.0), Some("p99"));
        assert!(close(tail_quantile(&s, 0.99), 989.01));
    }

    #[test]
    fn digest_ignores_completion_order_but_not_decisions() {
        let a = [(0, Verdict::Accepted(3)), (1, Verdict::Rejected)];
        let b = [(1, Verdict::Rejected), (0, Verdict::Accepted(3))];
        assert_eq!(digest(&a), digest(&b));
        let c = [(0, Verdict::Accepted(2)), (1, Verdict::Rejected)];
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(digest(&a), digest(&[(0, Verdict::Accepted(3))]));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = permutation(50, 7);
        assert_eq!(p, permutation(50, 7));
        assert_ne!(p, permutation(50, 8));
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_render_every_digit() {
        let mut m = Metrics::default();
        m.put("auth_p50_ms", 15.123456789);
        let table = [("auth_p50_ms", "ms"), ("hits", "count")];
        assert_eq!(
            m.to_json(&table, None),
            "{\"auth_p50_ms\": {\"value\": 15.123456789, \"unit\": \"ms\"}}"
        );
        assert!(m
            .to_json(&table, Some(0.0))
            .ends_with("\"hits\": {\"value\": 0.0, \"unit\": \"count\"}}"));
    }
}
