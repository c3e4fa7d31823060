//! Order statistics over timing samples.
//!
//! The headline estimator for host time is the lower quartile (p25), not
//! the median: interference on a shared host only ever adds time and comes
//! in bursts, so the lower part of the distribution repeats between runs
//! where the middle does not (the measured A/A sets are in the README).

use crate::json::Json;

/// Quantile `q` (0..=1) of `sorted`, interpolating linearly between the
/// two nearest ranks. Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Lower quartile of `samples`.
pub fn p25(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.25)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below eleven samples. With 120 samples
/// this is p91.7, with 24 it is p58.3: a tail read from fewer than ten
/// samples is one slow run, not a percentile.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let s = sorted(samples);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// The distribution of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Lower quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub p75: f64,
    /// See [`tail`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        Some(Summary {
            n: s.len(),
            min: s[0],
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            tail: tail(samples),
        })
    }

    /// For the result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n as u64)),
            ("min", Json::from(self.min)),
            ("p25", Json::from(self.p25)),
            ("median", Json::from(self.median)),
            ("p75", Json::from(self.p75)),
            (
                "tail_pct",
                self.tail.map_or(Json::Null, |(p, _)| Json::from(p)),
            ),
            ("tail", self.tail.map_or(Json::Null, |(_, v)| Json::from(v))),
        ])
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// The change from `base` to `new` as a share of `base`, signed so that a
/// positive value is a worsening.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = (new - base) / base.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Outcome of comparing one metric between two runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, in either direction.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// A host-time metric from runs whose hosts cannot be compared.
    Unresolved,
}

impl Verdict {
    /// The word printed in the compare table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`. `comparable` is false when the two runs'
/// hosts differ (either flagged noisy, or sentinels apart): only host-time
/// metrics consult it; simulated values and exact counts always resolve.
/// A move inside the bound, in either direction, is `same`: a quantity
/// that noisy cannot claim more.
pub fn verdict(
    base: f64,
    new: f64,
    better: Better,
    bound: f64,
    host_time: bool,
    comparable: bool,
) -> Verdict {
    if host_time && !comparable {
        return Verdict::Unresolved;
    }
    let w = worsening(base, new, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(p25(&v), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(p25(&[1.0, 2.0]), 1.25);
        assert_eq!(p25(&[7.0]), 7.0);
        // Three samples (the set-up repetitions): halfway to the second.
        assert_eq!(p25(&[3.0, 1.0, 2.0]), 1.5);
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.min, s.p75), (5, 1.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let (pct, val) = tail(&v).unwrap();
        assert_eq!(val, 14.0, "ten of 24 samples lie above the 14th");
        assert!((pct - 58.333).abs() < 1e-2);
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        let (pct, val) = tail(&v).unwrap();
        assert_eq!(val, 110.0);
        assert!((pct - 91.667).abs() < 1e-2);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bounds_and_host_comparability() {
        let v = |b, n, dir, bound, host, cmp| verdict(b, n, dir, bound, host, cmp);
        assert_eq!(v(1.0, 1.0, Better::Lower, 0.0, false, true), Verdict::Same);
        assert_eq!(v(1.0, 1.05, Better::Lower, 0.1, true, true), Verdict::Same);
        assert_eq!(v(1.0, 1.11, Better::Lower, 0.1, true, true), Verdict::Worse);
        assert_eq!(
            v(1.0, 0.85, Better::Lower, 0.1, true, true),
            Verdict::Better
        );
        assert_eq!(
            v(100.0, 80.0, Better::Higher, 0.1, true, true),
            Verdict::Worse
        );
        // A zero bound makes any change in the bad direction a regression.
        assert_eq!(
            v(12.0, 13.0, Better::Lower, 0.0, false, true),
            Verdict::Worse
        );
        assert_eq!(
            v(12.0, 11.0, Better::Lower, 0.0, false, true),
            Verdict::Better
        );
        // Host changed speed: host time cannot be judged, simulated can.
        assert_eq!(
            v(1.0, 2.0, Better::Lower, 0.1, true, false),
            Verdict::Unresolved
        );
        assert_eq!(
            v(1.0, 2.0, Better::Lower, 0.1, false, false),
            Verdict::Worse
        );
    }
}
