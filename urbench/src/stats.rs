//! Order statistics and the regression rule the benchmark applies to its
//! own numbers.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the one the driver computes. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest percentile of `[50, 90, 99, 99.9]` that still has at least
/// ten samples beyond it, with its value. `None` below twenty samples,
/// where not even the median has ten beyond it.
pub fn highest_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples_beyond(v.len(), *p) >= 10)
        .map(|p| (p, percentile_sorted(&v, p)))
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it: a tail read off fewer is one run's accident.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    (samples_beyond(values.len(), p) >= 10).then(|| percentile_sorted(&sorted(values), p))
}

fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).max(1)
}

fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    v[rank(v.len(), p).min(v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing a metric between a base set of runs and a
/// candidate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better than the base's by more than the bound.
    Improved,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// The candidate's median is worse by more than the bound.
    Regressed,
    /// The base's own spread exceeds the bound and the two sets overlap,
    /// so the difference cannot be told from noise.
    Unresolved,
}

/// Relative change of the candidate's median against the base's, signed so
/// that positive is worse.
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    let rel = (cand - base) / base.abs();
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The regression rule: compare medians against `bound`; where the base's
/// spread is wider than the bound the result is [`Verdict::Unresolved`],
/// unless every candidate run reads better (or worse) than every base run.
pub fn compare(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(mb), Some(mc)) = (median(base), median(cand)) else {
        return Verdict::Unresolved;
    };
    let worse = worsening(mb, mc, better);
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    if spread(base).is_some_and(|s| s > bound) && !disjoint(base, cand) {
        return Verdict::Unresolved;
    }
    verdict
}

fn disjoint(a: &[f64], b: &[f64]) -> bool {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max(a) < min(b) || max(b) < min(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None, "only 9 beyond");
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(highest_percentile(&v), Some((99.0, 990.0)));
        assert_eq!(highest_percentile(&v[..100]), Some((90.0, 90.0)));
        assert_eq!(highest_percentile(&v[..20]), Some((50.0, 10.0)));
        assert_eq!(highest_percentile(&v[..19]), None);
    }

    #[test]
    fn bound_comparison_has_four_outcomes() {
        let base = [10.0, 10.1, 9.9, 10.0];
        let lower = Better::Lower;
        assert_eq!(
            compare(&base, &[10.2, 10.3, 10.1], lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&base, &[12.0, 12.1, 11.9], lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            compare(&base, &[8.0, 8.1, 7.9], lower, 0.1),
            Verdict::Improved
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            compare(&base, &[12.0, 12.1, 11.9], Better::Higher, 0.1),
            Verdict::Improved
        );
        // A base whose own spread exceeds the bound cannot resolve an
        // overlapping candidate...
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            compare(&noisy, &[11.0, 13.0, 9.0], lower, 0.1),
            Verdict::Unresolved
        );
        // ...but a candidate wholly on one side still counts.
        assert_eq!(
            compare(&noisy, &[20.0, 21.0], lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(compare(&[], &[1.0], lower, 0.1), Verdict::Unresolved);
    }
}
