//! Statistics and fitting routines used by the CAMP models and evaluation.
//!
//! Everything here is small, closed-form and dependency-free: Pearson
//! correlation (the headline metric of Tables 1 and 6), ordinary and
//! through-origin least squares, the linearised hyperbolic fit of §4.1.2,
//! and an error-distribution summary that rejects NaN/∞ samples with a
//! [`ModelError`] naming the offending series and index.

use crate::error::ModelError;

/// Returns the first non-finite value in `series` as a typed error naming
/// the series, its index and the value — the diagnostic that used to be a
/// bare `partial_cmp().expect("errors are finite")` panic.
fn check_finite(name: &'static str, series: &[f64]) -> Result<(), ModelError> {
    for (index, &value) in series.iter().enumerate() {
        if !value.is_finite() {
            return Err(ModelError::NonFiniteSample { series: name, index, value });
        }
    }
    Ok(())
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns `None` when fewer than two points are given or either sample
/// has zero variance.
///
/// # Example
///
/// ```
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((camp_core::stats::pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "samples must pair up");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Ordinary least-squares line `y = slope * x + intercept`.
///
/// Returns `None` with fewer than two points or zero x-variance.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(x.len(), y.len(), "samples must pair up");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    Some((slope, my - slope * mx))
}

/// Through-origin least squares `y = k * x` — the form used to calibrate
/// the per-component scaling constants `k` (§4.4.1).
///
/// Returns `None` if every `x` is zero.
pub fn proportional_fit(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "samples must pair up");
    let sxx: f64 = x.iter().map(|a| a * a).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    Some(sxy / sxx)
}

/// The hyperbolic latency-tolerance transfer function of §4.1.2:
/// `f(x) = 1 / (p + q / x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperbola {
    /// Asymptotic reciprocal value (`f → 1/p` as `x → ∞`).
    pub p: f64,
    /// Curvature parameter.
    pub q: f64,
}

impl Hyperbola {
    /// Evaluates `f(x) = 1 / (p + q/x)`.
    ///
    /// Returns 0 for non-positive `x` or a non-positive denominator (the
    /// fit is only meaningful on the positive branch).
    pub fn eval(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let denominator = self.p + self.q / x;
        if denominator <= 0.0 {
            0.0
        } else {
            1.0 / denominator
        }
    }

    /// Fits `p, q` from samples by linearising: `1/y = p + q * (1/x)` and
    /// solving ordinary least squares. Points with non-positive `x` or `y`
    /// are ignored.
    ///
    /// Returns `None` with fewer than two usable points.
    pub fn fit(x: &[f64], y: &[f64]) -> Option<Hyperbola> {
        assert_eq!(x.len(), y.len(), "samples must pair up");
        let (mut ix, mut iy) = (Vec::new(), Vec::new());
        for (&a, &b) in x.iter().zip(y) {
            if a > 0.0 && b > 0.0 {
                ix.push(1.0 / a);
                iy.push(1.0 / b);
            }
        }
        let (q, p) = linear_fit(&ix, &iy)?;
        Some(Hyperbola { p, q })
    }

    /// Fits `p, q` by direct least squares on the original space
    /// (coordinate-descent grid refinement). Unlike [`fit`](Self::fit),
    /// this handles `y = 0` samples (workloads whose latency increase is
    /// fully hidden) and does not over-weight small `y`. Points with
    /// non-positive `x` or negative `y` are ignored.
    ///
    /// Returns `None` with fewer than two usable points.
    pub fn fit_direct(x: &[f64], y: &[f64]) -> Option<Hyperbola> {
        assert_eq!(x.len(), y.len(), "samples must pair up");
        let points: Vec<(f64, f64)> = x
            .iter()
            .zip(y)
            .filter(|&(&a, &b)| a > 0.0 && b >= 0.0)
            .map(|(&a, &b)| (a, b))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let sse = |h: &Hyperbola| -> f64 {
            points
                .iter()
                .map(|&(a, b)| {
                    let e = h.eval(a) - b;
                    e * e
                })
                .sum()
        };
        // Seed from a coarse grid (the multiplicative descent below cannot
        // cross orders of magnitude from a degenerate start), refined by
        // the linearised fit when it is competitive.
        let mut best = Hyperbola { p: 1.0, q: 50.0 };
        let mut best_err = f64::INFINITY;
        for p in [0.1, 0.3, 1.0, 3.0, 10.0] {
            for q in [0.01, 1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
                let candidate = Hyperbola { p, q };
                let err = sse(&candidate);
                if err < best_err {
                    best = candidate;
                    best_err = err;
                }
            }
        }
        if let Some(seed) = Self::fit(x, y) {
            let candidate = Hyperbola {
                p: seed.p.clamp(0.01, 100.0),
                q: seed.q.clamp(1e-6, 1e6),
            };
            let err = sse(&candidate);
            if err < best_err {
                best = candidate;
                best_err = err;
            }
        }
        // Multiplicative coordinate descent with shrinking step.
        let mut step = 2.0;
        for _ in 0..60 {
            let mut improved = false;
            for (dp, dq) in [
                (step, 1.0),
                (1.0 / step, 1.0),
                (1.0, step),
                (1.0, 1.0 / step),
                (step, step),
                (1.0 / step, 1.0 / step),
                (step, 1.0 / step),
                (1.0 / step, step),
            ] {
                let candidate = Hyperbola {
                    p: (best.p * dp).clamp(0.01, 100.0),
                    q: (best.q * dq).clamp(1e-6, 1e6),
                };
                let err = sse(&candidate);
                if err < best_err {
                    best = candidate;
                    best_err = err;
                    improved = true;
                }
            }
            if !improved {
                step = step.sqrt();
                if step < 1.0005 {
                    break;
                }
            }
        }
        Some(best)
    }
}

/// Summary of an absolute-error distribution (the evaluation format of
/// Table 6 and Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSummary {
    /// Number of samples.
    pub count: usize,
    /// Mean absolute error.
    pub mean_abs: f64,
    /// Median absolute error.
    pub median_abs: f64,
    /// 95th-percentile absolute error.
    pub p95_abs: f64,
    /// Share of samples with |error| ≤ 0.05.
    pub within_5pct: f64,
    /// Share of samples with |error| ≤ 0.10.
    pub within_10pct: f64,
}

/// Summarises absolute errors between predictions and measurements (both
/// in fractional-slowdown units, so 0.05 = 5 percentage points), rejecting
/// empty, mismatched or non-finite inputs with a [`ModelError`] that names
/// the offending series (`"predicted"` / `"actual"`) and sample index.
pub fn error_summary(predicted: &[f64], actual: &[f64]) -> Result<ErrorSummary, ModelError> {
    if predicted.len() != actual.len() {
        return Err(ModelError::MismatchedSeries { left: predicted.len(), right: actual.len() });
    }
    if predicted.is_empty() {
        return Err(ModelError::EmptySeries { series: "predicted" });
    }
    check_finite("predicted", predicted)?;
    check_finite("actual", actual)?;
    let mut errs: Vec<f64> = predicted.iter().zip(actual).map(|(p, a)| (p - a).abs()).collect();
    errs.sort_by(f64::total_cmp);
    let count = errs.len();
    let within = |t: f64| errs.iter().filter(|&&e| e <= t).count() as f64 / count as f64;
    Ok(ErrorSummary {
        count,
        mean_abs: errs.iter().sum::<f64>() / count as f64,
        median_abs: quantile_sorted(&errs, 0.5),
        p95_abs: quantile_sorted(&errs, 0.95),
        within_5pct: within(0.05),
        within_10pct: within(0.10),
    })
}

/// Quantile of an ascending-sorted sample with linear interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_is_scale_and_shift_invariant() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 3.0, 7.0, 1.0, 9.0];
        let r1 = pearson(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| 100.0 * v - 7.0).collect();
        let r2 = pearson(&xs, &y).unwrap();
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v - 1.0).collect();
        let (slope, intercept) = linear_fit(&x, &y).unwrap();
        assert!((slope - 2.5).abs() < 1e-12);
        assert!((intercept + 1.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_fit_recovers_k() {
        let x = [1.0, 2.0, 4.0];
        let y = [3.0, 6.0, 12.0];
        assert!((proportional_fit(&x, &y).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(proportional_fit(&[0.0, 0.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn hyperbola_fit_round_trips() {
        let truth = Hyperbola { p: 0.6, q: 45.0 };
        let xs: Vec<f64> = (1..40).map(|i| i as f64 * 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = Hyperbola::fit(&xs, &ys).unwrap();
        assert!((fit.p - truth.p).abs() < 1e-9, "p = {}", fit.p);
        assert!((fit.q - truth.q).abs() < 1e-6, "q = {}", fit.q);
    }

    #[test]
    fn hyperbola_saturates_at_reciprocal_p() {
        let h = Hyperbola { p: 0.5, q: 100.0 };
        assert!(h.eval(1e12) > 1.99);
        assert!(h.eval(1e12) <= 2.0);
        assert_eq!(h.eval(0.0), 0.0);
        assert_eq!(h.eval(-5.0), 0.0);
    }

    #[test]
    fn error_summary_thresholds() {
        let predicted = [0.10, 0.20, 0.50, 1.00];
        let actual = [0.12, 0.21, 0.58, 1.30];
        let s = error_summary(&predicted, &actual).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.within_5pct, 0.5); // 0.02 and 0.01
        assert_eq!(s.within_10pct, 0.75); // plus 0.08
        assert!((s.mean_abs - (0.02 + 0.01 + 0.08 + 0.30) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn error_summary_diagnoses_the_offending_series() {
        let nan_actual = error_summary(&[0.1, 0.2], &[0.1, f64::NAN]).unwrap_err();
        assert!(matches!(
            nan_actual,
            ModelError::NonFiniteSample { series: "actual", index: 1, value } if value.is_nan()
        ));
        assert!(nan_actual.to_string().contains("'actual'"));
        assert!(nan_actual.to_string().contains("index 1"));
        let inf_predicted = error_summary(&[f64::INFINITY], &[0.1]).unwrap_err();
        assert!(matches!(
            inf_predicted,
            ModelError::NonFiniteSample { series: "predicted", index: 0, .. }
        ));
        assert_eq!(
            error_summary(&[], &[]).unwrap_err(),
            ModelError::EmptySeries { series: "predicted" }
        );
        assert_eq!(
            error_summary(&[1.0], &[1.0, 2.0]).unwrap_err(),
            ModelError::MismatchedSeries { left: 1, right: 2 }
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 2.5);
    }
}
