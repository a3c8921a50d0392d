//! Small vector helpers used across the workspace.
//!
//! These are free functions over slices rather than a wrapper type: callers
//! throughout the workspace keep their data in plain `Vec<f64>` / `&[f64]`,
//! which composes better with the simulation code than a newtype would.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `y += alpha * x`, the classic AXPY update.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance; 0.0 for slices with fewer than two entries.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Index of the maximum entry, breaking ties toward the lowest index.
/// Returns `None` for an empty slice; ignores NaN entries.
pub fn argmax(a: &[f64]) -> Option<usize> {
    argmax_by(a.iter().copied().enumerate())
}

/// [`argmax`] over `(key, value)` pairs without collecting the values: the
/// key of the first maximal non-NaN value, or `None` if there is none.
pub fn argmax_by<T>(pairs: impl IntoIterator<Item = (T, f64)>) -> Option<T> {
    let mut best: Option<(T, f64)> = None;
    for (key, x) in pairs {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((key, x)),
        }
    }
    best.map(|(key, _)| key)
}

/// Index of the minimum entry, breaking ties toward the lowest index.
/// Returns `None` for an empty slice; ignores NaN entries.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let neg: Vec<f64> = a.iter().map(|x| -x).collect();
    argmax(&neg)
}

/// Maximum entry; `None` for an empty slice.
pub fn max(a: &[f64]) -> Option<f64> {
    argmax(a).map(|i| a[i])
}

/// Minimum entry; `None` for an empty slice.
pub fn min(a: &[f64]) -> Option<f64> {
    argmin(a).map(|i| a[i])
}

/// Clamps every entry into `[lo, hi]` in place.
pub fn clamp_all(a: &mut [f64], lo: f64, hi: f64) {
    for x in a {
        *x = x.clamp(lo, hi);
    }
}

/// Linear interpolation table lookup: given sorted `xs` and matching `ys`,
/// evaluates the piecewise-linear interpolant at `x`, clamping outside the
/// range. Used when resampling experiment curves onto a common grid.
pub fn interp(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "interp length mismatch");
    assert!(!xs.is_empty(), "interp needs at least one point");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    // Binary search for the bracketing segment.
    let mut lo = 0;
    let mut hi = xs.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = if xs[hi] > xs[lo] {
        (x - xs[lo]) / (xs[hi] - xs[lo])
    } else {
        0.0
    };
    ys[lo] + t * (ys[hi] - ys[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn distance() {
        assert_eq!(dist2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut a = vec![1.0, -2.0];
        scale(&mut a, -3.0);
        assert_eq!(a, vec![-3.0, 6.0]);
    }

    #[test]
    fn moments() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-15);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn argmax_argmin_ties_and_nan() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmin(&[2.0, -1.0, -1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
        let keyed = [(7, f64::NAN), (3, 1.0), (5, 3.0), (2, 3.0)];
        assert_eq!(argmax_by(keyed), Some(5), "keys follow the first max");
        assert_eq!(max(&[1.0, 5.0, 2.0]), Some(5.0));
        assert_eq!(min(&[1.0, 5.0, 2.0]), Some(1.0));
    }

    #[test]
    fn clamping() {
        let mut a = vec![-1.0, 0.5, 2.0];
        clamp_all(&mut a, 0.0, 1.0);
        assert_eq!(a, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn interpolation() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert_eq!(interp(&xs, &ys, -1.0), 0.0); // clamp left
        assert_eq!(interp(&xs, &ys, 3.0), 0.0); // clamp right
        assert_eq!(interp(&xs, &ys, 0.5), 5.0);
        assert_eq!(interp(&xs, &ys, 1.5), 5.0);
        assert_eq!(interp(&xs, &ys, 1.0), 10.0);
    }

    #[test]
    fn interp_single_point() {
        assert_eq!(interp(&[1.0], &[7.0], 0.0), 7.0);
        assert_eq!(interp(&[1.0], &[7.0], 2.0), 7.0);
    }
}
