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

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn distance() {
        assert_eq!(dist2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
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
}
