//! Order statistics over timing samples.

/// The median of `values` (mean of the middle pair for even lengths); 0
/// for an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank quantile `q` of an ascending slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The centre and tail of one set of latency samples.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spread {
    /// Number of samples.
    pub(crate) n: usize,
    /// The median.
    pub(crate) p50: f64,
    /// The tail quantile actually reported: 0.99, or the highest
    /// quantile that still leaves ten samples above it.
    pub(crate) tail_q: f64,
    /// The sample at `tail_q`.
    pub(crate) tail: f64,
}

impl Spread {
    /// Summarises `samples` (reordered in place).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub(crate) fn of(samples: &mut [f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples to summarise");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail_q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
        Spread {
            n,
            p50: nearest_rank(samples, 0.5),
            tail_q,
            tail: nearest_rank(samples, tail_q),
        }
    }

    /// `p99`, or e.g. `p84` when the set is too small for p99.
    pub(crate) fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).floor() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = Spread::of(&mut big);
        assert_eq!(
            (s.tail_q, s.tail, s.tail_label().as_str()),
            (0.99, 1980.0, "p99")
        );
        let mut small: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = Spread::of(&mut small);
        assert_eq!(s.tail_label(), "p80");
        assert_eq!(s.tail, 40.0);
        assert_eq!(small.iter().filter(|&&x| x > s.tail).count(), 10);
        assert_eq!(s.p50, 25.0);
    }
}
