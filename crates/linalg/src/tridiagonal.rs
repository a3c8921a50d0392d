//! Householder reduction of a symmetric matrix to tridiagonal form.
//!
//! `QᵀAQ = T` with `Q` orthogonal and `T` symmetric tridiagonal takes
//! ⅔n³ multiply-adds once. After it, any matrix `I + ρA` factors as
//! `Q(I + ρT)Qᵀ`, and `I + ρT` has an O(n) LDLᵀ recurrence; that is what
//! the low-rank LML tuner in `easeml-gp` scores its grid with. The cyclic
//! Jacobi [`eigen`](crate::eigen) would also diagonalise `A`, but each of
//! its sweeps costs O(n³) on its own.

use crate::{LinalgError, Matrix, Result};

/// `p[j] = 0 + s[0]·B[j][0] + … + s[j−1]·B[j][j−1]` in that order, for the
/// block whose row r is `block[r * stride + col..]`: the terms of `p = Bs`
/// that lie left of the diagonal in row j. Four rows run at once, each
/// chain in its own order.
fn lower_terms(block: &[f64], stride: usize, col: usize, s: &[f64], p: &mut [f64]) {
    let row = |r: usize| &block[r * stride + col..r * stride + col + r];
    let mut j = 0;
    while j + 4 <= p.len() {
        let [b0, b1, b2, b3] = [row(j), row(j + 1), row(j + 2), row(j + 3)];
        let mut acc = [0.0f64; 4];
        for ((((x, y0), y1), y2), y3) in s[..j].iter().zip(b0).zip(b1).zip(b2).zip(b3) {
            acc[0] += x * y0;
            acc[1] += x * y1;
            acc[2] += x * y2;
            acc[3] += x * y3;
        }
        for (d, (a, b)) in acc.iter_mut().zip([b0, b1, b2, b3]).enumerate() {
            for (x, y) in s[j..j + d].iter().zip(&b[j..]) {
                *a += x * y;
            }
        }
        p[j..j + 4].copy_from_slice(&acc);
        j += 4;
    }
    for j in j..p.len() {
        let mut acc = 0.0;
        for (x, y) in s[..j].iter().zip(row(j)) {
            acc += x * y;
        }
        p[j] = acc;
    }
}

/// The reduction `A = Q T Qᵀ` of a symmetric matrix, with `T` tridiagonal
/// and `Q = H₀H₁⋯H_{n−3}` a product of Householder reflectors
/// `H_k = I − τ_k v_k v_kᵀ`.
///
/// # Examples
///
/// ```
/// use easeml_linalg::{Matrix, SymmetricTridiagonal};
///
/// let a = Matrix::from_rows(&[&[4.0, 1.0, 2.0], &[1.0, 3.0, 0.5], &[2.0, 0.5, 1.0]]);
/// let tri = SymmetricTridiagonal::new(&a).unwrap();
/// assert_eq!((tri.diag().len(), tri.off_diag().len()), (3, 2));
/// assert!(tri.reconstruct().approx_eq(&a, 1e-12));
/// // Qᵀ keeps lengths.
/// let mut x = vec![1.0, 2.0, 2.0];
/// tri.apply_qt(&mut x);
/// assert!((x.iter().map(|v| v * v).sum::<f64>() - 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricTridiagonal {
    /// `T[i][i]`.
    diag: Vec<f64>,
    /// `T[i + 1][i]`.
    off: Vec<f64>,
    /// Row k holds `v_k` in columns k + 1..n; `v_k[k + 1] = 1`.
    reflectors: Matrix,
    /// τ_k of each reflector; 0 where column k needed none.
    taus: Vec<f64>,
}

impl SymmetricTridiagonal {
    /// Reduces the symmetric matrix `a`. Only its lower triangle is read.
    ///
    /// Step k reflects column k below its sub-diagonal onto the
    /// sub-diagonal, then applies the reflector to both sides of the
    /// trailing block as one symmetric rank-2 update. A column that is
    /// already zero below its sub-diagonal takes no reflector.
    ///
    /// The update keeps only the block's lower triangle, where the upper
    /// one would hold the same bits: the mirror of `vᵣ·wⱼ + wᵣ·vⱼ` is
    /// `vⱼ·wᵣ + wⱼ·vᵣ`, equal term for term. So `p = τBv` reads each upper
    /// entry from its mirror, with every sum in the order of a full-block
    /// row loop: `pⱼ` adds the terms r < j, a dot product along row j, and
    /// then the terms r ≥ j, row r by row r.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        // The upper triangle is never read: row k right of the diagonal is
        // filled from column k below it just before step k uses it.
        let mut w = a.clone();
        let mut diag = vec![0.0; n];
        let mut off = vec![0.0; n.saturating_sub(1)];
        let mut taus = vec![0.0; n.saturating_sub(1)];
        let mut p = vec![0.0; n];
        let mut sv = vec![0.0; n];
        for k in 0..n.saturating_sub(1) {
            diag[k] = w[(k, k)];
            for j in k + 1..n {
                w[(k, j)] = w[(j, k)];
            }
            // Once the step is done row k is free, and keeps v_k.
            let (head, block) = w.as_mut_slice().split_at_mut((k + 1) * n);
            let x = &mut head[k * n + k + 1..];
            let alpha = x[0];
            let sigma: f64 = x[1..].iter().map(|v| v * v).sum();
            if sigma == 0.0 {
                off[k] = alpha;
                x[0] = 1.0;
                continue;
            }
            let beta = -(alpha * alpha + sigma).sqrt().copysign(alpha);
            let tau = (beta - alpha) / beta;
            let inv = 1.0 / (alpha - beta);
            x[0] = 1.0;
            for v in &mut x[1..] {
                *v *= inv;
            }
            off[k] = beta;
            taus[k] = tau;
            let v: &[f64] = x;
            let m = v.len();
            // The trailing block B (rows and columns k + 1..n) becomes
            // H B H = B − v wᵀ − w vᵀ, with p = τ B v and
            // w = p − (τ/2)(pᵀv) v. Row r of B's lower triangle is
            // `block[r * n + k + 1..=r * n + k + 1 + r]`.
            let (p, sv) = (&mut p[..m], &mut sv[..m]);
            for (s, &vr) in sv.iter_mut().zip(v) {
                *s = tau * vr;
            }
            lower_terms(block, n, k + 1, sv, p);
            for (r, (row, &s)) in block.chunks_exact(n).zip(sv.iter()).enumerate() {
                for (pj, b) in p.iter_mut().zip(&row[k + 1..=k + 1 + r]) {
                    *pj += s * b;
                }
            }
            let half = 0.5 * tau * crate::vec_ops::dot(p, v);
            for (pj, vj) in p.iter_mut().zip(v) {
                *pj -= half * vj;
            }
            for (r, ((row, &vr), &wr)) in block.chunks_exact_mut(n).zip(v).zip(p.iter()).enumerate()
            {
                let lower = row[k + 1..=k + 1 + r].iter_mut().zip(v).zip(p.iter());
                for ((b, vj), wj) in lower {
                    *b -= vr * wj + wr * vj;
                }
            }
        }
        if n > 0 {
            diag[n - 1] = w[(n - 1, n - 1)];
        }
        Ok(SymmetricTridiagonal {
            diag,
            off,
            reflectors: w,
            taus,
        })
    }

    fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The diagonal of `T`: n entries.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// The sub-diagonal of `T`, `T[i + 1][i]`: n − 1 entries (none for
    /// n = 0).
    pub fn off_diag(&self) -> &[f64] {
        &self.off
    }

    /// `x ← Qᵀx`, in O(n²).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold one entry per row of the reduced matrix.
    pub fn apply_qt(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "vector length mismatch");
        for k in 0..self.taus.len() {
            self.reflect(k, x);
        }
    }

    /// `x ← Qx`.
    fn apply_q(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "vector length mismatch");
        for k in (0..self.taus.len()).rev() {
            self.reflect(k, x);
        }
    }

    /// `x ← H_k x`.
    fn reflect(&self, k: usize, x: &mut [f64]) {
        let tau = self.taus[k];
        if tau == 0.0 {
            return;
        }
        let v = &self.reflectors.row(k)[k + 1..];
        let x = &mut x[k + 1..];
        let s = tau * crate::vec_ops::dot(v, x);
        for (xi, vi) in x.iter_mut().zip(v) {
            *xi -= s * vi;
        }
    }

    /// `T` as a dense matrix.
    fn tridiagonal(&self) -> Matrix {
        let mut t = Matrix::from_diag(&self.diag);
        for (i, &e) in self.off.iter().enumerate() {
            t[(i + 1, i)] = e;
            t[(i, i + 1)] = e;
        }
        t
    }

    /// Rebuilds `Q T Qᵀ` (mainly for testing).
    pub fn reconstruct(&self) -> Matrix {
        // Q T Qᵀ = Q (Q T)ᵀ: apply Q to the columns of T, then to the
        // columns of the transposed product.
        let apply_to_columns = |m: &Matrix| {
            let mut cols = m.transpose();
            for j in 0..cols.rows() {
                self.apply_q(cols.row_mut(j));
            }
            cols
        };
        apply_to_columns(&apply_to_columns(&self.tridiagonal()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// The full-block loop `new` replaced: it keeps the whole trailing
    /// block symmetric and forms `p = τBv` row by row over it.
    fn new_by_full_blocks(a: &Matrix) -> SymmetricTridiagonal {
        let n = a.rows();
        let mut w = Matrix::from_fn(n, n, |i, j| if j <= i { a[(i, j)] } else { a[(j, i)] });
        let mut diag = vec![0.0; n];
        let mut off = vec![0.0; n.saturating_sub(1)];
        let mut taus = vec![0.0; n.saturating_sub(1)];
        let mut p = vec![0.0; n];
        for k in 0..n.saturating_sub(1) {
            diag[k] = w[(k, k)];
            let (head, block) = w.as_mut_slice().split_at_mut((k + 1) * n);
            let x = &mut head[k * n + k + 1..];
            let alpha = x[0];
            let sigma: f64 = x[1..].iter().map(|v| v * v).sum();
            if sigma == 0.0 {
                off[k] = alpha;
                x[0] = 1.0;
                continue;
            }
            let beta = -(alpha * alpha + sigma).sqrt().copysign(alpha);
            let tau = (beta - alpha) / beta;
            let inv = 1.0 / (alpha - beta);
            x[0] = 1.0;
            for v in &mut x[1..] {
                *v *= inv;
            }
            off[k] = beta;
            taus[k] = tau;
            let v: &[f64] = x;
            let p = &mut p[..v.len()];
            p.fill(0.0);
            for (row, &vr) in block.chunks_exact(n).zip(v) {
                let s = tau * vr;
                for (pj, b) in p.iter_mut().zip(&row[k + 1..]) {
                    *pj += s * b;
                }
            }
            let half = 0.5 * tau * crate::vec_ops::dot(p, v);
            for (pj, vj) in p.iter_mut().zip(v) {
                *pj -= half * vj;
            }
            for ((row, &vr), &wr) in block.chunks_exact_mut(n).zip(v).zip(p.iter()) {
                for ((b, vj), wj) in row[k + 1..].iter_mut().zip(v).zip(p.iter()) {
                    *b -= vr * wj + wr * vj;
                }
            }
        }
        if n > 0 {
            diag[n - 1] = w[(n - 1, n - 1)];
        }
        SymmetricTridiagonal {
            diag,
            off,
            reflectors: w,
            taus,
        }
    }

    #[test]
    fn lower_triangle_steps_are_bit_identical_to_full_blocks() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in 0..=111 {
            let b = lcg_matrix(n, n, 3 * n as u64);
            let mut sym = &b + &b.transpose();
            sym.scale_mut(0.5);
            // A rank-deficient Gram with a zero user and duplicated models.
            let mut c = lcg_matrix(n / 2 + 1, n, 5 * n as u64);
            c.row_mut(0).fill(0.0);
            for r in 0..c.rows() {
                for j in (1..n).step_by(7) {
                    c[(r, j)] = c[(r, j - 1)];
                }
            }
            let gram = c.col_gram();
            // Column 0 already zero below its sub-diagonal takes no reflector.
            let mut banded = gram.clone();
            for i in 2..n {
                banded[(i, 0)] = 0.0;
                banded[(0, i)] = 0.0;
            }
            for (what, a) in [("symmetric", sym), ("Gram", gram), ("banded", banded)] {
                let (got, want) = (
                    SymmetricTridiagonal::new(&a).unwrap(),
                    new_by_full_blocks(&a),
                );
                assert_eq!(bits(got.diag()), bits(want.diag()), "{what}, n = {n}");
                assert_eq!(
                    bits(got.off_diag()),
                    bits(want.off_diag()),
                    "{what}, n = {n}"
                );
                assert_eq!(bits(&got.taus), bits(&want.taus), "{what}, n = {n}");
                assert_eq!(
                    bits(got.reflectors.as_slice()),
                    bits(want.reflectors.as_slice()),
                    "{what}, n = {n}"
                );
            }
        }
    }

    fn trace(m: &Matrix) -> f64 {
        m.diag().iter().sum()
    }

    /// Q T Qᵀ rebuilds `a`, and T keeps its trace and Frobenius norm.
    fn assert_reduces(a: &Matrix, what: &str) -> SymmetricTridiagonal {
        let tri = SymmetricTridiagonal::new(a).unwrap();
        let scale = a.frobenius_norm();
        let gap = (&tri.reconstruct() - a).max_abs();
        assert!(
            gap <= 1e-12 * scale,
            "{what}: rebuilt within {gap}, ‖A‖ = {scale}"
        );
        let t = tri.tridiagonal();
        assert!(
            (trace(&t) - trace(a)).abs() <= 1e-12 * scale,
            "{what}: trace {} vs {}",
            trace(&t),
            trace(a)
        );
        assert!(
            (t.frobenius_norm() - scale).abs() <= 1e-12 * scale,
            "{what}: ‖T‖ {} vs ‖A‖ {scale}",
            t.frobenius_norm()
        );
        tri
    }

    #[test]
    fn reduces_random_symmetric_and_gram_matrices() {
        for n in [2, 3, 4, 9, 33, 111] {
            let b = lcg_matrix(n, n, n as u64);
            let mut sym = &b + &b.transpose();
            sym.scale_mut(0.5);
            assert_reduces(&sym, &format!("symmetric n = {n}"));
            // A Gram CᵀC of T users' centred qualities, as the tuner reduces.
            let c = lcg_matrix(n + 68, n, 7 * n as u64);
            assert_reduces(&c.col_gram(), &format!("Gram n = {n}"));
        }
    }

    #[test]
    fn q_is_orthogonal() {
        let c = lcg_matrix(20, 12, 5);
        let tri = SymmetricTridiagonal::new(&c.col_gram()).unwrap();
        let x: Vec<f64> = (0..12).map(|i| (i as f64).cos()).collect();
        let mut y = x.clone();
        tri.apply_qt(&mut y);
        let norm = |v: &[f64]| crate::vec_ops::dot(v, v);
        assert!((norm(&y) - norm(&x)).abs() <= 1e-12 * norm(&x));
        tri.apply_q(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() <= 1e-14, "{a} vs {b}");
        }
    }

    #[test]
    fn edge_cases_reduce() {
        // Nothing to reduce at n = 0, 1 or 2.
        let empty = SymmetricTridiagonal::new(&Matrix::zeros(0, 0)).unwrap();
        assert!(empty.diag().is_empty() && empty.off_diag().is_empty());
        let one = assert_reduces(&Matrix::from_rows(&[&[2.5]]), "n = 1");
        assert_eq!((one.diag(), one.off_diag()), (&[2.5][..], &[][..]));
        let two = Matrix::from_rows(&[&[1.0, -3.0], &[-3.0, 2.0]]);
        let tri = assert_reduces(&two, "n = 2");
        assert_eq!(tri.tridiagonal(), two);
        // A user whose centred qualities are all zero leaves a zero row and
        // column in W: that step takes no reflector.
        let mut c = lcg_matrix(30, 8, 11);
        for r in 0..30 {
            c[(r, 3)] = 0.0;
        }
        let w = c.col_gram();
        let tri = assert_reduces(&w, "zero column");
        // A column already tridiagonal: the first step reflects nothing.
        let mut banded = w.clone();
        for i in 2..8 {
            banded[(i, 0)] = 0.0;
            banded[(0, i)] = 0.0;
        }
        let tri0 = assert_reduces(&banded, "zero below the sub-diagonal");
        assert_eq!(tri0.taus[0], 0.0);
        assert_eq!(tri0.off_diag()[0], banded[(1, 0)]);
        assert_eq!(tri.dim(), 8);
        // The zero matrix needs no reflector at all.
        let zero = assert_reduces(&Matrix::zeros(5, 5), "zero matrix");
        assert!(zero.taus.iter().all(|&t| t == 0.0));
        // Duplicated users make W rank-deficient.
        let base = lcg_matrix(40, 6, 13);
        let dup = Matrix::from_fn(40, 12, |r, j| base[(r, j % 6)]);
        assert_reduces(&dup.col_gram(), "duplicated users");
        // Non-square input is an error.
        assert!(matches!(
            SymmetricTridiagonal::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn only_the_lower_triangle_is_read() {
        let c = lcg_matrix(9, 6, 17);
        let w = c.col_gram();
        let mut upper_nan = w.clone();
        for i in 0..6 {
            for j in i + 1..6 {
                upper_nan[(i, j)] = f64::NAN;
            }
        }
        let (a, b) = (
            SymmetricTridiagonal::new(&w).unwrap(),
            SymmetricTridiagonal::new(&upper_nan).unwrap(),
        );
        assert_eq!(a.diag(), b.diag());
        assert_eq!(a.off_diag(), b.off_diag());
    }
}
