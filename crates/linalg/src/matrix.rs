//! A row-major dense `f64` matrix.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// This is deliberately minimal: it supports exactly the operations the GP
/// and scheduler layers need (construction, element access, arithmetic,
/// products, transposes, row/column extraction, and structural predicates).
///
/// # Examples
///
/// ```
/// use easeml_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros
    /// elsewhere.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy the main diagonal into a new vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Returns the transpose. Each output row is filled contiguously from
    /// a strided read of one input column.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for (i, x) in out.row_mut(j).iter_mut().enumerate() {
                *x = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for j in 0..rrow.len() {
                    orow[j] += aik * rrow[j];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vec_ops::dot(self.row(i), v))
            .collect())
    }

    /// The Gram matrix of the columns, `AᵀA`: entry (i, j) equals
    /// `vec_ops::dot` of columns i and j bit for bit, without copying them.
    ///
    /// The output is computed in 4×4 tiles on and above the diagonal, and
    /// mirrored. A tile adds each row's outer product of its two 4-column
    /// slices to sixteen sums that start from −0.0 and take the rows in
    /// order, as the column dot products do. The tile's left-hand columns
    /// are first copied with every entry twice, `[a₀, a₀, a₁, a₁, …]` per
    /// row, so that its products pair up in two-wide vectors with no
    /// shuffles.
    pub fn col_gram(&self) -> Matrix {
        const TILE: usize = 4;
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        let mut pairs = vec![[0.0f64; 2 * TILE]; self.rows];
        for i in (0..n).step_by(TILE) {
            let wi = TILE.min(n - i);
            if wi == TILE {
                for (d, row) in pairs.iter_mut().zip(self.data.chunks_exact(n)) {
                    for (d, &x) in d.chunks_exact_mut(2).zip(&row[i..i + TILE]) {
                        d.fill(x);
                    }
                }
            }
            for j in (i..n).step_by(TILE) {
                let wj = TILE.min(n - j);
                let mut s = [[-0.0f64; TILE]; TILE];
                if wi == TILE && wj == TILE {
                    for (a, row) in pairs.iter().zip(self.data.chunks_exact(n)) {
                        let b = &row[j..j + TILE];
                        for (sums, a) in s.iter_mut().zip(a.chunks_exact(2)) {
                            sums[0] += a[0] * b[0];
                            sums[1] += a[1] * b[1];
                            sums[2] += a[0] * b[2];
                            sums[3] += a[1] * b[3];
                        }
                    }
                } else {
                    for row in self.data.chunks_exact(n) {
                        for (sums, x) in s.iter_mut().zip(&row[i..i + wi]) {
                            for (v, y) in sums.iter_mut().zip(&row[j..j + wj]) {
                                *v += x * y;
                            }
                        }
                    }
                }
                for (p, sums) in s.iter().enumerate().take(wi) {
                    for (q, &v) in sums.iter().enumerate().take(wj) {
                        out[(i + p, j + q)] = v;
                        out[(j + q, i + p)] = v;
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Adds `s` to each diagonal entry in place (useful for jitter /
    /// observation noise).
    pub fn add_diag_mut(&mut self, s: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += s;
        }
    }

    /// Maximum absolute difference from its own transpose; 0 for symmetric
    /// matrices.
    pub fn asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.asymmetry() <= tol
    }

    /// Forces exact symmetry by averaging with the transpose, in place.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Element-wise comparison within an absolute tolerance.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:9.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_gram_edge_shapes_are_bit_equal_to_column_dots() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let column_dots = |a: &Matrix| {
            let t = a.transpose();
            Matrix::from_fn(a.cols(), a.cols(), |i, j| {
                crate::vec_ops::dot(t.row(i), t.row(j))
            })
        };
        let wide = Matrix::from_fn(3, 11, |i, j| (i as f64 + 1.0) * (j as f64 - 4.5));
        let mut signed_zero_row = Matrix::from_fn(5, 6, |i, j| (i * 7 + j) as f64 * 0.1 - 1.0);
        signed_zero_row.row_mut(2).fill(-0.0);
        for a in [
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 5),
            Matrix::zeros(4, 0),
            Matrix::filled(1, 1, -0.0),
            wide,
            signed_zero_row,
        ] {
            let g = a.col_gram();
            assert_eq!(g.shape(), (a.cols(), a.cols()));
            assert_eq!(bits(&g), bits(&column_dots(&a)), "{:?}", a.shape());
        }
        // With no rows every sum is the empty sum, −0.0.
        assert!(Matrix::zeros(0, 5)
            .col_gram()
            .as_slice()
            .iter()
            .all(|x| x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        assert!(!z.is_square());

        let id = Matrix::identity(3);
        assert!(id.is_square());
        assert_eq!(id.diag(), vec![1.0, 1.0, 1.0]);
        assert_eq!(id[(0, 1)], 0.0);

        let d = Matrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);

        let f = Matrix::filled(2, 2, 7.0);
        assert!(f.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn from_fn_matches_manual() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_copies_every_entry_bit_for_bit() {
        // Sides that are multiples of no block size, with signed zeros,
        // NaNs and subnormals among the entries.
        let (rows, cols) = (13, 7);
        let m = Matrix::from_fn(rows, cols, |i, j| match (i * cols + j) % 5 {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::MIN_POSITIVE / 3.0,
            _ => (i as f64 - 6.5) / (j as f64 + 0.3),
        });
        let t = m.transpose();
        assert_eq!(t.shape(), (cols, rows));
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(t[(j, i)].to_bits(), m[(i, j)].to_bits(), "({i}, {j})");
            }
        }
        assert_eq!(Matrix::zeros(0, 4).transpose().shape(), (4, 0));
        assert_eq!(Matrix::zeros(4, 0).transpose().shape(), (0, 4));
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);

        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        assert_eq!(sum[(0, 1)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
    }

    #[test]
    fn diag_and_add_diag() {
        let mut m = Matrix::identity(3);
        m.add_diag_mut(0.5);
        assert_eq!(m.diag(), vec![1.5, 1.5, 1.5]);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn symmetry_predicates() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0 + 1e-12, 1.0]]);
        assert!(m.is_symmetric(1e-9));
        assert!(!m.is_symmetric(1e-15));
        m.symmetrize_mut();
        assert_eq!(m.asymmetry(), 0.0);
        assert!(!Matrix::zeros(1, 2).is_symmetric(1.0));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-10;
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-12));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }
}
