//! Matrix operations: the order-preserving slice GEMM and transpose.

use crate::matrix::Matrix;

/// Multiplies `a (m×k)` by `b (k×n)`, returning an `m×n` matrix.
///
/// Zero-fill plus [`matmul_acc`], so each output element is summed in
/// ascending `k`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use cc_tensor::{Matrix, matmul};
/// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
/// assert_eq!(matmul(&a, &b).get(0, 0), 11.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// Multiplies `a` by `b`, accumulating into a caller-provided output that is
/// first zeroed. Avoids an allocation in inner training loops.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "matmul inner dimension mismatch: {}×{} · {}×{}", m, k, b.rows(), n);
    assert_eq!(c.rows(), m, "output rows mismatch");
    assert_eq!(c.cols(), n, "output cols mismatch");
    c.as_mut_slice().fill(0.0);
    matmul_acc(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
}

/// `c (m×n) += a (m×k) · b (k×n)` on row-major slices: the one GEMM kernel
/// of the float path.
///
/// An i-k-j loop of whole-row axpys, so the inner loop streams a row of `b`
/// into a row of `c` and vectorises across `j`. Per output element the
/// terms are added in ascending `k`, each as a separate multiply and add,
/// and a term whose `a` factor is `0.0` is skipped (pruned filter weights
/// cost nothing). Training results are pinned bit for bit on that order:
/// any blocking or tiling must keep it.
///
/// # Panics
///
/// Panics if a slice length differs from its `rows × cols`.
///
/// # Examples
///
/// ```
/// let mut c = [1.0, 1.0];
/// cc_tensor::matmul_acc(&[2.0, 0.0], &[3.0, 4.0, 5.0, 6.0], &mut c, 1, 2, 2);
/// assert_eq!(c, [7.0, 9.0]);
/// ```
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is not {m}×{k}");
    assert_eq!(b.len(), k * n, "b is not {k}×{n}");
    assert_eq!(c.len(), m * n, "c is not {m}×{n}");
    if k == 0 || n == 0 {
        return;
    }
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if aik == 0.0 {
                continue;
            }
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// Returns the transpose of `m`.
///
/// # Examples
///
/// ```
/// use cc_tensor::{Matrix, transpose};
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(transpose(&m).get(0, 1), 3.0);
/// ```
pub fn transpose(m: &Matrix) -> Matrix {
    let (rows, cols) = (m.rows(), m.cols());
    let mut out = Matrix::zeros(cols, rows);
    if rows > 0 && cols > 0 {
        for (c, out_row) in out.as_mut_slice().chunks_exact_mut(rows).enumerate() {
            for (o, src_row) in out_row.iter_mut().zip(m.as_slice().chunks_exact(cols)) {
                *o = src_row[c];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn random_matrix(rng: &mut SmallRng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn identity_is_neutral() {
        let mut id = Matrix::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1.0);
        }
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(matmul(&m, &id), m);
        assert_eq!(matmul(&id, &m), m);
    }

    #[test]
    fn blocked_matches_naive_across_sizes() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (64, 64, 64), (65, 70, 33), (128, 17, 96)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = matmul(&a, &b);
            let slow = naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-3, "blocked GEMM diverged: {x} vs {y}");
            }
        }
    }

    /// `c += a · b` one element at a time: ascending `k`, separate multiply
    /// and add, `a == 0.0` skipped.
    fn ordered_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = c.get(i, j);
                for kk in 0..a.cols() {
                    if a.get(i, kk) != 0.0 {
                        s += a.get(i, kk) * b.get(kk, j);
                    }
                }
                c.set(i, j, s);
            }
        }
    }

    #[test]
    fn slice_gemm_keeps_summation_order_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(11);
        let shapes =
            [(1, 1, 1), (6, 1, 784), (16, 6, 196), (120, 16, 49), (5, 130, 3), (7, 70, 65)];
        for &(m, k, n) in &shapes {
            for density in [1.0, 0.25] {
                let mut a = random_matrix(&mut rng, m, k);
                for v in a.as_mut_slice() {
                    if !rng.gen_bool(density) {
                        *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                    }
                }
                // one row of `a` entirely zero: its row of `c` must come
                // back untouched, `-0.0` entries included
                a.row_mut(m / 2).fill(0.0);
                let b = random_matrix(&mut rng, k, n);
                let mut fast = random_matrix(&mut rng, m, n);
                fast.row_mut(m / 2).fill(-0.0);
                let mut slow = fast.clone();
                matmul_acc(a.as_slice(), b.as_slice(), fast.as_mut_slice(), m, k, n);
                ordered_acc(&a, &b, &mut slow);
                for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{m}×{k}·{k}×{n} at density {density}");
                }
                assert!(fast.row(m / 2).iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));

                let mut zeroed = Matrix::zeros(m, n);
                ordered_acc(&a, &b, &mut zeroed);
                assert_eq!(matmul(&a, &b), zeroed, "matmul is zero-fill plus the kernel");
            }
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        matmul_acc(&[], &[], &mut [], 0, 3, 0);
        let mut c = [1.0, 2.0];
        matmul_acc(&[], &[], &mut c, 2, 0, 1);
        assert_eq!(c, [1.0, 2.0]);
        assert_eq!(transpose(&Matrix::zeros(0, 3)), Matrix::zeros(3, 0));
        assert_eq!(transpose(&Matrix::zeros(3, 0)), Matrix::zeros(0, 3));
    }

    #[test]
    fn sparse_rows_skip_correctly() {
        // Zero entries in `a` must not change the result (they are skipped).
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]);
        let b = Matrix::from_rows(&[&[5.0, 1.0], &[1.0, 1.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.row(0), &[2.0, 2.0]);
        assert_eq!(c.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = random_matrix(&mut rng, 9, 4);
        assert_eq!(transpose(&transpose(&m)), m);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn mismatched_shapes_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}
