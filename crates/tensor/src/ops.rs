//! Matrix operations: the order-preserving slice GEMM and transpose.

use crate::isa::{self, Kernel};
use crate::matrix::Matrix;
use std::fmt;

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
/// The order contract: per output element the terms are added in ascending
/// `k`, each as a separate multiply and add (never fused), and a term whose
/// `a` factor is `0.0` or `-0.0` is skipped — pruned filter weights cost
/// nothing, and a skipped term never meets the `inf` or `NaN` it faces in
/// `b`. Training results are pinned bit for bit on that order: any blocking
/// or tiling must keep it.
///
/// The kernel is register-tiled and dispatched through [`isa::run`]. Each
/// row of `a` is compacted to its nonzero `(k, a)` terms, 64 columns at a
/// time on the stack; then for each row of `c` a strip of 32 outputs (then
/// one of 8, 16 or 24) is held in registers across the row's whole term
/// list, one `b` strip multiplied and added per term, and stored once. The
/// last `n % 8` outputs of a row (all of them when `n < 8`) take the same
/// terms as an axpy over the tail of each `b` row. Either way an element
/// sees exactly the adds the i-k-j loop of whole-row axpys gives it. Where
/// `a` is the same over many calls (a weight matrix), compact it once into
/// [`RowTerms`] and call [`matmul_acc_terms`].
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
    isa::run(Gemm { a: Lhs::Dense { a, k }, b, c, n });
}

/// [`matmul_acc`] with `a` compacted beforehand: `c (m×n) += a · b (k×n)`
/// for the `m × k` matrix `a` whose nonzero terms `terms` holds. Same
/// kernel, same order contract, same bits; only the scan of `a` for its
/// nonzeros is paid once, by [`RowTerms::compact`], not once per call.
///
/// # Panics
///
/// Panics if `b` is not `k × n` or `c` is not `m × n`.
///
/// # Examples
///
/// ```
/// use cc_tensor::{matmul_acc_terms, RowTerms};
/// let mut terms = RowTerms::default();
/// terms.compact(&[2.0, 0.0], 1, 2);
/// let mut c = [1.0, 1.0];
/// matmul_acc_terms(&terms, &[3.0, 4.0, 5.0, 6.0], &mut c, 2);
/// assert_eq!(c, [7.0, 9.0]);
/// ```
pub fn matmul_acc_terms(terms: &RowTerms, b: &[f32], c: &mut [f32], n: usize) {
    let (m, k) = (terms.rows(), terms.depth);
    assert_eq!(b.len(), k * n, "b is not {k}×{n}");
    assert_eq!(c.len(), m * n, "c is not {m}×{n}");
    isa::run(Gemm { a: Lhs::Terms(terms), b, c, n });
}

/// The nonzero terms `(k, a[i][k])` of each row `i` of a row-major matrix,
/// in ascending `k`: the left operand of [`matmul_acc_terms`].
///
/// Compacting again reuses the buffers: once they have grown to a matrix's
/// size, compacting it (or any matrix no larger) allocates nothing.
#[derive(Clone, Default)]
pub struct RowTerms {
    /// `k`: the inner dimension of the product.
    depth: usize,
    /// One past each row's last term.
    ends: Vec<usize>,
    /// Each term's column and value; only the first `ends.last()` count.
    terms: Vec<(u32, f32)>,
}

impl RowTerms {
    /// Replaces the terms with those of the row-major `m × k` matrix `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn compact(&mut self, a: &[f32], m: usize, k: usize) {
        assert_eq!(a.len(), m * k, "a is not {m}×{k}");
        self.reset(m, k);
        let mut len = 0;
        for i in 0..m {
            len += gather(a[i * k..(i + 1) * k].iter().copied(), 0, &mut self.terms[len..]);
            self.ends.push(len);
        }
    }

    /// Replaces the terms with those of the *transpose* of the row-major
    /// `rows × cols` matrix `a` (`cols` rows of depth `rows`), without
    /// materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * cols`.
    pub fn compact_transposed(&mut self, a: &[f32], rows: usize, cols: usize) {
        assert_eq!(a.len(), rows * cols, "a is not {rows}×{cols}");
        self.reset(cols, rows);
        let mut len = 0;
        for i in 0..cols {
            let column = a.iter().skip(i).step_by(cols).copied();
            len += gather(column, 0, &mut self.terms[len..]);
            self.ends.push(len);
        }
    }

    /// Room for every entry of an `m × k` matrix, and no rows yet.
    fn reset(&mut self, m: usize, k: usize) {
        assert!(u32::try_from(k).is_ok(), "inner dimension {k} does not fit a term index");
        self.depth = k;
        self.ends.clear();
        if self.terms.len() < m * k {
            self.terms.resize(m * k, (0, 0.0));
        }
    }

    /// Row `i`'s terms.
    #[inline(always)]
    fn row(&self, i: usize) -> &[(u32, f32)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.terms[start..self.ends[i]]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Number of nonzero terms over all rows.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// `true` when no row has a nonzero term.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for RowTerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowTerms {}×{} nnz={}", self.rows(), self.depth, self.len())
    }
}

/// Writes the nonzero ones of `entries` (the first is column `base`) as
/// terms to the front of `terms`, which must have room for all of them,
/// and returns how many there are. Every entry is written; the write
/// position only advances past a nonzero, so the scan has no branch on the
/// data.
#[inline(always)]
fn gather(entries: impl Iterator<Item = f32>, base: usize, terms: &mut [(u32, f32)]) -> usize {
    let mut len = 0;
    for (kk, v) in entries.enumerate() {
        terms[len] = ((base + kk) as u32, v);
        len += usize::from(v != 0.0);
    }
    len
}

/// Columns of a dense `a` row [`matmul_acc`] compacts at a time.
const CHUNK: usize = 64;

/// The GEMM's left operand.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// Row-major, `k` wide.
    Dense { a: &'a [f32], k: usize },
    /// Compacted beforehand.
    Terms(&'a RowTerms),
}

/// The register-tiled GEMM (see [`matmul_acc`]): `c += a · b`, with `b`
/// `k × n`, one row of `c` at a time.
struct Gemm<'a> {
    a: Lhs<'a>,
    b: &'a [f32],
    c: &'a mut [f32],
    n: usize,
}

impl Kernel for Gemm<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let Gemm { a, b, c, n } = self;
        if n == 0 {
            return;
        }
        match a {
            Lhs::Terms(terms) => {
                for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                    row_acc(terms.row(i), b, n, c_row);
                }
            }
            Lhs::Dense { k: 0, .. } => {}
            Lhs::Dense { a, k } => {
                let mut chunk_terms = [(0, 0.0); CHUNK];
                for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
                    for (base, chunk) in (0..).step_by(CHUNK).zip(a_row.chunks(CHUNK)) {
                        let len = gather(chunk.iter().copied(), base, &mut chunk_terms);
                        row_acc(&chunk_terms[..len], b, n, c_row);
                    }
                }
            }
        }
    }
}

/// `c_row += a · b[k]` for each term `(k, a)` in turn: 32-wide strips,
/// then one strip over the rest of the multiples of 8 (8, 16 or 24 wide, so
/// its adds run side by side), then an axpy over the last `n % 8` columns.
#[inline(always)]
fn row_acc(terms: &[(u32, f32)], b: &[f32], n: usize, c_row: &mut [f32]) {
    let (wide, narrow) = (n - n % 32, n - n % 8);
    let (c_wide, rest) = c_row.split_at_mut(wide);
    for (s, strip) in c_wide.chunks_exact_mut(32).enumerate() {
        strip_acc::<32>(terms, b, n, s * 32, strip);
    }
    let (c_narrow, tail) = rest.split_at_mut(narrow - wide);
    match c_narrow.len() {
        0 => {}
        8 => strip_acc::<8>(terms, b, n, wide, c_narrow),
        16 => strip_acc::<16>(terms, b, n, wide, c_narrow),
        _ => strip_acc::<24>(terms, b, n, wide, c_narrow),
    }
    if !tail.is_empty() {
        for &(k, a) in terms {
            let b_tail = &b[k as usize * n + narrow..(k as usize + 1) * n];
            for (cv, bv) in tail.iter_mut().zip(b_tail) {
                *cv += a * bv;
            }
        }
    }
}

/// `out[t] += a · b[k][j + t]` for each term `(k, a)` in turn, `out` held
/// in registers (`W / 8` AVX2 or `W / 4` SSE2 vectors) from the first term
/// to the last.
#[inline(always)]
fn strip_acc<const W: usize>(terms: &[(u32, f32)], b: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let out: &mut [f32; W] = out.try_into().expect("a strip is W wide");
    let mut acc = *out;
    for &(k, a) in terms {
        let b_strip: &[f32; W] = b[k as usize * n + j..][..W].try_into().expect("a strip is W wide");
        for (s, bv) in acc.iter_mut().zip(b_strip) {
            *s += a * bv;
        }
    }
    *out = acc;
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
    use crate::isa::Level;
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

    /// The reference the kernel is held to: the i-k-j loop of whole-row
    /// axpys, a zero `a` term skipped.
    fn ikj(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                for (j, cv) in c_row.iter_mut().enumerate() {
                    *cv += aik * b[kk * n + j];
                }
            }
        }
    }

    fn same_bits(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Every level's compilation of the kernel, fed `a` dense, compacted,
    /// and compacted from its transpose, gives the reference's bits: across
    /// widths that leave each mix of 32-wide strips, one 8/16/24-wide strip
    /// and an axpy tail, depths on both sides of a dense row's chunk, zero
    /// and all-zero rows, and zero terms that face `inf` and `NaN` in `b`.
    #[test]
    fn tiled_kernel_matches_the_ikj_reference_at_every_level() {
        let mut rng = SmallRng::seed_from_u64(34);
        let widths = [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 31, 32, 33, 49, 120];
        for n in widths {
            for k in [0, 1, 6, 64, 65, 130] {
                for density in [1.0, 0.3, 0.0] {
                    let m = 3;
                    let mut a: Vec<f32> = (0..m * k)
                        .map(|_| match rng.gen_bool(density) {
                            true => rng.gen_range(-1.0..1.0),
                            false if rng.gen_bool(0.5) => 0.0,
                            false => -0.0,
                        })
                        .collect();
                    a[k..2 * k].fill(0.0); // row 1 has no term at all
                    let mut b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    if k > 1 {
                        // column 1 of `a` is all zeros and faces inf / NaN
                        for row in a.chunks_exact_mut(k) {
                            row[1] = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                        }
                        for (j, v) in b[n..2 * n].iter_mut().enumerate() {
                            *v = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
                        }
                    }
                    let mut want: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    want[n..2 * n].fill(-0.0); // the empty row keeps its -0.0s
                    let start = want.clone();
                    ikj(&a, &b, &mut want, k, n);
                    assert!(want.iter().all(|v| v.is_finite()), "the reference skips zero terms");

                    let mut terms = RowTerms::default();
                    terms.compact(&a, m, k);
                    let mut transposed = RowTerms::default();
                    let a_t: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
                    transposed.compact_transposed(&a_t, k, m);
                    for level in Level::available() {
                        for lhs in [Lhs::Dense { a: &a, k }, Lhs::Terms(&terms), Lhs::Terms(&transposed)] {
                            let mut c = start.clone();
                            isa::run_at(level, Gemm { a: lhs, b: &b, c: &mut c, n });
                            assert!(
                                same_bits(&c, &want),
                                "{} n={n} k={k} density={density}",
                                level.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_terms_hold_the_nonzeros_in_column_order_and_reuse_their_buffers() {
        let a = [0.0, 2.0, -0.0, 3.0, f32::NAN, 0.0];
        let mut terms = RowTerms::default();
        terms.compact(&a, 2, 3);
        assert_eq!(terms.rows(), 2);
        assert_eq!(terms.len(), 3, "NaN is a term; +0.0 and -0.0 are not");
        assert_eq!(terms.row(0), &[(1, 2.0)]);
        assert_eq!(terms.row(1)[0], (0, 3.0));
        assert_eq!(terms.row(1)[1].0, 1);
        // Aᵀ is 3 × 2: its rows are the columns of `a`.
        terms.compact_transposed(&a, 2, 3);
        assert_eq!((terms.rows(), terms.len()), (3, 3));
        assert_eq!(terms.row(0), &[(1, 3.0)]);
        assert_eq!(terms.row(2), &[]);
        let buffer = terms.terms.as_ptr();
        terms.compact(&[1.0; 4], 2, 2);
        assert_eq!(terms.terms.as_ptr(), buffer, "no larger than before: no allocation");
        assert!(!terms.is_empty());
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
