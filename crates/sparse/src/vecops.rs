//! Dense-vector kernels used by the Lanczos iteration.
//!
//! # Fusion and the bit-identity contract
//!
//! The Lanczos hot loop is memory-bound: its cost is passes over `O(n)`
//! vectors, not flops. The fused kernels here ([`axpy2`],
//! [`orthogonalize_fused`], [`accumulate_scaled`]) combine what would be
//! two or more passes into one, **without changing the floating-point
//! operation order**: every fused kernel is bit-identical to the sequence
//! of naive kernels it replaces (the equivalence property tests in
//! `tests/spectral.rs` pin this down). Reductions have one shape: [`dot`]
//! and [`norm2`] accumulate sequentially in ascending index order.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(np_sparse::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha · x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha · x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm and returns the previous norm.
/// If `x` is (numerically) zero it is left unchanged and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Removes from `x` its component along the *unit* vector `u`:
/// `x ← x − (uᵀx) u`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn orthogonalize_against(u: &[f64], x: &mut [f64]) {
    let c = dot(u, x);
    axpy(-c, u, x);
}

/// Fused double update: `y ← y + a1 · x1 + a2 · x2` in one pass.
///
/// Bit-identical to `axpy(a1, x1, y); axpy(a2, x2, y)`: each element is
/// updated by the two terms in the same order the sequential kernels
/// would apply them, and elements are independent.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy2(a1: f64, x1: &[f64], a2: f64, x2: &[f64], y: &mut [f64]) {
    assert_eq!(x1.len(), y.len(), "axpy2 length mismatch");
    assert_eq!(x2.len(), y.len(), "axpy2 length mismatch");
    for ((yi, v1), v2) in y.iter_mut().zip(x1).zip(x2) {
        *yi = (*yi + a1 * v1) + a2 * v2;
    }
}

/// Fused modified-Gram–Schmidt sweep: projects the concatenation of
/// `sets` out of `x`, in order.
///
/// Equivalent to `for u in concat(sets) { orthogonalize_against(u, x) }`
/// bit for bit, but each vector's subtraction pass doubles as the next
/// vector's projection pass, so a sweep over `m` vectors touches `x`
/// `m + 1` times instead of `2m` times. Since full
/// reorthogonalization is the dominant `O(j·n)` cost of a Lanczos step,
/// this roughly halves the hot loop's memory traffic.
///
/// `sets` may repeat a set (e.g. `&[basis, basis]` for the
/// apply-twice-for-robustness idiom) — repetitions fuse across the
/// boundary too.
///
/// # Panics
///
/// Panics if any vector's length differs from `x.len()`.
pub fn orthogonalize_fused(sets: &[&[Vec<f64>]], x: &mut [f64]) {
    let mut it = sets.iter().flat_map(|s| s.iter()).peekable();
    let Some(first) = it.next() else { return };
    let mut u: &Vec<f64> = first;
    let mut c = dot(u, x);
    for next in it {
        assert_eq!(next.len(), x.len(), "orthogonalize length mismatch");
        // `axpy(-c, u, x)` and `dot(next, x)` in one pass: the same update
        // expression, and the same ascending single-accumulator reduction
        // from −0.0, the additive identity `f64::sum()` folds from.
        let alpha = -c;
        let mut acc = -0.0;
        for ((xi, ui), ni) in x.iter_mut().zip(u).zip(next) {
            let v = *xi + alpha * ui;
            *xi = v;
            acc += ni * v;
        }
        c = acc;
        u = next;
    }
    axpy(-c, u, x);
}

/// Accumulates `y ← y + Σᵢ coeffs[i] · vecs[i]`, fusing consecutive pairs
/// of terms with [`axpy2`] — the Ritz-vector assembly kernel.
///
/// Bit-identical to `for (c, v) in coeffs.zip(vecs) { axpy(*c, v, y) }`.
///
/// # Panics
///
/// Panics if `coeffs.len() != vecs.len()` or any vector's length differs
/// from `y.len()`.
pub fn accumulate_scaled(coeffs: &[f64], vecs: &[Vec<f64>], y: &mut [f64]) {
    assert_eq!(
        coeffs.len(),
        vecs.len(),
        "accumulate_scaled length mismatch"
    );
    let mut i = 0;
    while i + 1 < coeffs.len() {
        axpy2(coeffs[i], &vecs[i], coeffs[i + 1], &vecs[i + 1], y);
        i += 2;
    }
    if i < coeffs.len() {
        axpy(coeffs[i], &vecs[i], y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_axpy() {
        let x = [3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        let mut y = [1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn scale_and_normalize() {
        let mut x = vec![0.0, 3.0, 4.0];
        let prev = normalize(&mut x);
        assert_eq!(prev, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        scale(2.0, &mut x);
        assert!((norm2(&x) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0; 4];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0; 4]);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let u = [1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt()];
        let mut x = [3.0, 1.0];
        orthogonalize_against(&u, &mut x);
        assert!(dot(&u, &x).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    /// Deterministic pseudo-random vector for the fusion identities.
    fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64) / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn axpy2_bit_identical_to_two_axpys() {
        for n in [0usize, 1, 5, 100] {
            let x1 = rand_vec(4, n);
            let x2 = rand_vec(5, n);
            let y0 = rand_vec(6, n);
            let mut fused = y0.clone();
            axpy2(-1.25, &x1, 0.4, &x2, &mut fused);
            let mut plain = y0;
            axpy(-1.25, &x1, &mut plain);
            axpy(0.4, &x2, &mut plain);
            assert_eq!(fused, plain, "n={n}");
        }
    }

    #[test]
    fn orthogonalize_fused_matches_sequential_sweep() {
        let n = 97;
        let basis: Vec<Vec<f64>> = (0..5).map(|i| rand_vec(10 + i, n)).collect();
        let deflate: Vec<Vec<f64>> = (0..2).map(|i| rand_vec(20 + i, n)).collect();
        let x0 = rand_vec(30, n);

        let mut fused = x0.clone();
        orthogonalize_fused(&[&deflate, &basis, &basis], &mut fused);

        let mut plain = x0;
        for u in deflate.iter().chain(&basis).chain(&basis) {
            orthogonalize_against(u, &mut plain);
        }
        assert_eq!(fused, plain);
    }

    #[test]
    fn orthogonalize_fused_empty_sets_is_noop() {
        let mut x = vec![1.0, 2.0];
        orthogonalize_fused(&[], &mut x);
        orthogonalize_fused(&[&[], &[]], &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn accumulate_scaled_matches_axpy_loop() {
        let n = 61;
        for m in [0usize, 1, 2, 5, 8] {
            let vecs: Vec<Vec<f64>> = (0..m).map(|i| rand_vec(40 + i as u64, n)).collect();
            let coeffs = rand_vec(50, m);
            let mut fused = rand_vec(60, n);
            let mut plain = fused.clone();
            accumulate_scaled(&coeffs, &vecs, &mut fused);
            for (c, v) in coeffs.iter().zip(&vecs) {
                axpy(*c, v, &mut plain);
            }
            assert_eq!(fused, plain, "m={m}");
        }
    }
}
