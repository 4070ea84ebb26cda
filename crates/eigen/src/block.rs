//! Block Lanczos for the smallest deflated eigenpair.
//!
//! The paper uses "the block Lanczos algorithm [Golub–Van Loan]" (§1.1
//! footnote 1). The block variant iterates with `p` vectors at once, which
//! improves convergence when the target eigenvalue is *clustered* —
//! exactly what happens on netlists whose intersection graph has several
//! almost-equally-good natural cuts (near-degenerate `λ₂, λ₃, …`).
//!
//! The implementation mirrors [`lanczos`](crate::lanczos): explicit
//! deflation of known eigenvectors, full reorthogonalization against the
//! whole accumulated basis, verified residuals, and restarts from the best
//! Ritz block. The projected operator is materialized as a dense banded
//! matrix and solved with the Jacobi eigensolver (the basis stays in the
//! low hundreds of vectors).

use crate::dense::try_jacobi_eigen;
use crate::lanczos::{EigenPair, LanczosOptions};
use crate::EigenError;
use np_sparse::vecops::{accumulate_scaled, axpy, dot, norm2, normalize, orthogonalize_fused};
use np_sparse::{BudgetMeter, LinearOperator};

/// Options for [`smallest_deflated_block`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockLanczosOptions {
    /// Vectors per block (`p ≥ 1`; `p = 1` degenerates to classic
    /// Lanczos).
    pub block_size: usize,
    /// Base options: tolerance, seed, restart budget, dense cutoff, and
    /// `max_basis` interpreted as the cap on total basis *vectors* per
    /// restart cycle.
    pub base: LanczosOptions,
}

impl Default for BlockLanczosOptions {
    fn default() -> Self {
        BlockLanczosOptions {
            block_size: 2,
            base: LanczosOptions::default(),
        }
    }
}

use crate::lanczos::splitmix_stream;

/// Modified Gram–Schmidt of `v` against `basis` (twice) and `deflate`,
/// fused into one sweep (same projection order as the unfused loops:
/// deflate, basis, deflate, basis).
fn full_orthogonalize(v: &mut [f64], basis: &[Vec<f64>], deflate: &[Vec<f64>]) {
    orthogonalize_fused(&[deflate, basis, deflate, basis], v);
}

/// Computes the smallest eigenpair of `op` restricted to the orthogonal
/// complement of `deflate`, using block Lanczos with
/// `opts.block_size`-vector blocks.
///
/// Produces the same eigenpair as
/// [`smallest_deflated`](crate::smallest_deflated) (up to sign and
/// tolerance); prefer the block variant when the spectrum near `λ₂` is
/// clustered.
///
/// # Errors
///
/// * [`EigenError::TooSmall`] if the deflated space is empty;
/// * [`EigenError::NoConvergence`] if the tolerance is not met within the
///   restart budget.
///
/// # Panics
///
/// Panics if `opts.block_size == 0`.
pub fn smallest_deflated_block(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    opts: &BlockLanczosOptions,
) -> Result<EigenPair, EigenError> {
    smallest_deflated_block_metered(op, deflate, opts, &BudgetMeter::unlimited())
}

/// [`smallest_deflated_block`] with cooperative budget enforcement: every
/// operator application charges one matvec to `meter`, so a caller
/// computing several deflated eigenvectors (the direct multiway spectral
/// embedding) spends against the same allowance as the rest of its run.
///
/// # Errors
///
/// In addition to the [`smallest_deflated_block`] errors,
/// [`EigenError::Budget`] when `meter` reports a limit hit.
///
/// # Panics
///
/// Panics if `opts.block_size == 0`.
pub fn smallest_deflated_block_metered(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    opts: &BlockLanczosOptions,
    meter: &BudgetMeter,
) -> Result<EigenPair, EigenError> {
    assert!(opts.block_size >= 1, "block size must be at least 1");
    let n = op.dim();
    // orthonormalize the deflation set
    let deflate: Vec<Vec<f64>> = {
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(deflate.len());
        for v in deflate {
            let mut w = v.clone();
            orthogonalize_fused(&[&out], &mut w);
            if normalize(&mut w) > 1e-12 {
                out.push(w);
            }
        }
        out
    };
    if n == 0 || deflate.len() >= n {
        return Err(EigenError::TooSmall { dim: n });
    }
    if n <= opts.base.dense_cutoff || opts.block_size >= n {
        // small instances: fall back to the single-vector path, which has
        // its own dense solver
        return crate::lanczos::smallest_deflated_metered(op, &deflate, &opts.base, meter);
    }

    let p = opts.block_size.min(n - deflate.len()).max(1);
    let mut rand = splitmix_stream(opts.base.seed ^ 0xB10C);
    let mut matvecs = 0usize;
    let mut best: Option<(f64, EigenPair)> = None;
    let mut seed_block: Vec<Vec<f64>> = (0..p).map(|_| (0..n).map(|_| rand()).collect()).collect();

    for _cycle in 0..opts.base.max_restarts.max(1) {
        // orthonormal starting block
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for v in &mut seed_block {
            let mut w = v.clone();
            full_orthogonalize(&mut w, &basis, &deflate);
            if normalize(&mut w) > 1e-10 {
                basis.push(w);
            } else {
                let mut fresh: Vec<f64> = (0..n).map(|_| rand()).collect();
                full_orthogonalize(&mut fresh, &basis, &deflate);
                if normalize(&mut fresh) > 1e-10 {
                    basis.push(fresh);
                }
            }
        }
        if basis.is_empty() {
            seed_block = (0..p).map(|_| (0..n).map(|_| rand()).collect()).collect();
            continue;
        }

        // projected matrix entries t[i][j] = v_iᵀ A v_j, built as we grow
        let mut t: Vec<Vec<f64>> = Vec::new();
        let mut w = vec![0.0f64; n];
        let mut frontier = 0usize; // first vector of the current block
        let mut steps = 0usize;

        let max_vectors = opts.base.max_basis.max(2 * p);
        loop {
            let block_end = basis.len();
            // apply the operator to the current block, project, extend
            let mut new_vectors: Vec<Vec<f64>> = Vec::new();
            for j in frontier..block_end {
                meter.charge(1)?;
                op.apply(&basis[j], &mut w);
                matvecs += 1;
                // record projections against the existing basis
                while t.len() < basis.len() {
                    t.push(vec![0.0; basis.len()]);
                }
                for row in t.iter_mut() {
                    row.resize(basis.len(), 0.0);
                }
                for (i, b) in basis.iter().enumerate() {
                    let c = dot(b, &w);
                    t[i][j] = c;
                    t[j][i] = c;
                }
                let coeffs: Vec<f64> = (0..basis.len()).map(|i| -t[i][j]).collect();
                let mut res = w.clone();
                accumulate_scaled(&coeffs, &basis, &mut res);
                full_orthogonalize(&mut res, &basis, &deflate);
                orthogonalize_fused(&[&new_vectors], &mut res);
                if normalize(&mut res) > 1e-10 {
                    new_vectors.push(res);
                }
            }
            frontier = block_end;

            // solving the projected problem is O(k³); do it only every few
            // block steps, when the basis is saturated, or on stagnation
            let saturated = new_vectors.is_empty() || basis.len() + new_vectors.len() > max_vectors;
            steps += 1;
            if !saturated && !steps.is_multiple_of(4) {
                basis.extend(new_vectors);
                continue;
            }

            // solve the projected problem
            let k = basis.len();
            let mut dense = vec![0.0f64; k * k];
            for i in 0..k {
                for j in 0..k {
                    dense[i * k + j] = t[i][j];
                }
            }
            let eig = try_jacobi_eigen(&dense, k)?;
            let theta = eig.values[0];
            let y = &eig.vectors[0];
            let mut x = vec![0.0f64; n];
            accumulate_scaled(y, &basis, &mut x);
            full_orthogonalize(&mut x, &[], &deflate);
            if normalize(&mut x) > 1e-12 {
                let mut mx = vec![0.0f64; n];
                meter.charge(1)?;
                op.apply(&x, &mut mx);
                matvecs += 1;
                axpy(-theta, &x, &mut mx);
                let resid = norm2(&mx);
                if best.as_ref().is_none_or(|(r, _)| resid < *r) {
                    best = Some((
                        resid,
                        EigenPair {
                            value: theta,
                            vector: x.clone(),
                        },
                    ));
                }
                if resid <= opts.base.tol * theta.abs().max(1.0) {
                    return Ok(best.expect("just set").1);
                }
            }

            if new_vectors.is_empty() || basis.len() + new_vectors.len() > max_vectors {
                break;
            }
            basis.extend(new_vectors);
        }

        // restart: best Ritz vector plus fresh random directions
        seed_block.clear();
        if let Some((_, pair)) = &best {
            seed_block.push(pair.vector.clone());
        }
        while seed_block.len() < p {
            seed_block.push((0..n).map(|_| rand()).collect());
        }
    }

    Err(EigenError::NoConvergence {
        iterations: matvecs,
        residual: best.map(|(r, _)| r).unwrap_or(f64::INFINITY),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::smallest_deflated;
    use np_sparse::{Laplacian, TripletBuilder};

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    fn path_laplacian(n: usize) -> Laplacian {
        let mut b = TripletBuilder::new(n);
        for i in 0..n - 1 {
            b.push_sym(i, i + 1, 1.0);
        }
        Laplacian::from_adjacency(b.into_csr())
    }

    #[test]
    fn agrees_with_single_vector_on_path() {
        let n = 100;
        let q = path_laplacian(n);
        let single = smallest_deflated(&q, &[ones(n)], &LanczosOptions::default()).unwrap();
        let block =
            smallest_deflated_block(&q, &[ones(n)], &BlockLanczosOptions::default()).unwrap();
        assert!(
            (single.value - block.value).abs() < 1e-6,
            "single {} vs block {}",
            single.value,
            block.value
        );
    }

    #[test]
    fn handles_clustered_eigenvalues() {
        // three weakly-coupled cliques: λ2 ≈ λ3, the classic block-Lanczos
        // motivation
        let n = 60;
        let mut b = TripletBuilder::new(n);
        for c in 0..3 {
            let base = c * 20;
            for i in 0..20 {
                for j in i + 1..20 {
                    b.push_sym(base + i, base + j, 1.0);
                }
            }
        }
        b.push_sym(0, 20, 1e-4);
        b.push_sym(20, 40, 1e-4);
        let q = Laplacian::from_adjacency(b.into_csr());
        let block = smallest_deflated_block(
            &q,
            &[ones(n)],
            &BlockLanczosOptions {
                block_size: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(block.value < 1e-3, "λ2 = {}", block.value);
        // residual verified by the solver itself; double-check here
        let mut y = vec![0.0; n];
        q.apply(&block.vector, &mut y);
        axpy(-block.value, &block.vector, &mut y);
        assert!(norm2(&y) < 1e-6);
    }

    #[test]
    fn block_size_one_matches_classic() {
        let n = 100;
        let q = path_laplacian(n);
        let classic = smallest_deflated(&q, &[ones(n)], &LanczosOptions::default()).unwrap();
        let block1 = smallest_deflated_block(
            &q,
            &[ones(n)],
            &BlockLanczosOptions {
                block_size: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((classic.value - block1.value).abs() < 1e-6);
    }

    #[test]
    fn small_instance_falls_back_to_dense() {
        let q = path_laplacian(8);
        let pair =
            smallest_deflated_block(&q, &[ones(8)], &BlockLanczosOptions::default()).unwrap();
        let expect = 2.0 - 2.0 * (std::f64::consts::PI / 8.0).cos();
        assert!((pair.value - expect).abs() < 1e-8);
    }

    #[test]
    fn deterministic() {
        let q = path_laplacian(120);
        let a = smallest_deflated_block(&q, &[ones(120)], &BlockLanczosOptions::default()).unwrap();
        let b = smallest_deflated_block(&q, &[ones(120)], &BlockLanczosOptions::default()).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.vector, b.vector);
    }

    #[test]
    fn deflating_everything_errors() {
        let q = path_laplacian(3);
        let deflate = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        assert!(matches!(
            smallest_deflated_block(&q, &deflate, &BlockLanczosOptions::default()),
            Err(EigenError::TooSmall { dim: 3 })
        ));
    }

    #[test]
    #[should_panic(expected = "block size must be at least 1")]
    fn zero_block_size_panics() {
        let q = path_laplacian(60);
        let _ = smallest_deflated_block(
            &q,
            &[ones(60)],
            &BlockLanczosOptions {
                block_size: 0,
                ..Default::default()
            },
        );
    }
}
