//! Kernel-floor micro-bench: the three single-core hot loops of the
//! workspace (CSR SpMV, fused Lanczos vecops, IG-Match sweep BFS),
//! timed criterion-free and emitting a JSON record
//! (`BENCH_kernels.json` by default). CI runs this in release mode to
//! track the kernel speed floor (DESIGN.md §16).
//!
//! Every fused vecops kernel is asserted **bit-identical** to its
//! straight-line reference before it is timed — a fast kernel that
//! drifts from the reference fails the binary, not just the benchmark.
//!
//! ```text
//! cargo run --release -p bench --bin kernels [-- OUT.json]
//! ```

use bench::{best_of, BenchEntry, BenchReport};
use np_core::igmatch::SweepState;
use np_core::models::{intersection_laplacian, intersection_neighbors, IgWeighting};
use np_sparse::vecops::{axpy, axpy2, orthogonalize_against, orthogonalize_fused};
use np_sparse::{CsrMatrix, LinearOperator, TripletBuilder};
use np_testkit::banded_hypergraph;
use std::hint::black_box;
use std::time::Duration;

/// Timed repetitions per case; the minimum is reported.
const RUNS: usize = 5;

/// SpMV instance size (1 MiB of `x`, past L2 on common hosts).
const SPMV_DIM: usize = 1 << 17;

/// Half-bandwidth of the SpMV band matrix (17 nonzeros per interior row).
const SPMV_BAND: usize = 8;

/// Matvecs per timed SpMV run.
const SPMV_REPS: usize = 20;

/// Dense-vector length for the vecops cases (plus reps per timed run).
const VEC_N: usize = 1 << 16;
const VEC_REPS: usize = 100;

/// Basis size for the orthogonalization case.
const BASIS_M: usize = 8;

/// Deterministic LCG-filled vector in `[-1, 1)`.
fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Symmetric band matrix with `band` off-diagonals per side.
fn band_matrix(n: usize, band: usize) -> CsrMatrix {
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, 2.0 + (i % 7) as f64);
        for d in 1..=band {
            if i + d < n {
                let w = 1.0 / d as f64;
                b.push(i, i + d, w);
                b.push(i + d, i, w);
            }
        }
    }
    b.into_csr()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let mut report = BenchReport::new("kernels");
    report.meta("kernel", "speed-floor");

    // --- CSR SpMV: netlist-like rows (17 nnz per interior row) ---------
    let x = rand_vec(1, SPMV_DIM);
    let m = band_matrix(SPMV_DIM, SPMV_BAND);
    let (_, spmv_wall) = best_of(RUNS, || {
        let mut out = vec![0.0; SPMV_DIM];
        for _ in 0..SPMV_REPS {
            m.apply(black_box(&x), &mut out);
        }
        black_box(out)
    });
    let spmv_ms = spmv_wall.as_secs_f64() * 1e3;
    println!("{:<16} n={SPMV_DIM:<8} wall {spmv_ms:>9.3} ms", "spmv_band");
    report.push(
        BenchEntry::new()
            .str("name", "spmv_band")
            .int("n", SPMV_DIM)
            .int("nnz", m.nnz())
            .fixed("wall_ms", spmv_ms)
            .rate("matvecs_per_sec", SPMV_REPS, spmv_wall),
    );

    // --- Laplacian apply: fused degree/gather loop --------------------
    let hg = banded_hypergraph(17, 6_000, 4_000, 12);
    let lap = intersection_laplacian(&hg, IgWeighting::Paper);
    let lx = rand_vec(2, lap.dim());
    let (_, lap_wall) = best_of(RUNS, || {
        let mut out = vec![0.0; lap.dim()];
        for _ in 0..SPMV_REPS {
            lap.apply(black_box(&lx), &mut out);
        }
        black_box(out)
    });
    report.push(
        BenchEntry::new()
            .str("name", "laplacian_apply")
            .int("n", lap.dim())
            .fixed("wall_ms", lap_wall.as_secs_f64() * 1e3)
            .rate("matvecs_per_sec", SPMV_REPS, lap_wall),
    );

    // --- Fused vecops vs straight-line references ---------------------
    let u = rand_vec(3, VEC_N);
    let v = rand_vec(4, VEC_N);
    let w = rand_vec(5, VEC_N);
    {
        // two axpys vs fused axpy2.
        let mut a = v.clone();
        axpy(0.37, &u, &mut a);
        axpy(-0.81, &w, &mut a);
        let mut b = v.clone();
        axpy2(0.37, &u, -0.81, &w, &mut b);
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "fused axpy2 is not bit-identical to two axpys"
        );
    }

    // --- Reorthogonalization: sequential sweep vs fused chain ---------
    let basis: Vec<Vec<f64>> = (0..BASIS_M)
        .map(|i| rand_vec(10 + i as u64, VEC_N))
        .collect();
    {
        let mut a = u.clone();
        for bvec in &basis {
            orthogonalize_against(bvec, &mut a);
        }
        let mut b = u.clone();
        orthogonalize_fused(&[&basis], &mut b);
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "fused orthogonalization is not bit-identical to the sequential sweep"
        );
    }
    let (_, seq) = best_of(RUNS, || {
        let mut y = u.clone();
        for _ in 0..VEC_REPS / 10 {
            for bvec in black_box(&basis) {
                orthogonalize_against(bvec, &mut y);
            }
        }
        black_box(y)
    });
    let (_, fused_orth) = best_of(RUNS, || {
        let mut y = u.clone();
        for _ in 0..VEC_REPS / 10 {
            orthogonalize_fused(&[black_box(&basis)], &mut y);
        }
        black_box(y)
    });
    push_pair(
        &mut report,
        "orthogonalize",
        VEC_N,
        "ops_per_sec",
        VEC_REPS / 10,
        seq,
        fused_orth,
    );

    // --- IG-Match sweep BFS: bitset + flattened adjacency -------------
    let sweep_hg = banded_hypergraph(17, 4_500, 3_000, 12);
    let neighbors = intersection_neighbors(&sweep_hg);
    let moves = sweep_hg.num_nets() - 1;
    let (_, sweep_wall) = best_of(RUNS, || {
        let mut state = SweepState::new(&sweep_hg, &neighbors);
        let mut last = 0usize;
        for v in 0..moves as u32 {
            last = state.advance(&sweep_hg, v).candidate().losers;
        }
        black_box(last)
    });
    report.push(
        BenchEntry::new()
            .str("name", "sweep_bfs")
            .int("n", sweep_hg.num_nets())
            .int("sweep_moves", moves)
            .fixed("wall_ms", sweep_wall.as_secs_f64() * 1e3)
            .rate("sweep_moves_per_sec", moves, sweep_wall),
    );

    report.write(&out_path);
}

/// Records a reference/optimized pair with the shared field shape.
fn push_pair(
    report: &mut BenchReport,
    name: &str,
    n: usize,
    rate_key: &str,
    count: usize,
    reference: Duration,
    optimized: Duration,
) {
    let ref_ms = reference.as_secs_f64() * 1e3;
    let opt_ms = optimized.as_secs_f64() * 1e3;
    let speedup = ref_ms / opt_ms.max(1e-9);
    println!(
        "{name:<16} n={n:<8} reference {ref_ms:>9.3} ms  optimized {opt_ms:>9.3} ms  \
         speedup {speedup:>5.2}x"
    );
    report.push(
        BenchEntry::new()
            .str("name", name)
            .int("n", n)
            .fixed("reference_ms", ref_ms)
            .fixed("optimized_ms", opt_ms)
            .rate(rate_key, count, optimized)
            .fixed("speedup", speedup),
    );
}
