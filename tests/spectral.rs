//! Serial-vs-parallel equivalence suite for the sharded spectral kernels.
//!
//! The determinism contract (`DESIGN.md` §10) promises that the
//! `--threads` knob trades wall-clock only: graph builds, eigenpairs,
//! orderings and metered spend are **bit-identical** for every thread
//! count, and operators served from a shared [`OperatorCache`] are
//! indistinguishable from fresh builds. This suite enforces the contract
//! end-to-end at `threads ∈ {1, 2, 8}`, and property-checks the model
//! builders on degenerate netlists (single-pin and duplicate-pin nets).
//!
//! CI runs this file in release mode with `RUST_TEST_THREADS=1` so the
//! kernels' own thread pools are the only parallelism in play.

use ig_match_repro::core::engine::{OperatorCache, RunContext};
use ig_match_repro::core::models::clique::{
    bound_preserving_adjacency, bound_preserving_adjacency_threaded,
};
use ig_match_repro::core::models::{
    clique_adjacency, clique_adjacency_threaded, intersection_adjacency,
    intersection_adjacency_threaded,
};
use ig_match_repro::core::ordering::{spectral_module_ordering_ctx, spectral_net_ordering_ctx};
use ig_match_repro::core::IgWeighting;
use ig_match_repro::eigen::{fiedler, LanczosOptions};
use ig_match_repro::netlist::generate::mcnc_benchmark;
use ig_match_repro::sparse::{shard_ranges, vecops, BudgetMeter, Laplacian, LinearOperator as _};
use np_testkit::{check_cases, degenerate_hypergraph};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn model_builders_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let clique = clique_adjacency(&hg);
    let bound = bound_preserving_adjacency(&hg);
    for threads in THREAD_COUNTS {
        assert_eq!(clique, clique_adjacency_threaded(&hg, threads));
        assert_eq!(bound, bound_preserving_adjacency_threaded(&hg, threads));
        for weighting in IgWeighting::ALL {
            assert_eq!(
                intersection_adjacency(&hg, weighting),
                intersection_adjacency_threaded(&hg, weighting, threads),
                "intersection graph differs at {threads} threads ({weighting:?})"
            );
        }
    }
}

#[test]
fn eigenpairs_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let lap = Laplacian::from_adjacency(clique_adjacency(&hg));
    let opts = LanczosOptions::default();
    let baseline = fiedler(&lap.threaded(1), &opts).expect("serial solve");
    for threads in THREAD_COUNTS {
        let pair = fiedler(&lap.threaded(threads), &opts).expect("threaded solve");
        assert_eq!(
            baseline.value.to_bits(),
            pair.value.to_bits(),
            "eigenvalue differs at {threads} threads"
        );
        assert_eq!(
            baseline.vector, pair.vector,
            "vector differs at {threads} threads"
        );
    }
}

#[test]
fn orderings_and_metered_spend_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let opts = LanczosOptions::default();
    let mut baseline = None;
    for threads in THREAD_COUNTS {
        let meter = BudgetMeter::unlimited();
        let ctx = RunContext::with_meter(&meter).with_threads(threads);
        let modules = spectral_module_ordering_ctx(&hg, &opts, &ctx).expect("module ordering");
        let nets =
            spectral_net_ordering_ctx(&hg, IgWeighting::Paper, &opts, &ctx).expect("net ordering");
        let spend = meter.matvecs_used();
        match &baseline {
            None => baseline = Some((modules, nets, spend)),
            Some((m, n, s)) => {
                assert_eq!(m, &modules, "module ordering differs at {threads} threads");
                assert_eq!(n, &nets, "net ordering differs at {threads} threads");
                assert_eq!(*s, spend, "metered spend differs at {threads} threads");
            }
        }
    }
}

#[test]
fn shared_operator_cache_matches_fresh_builds() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let opts = LanczosOptions::default();
    let fresh =
        spectral_module_ordering_ctx(&hg, &opts, &RunContext::unlimited()).expect("fresh ordering");
    let cache = Arc::new(OperatorCache::new());
    for threads in THREAD_COUNTS {
        let ctx = RunContext::unlimited()
            .with_operator_cache(Arc::clone(&cache))
            .with_threads(threads);
        let cached = spectral_module_ordering_ctx(&hg, &opts, &ctx).expect("cached ordering");
        assert_eq!(
            fresh, cached,
            "cache changed the ordering at {threads} threads"
        );
    }
    // Every context above was served the same operator instance.
    assert!(Arc::ptr_eq(
        &cache.clique_laplacian(&hg, 1),
        &cache.clique_laplacian(&hg, 8),
    ));
}

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

#[test]
fn sharded_spmv_bit_identical_to_reference_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let a = clique_adjacency(&hg);
    let lap = Laplacian::from_adjacency(a.clone());
    let n = a.dim();
    let x = rand_vec(0xB10C, n);
    // Reference: one ascending single-accumulator pass per row, spelled
    // out here so the kernels are checked against an independent loop.
    let gather: Vec<f64> = (0..n)
        .map(|r| {
            let (cols, vals) = a.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            acc
        })
        .collect();
    let lap_reference: Vec<f64> = (0..n)
        .map(|r| lap.degrees()[r] * x[r] - gather[r])
        .collect();
    let same_bits = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(p, q)| p.to_bits() == q.to_bits());
    // Row-sharded application (the threaded operators' shape) agrees at
    // every thread count.
    for threads in THREAD_COUNTS {
        let mut out = vec![f64::NAN; n];
        let mut lap_out = vec![f64::NAN; n];
        for (lo, hi) in shard_ranges(n, threads) {
            a.apply_rows(lo, &x, &mut out[lo..hi]);
            lap.apply_rows(lo, &x, &mut lap_out[lo..hi]);
        }
        assert!(
            same_bits(&gather, &out),
            "sharded SpMV differs at {threads} threads"
        );
        assert!(
            same_bits(&lap_reference, &lap_out),
            "sharded Laplacian apply differs at {threads} threads"
        );
    }
}

#[test]
fn fused_vecops_match_unfused_on_random_and_degenerate_vectors() {
    // Random vectors of awkward lengths plus degenerate shapes: empty,
    // singleton, all zeros, all negative zeros, constant.
    let mut cases: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = [0usize, 1, 3, 64, 257, 1000]
        .iter()
        .map(|&n| (rand_vec(1, n), rand_vec(2, n), rand_vec(3, n)))
        .collect();
    cases.push((vec![0.0; 65], vec![0.0; 65], vec![0.0; 65]));
    cases.push((vec![-0.0; 65], vec![-0.0; 65], vec![-0.0; 65]));
    cases.push((vec![1.25; 33], vec![-2.5; 33], vec![0.5; 33]));
    for (x, y, z) in &cases {
        let n = x.len();
        // two axpys vs fused axpy2.
        let mut plain = y.clone();
        vecops::axpy(0.37, x, &mut plain);
        vecops::axpy(-0.81, z, &mut plain);
        let mut fused = y.clone();
        vecops::axpy2(0.37, x, -0.81, z, &mut fused);
        assert!(
            plain
                .iter()
                .zip(&fused)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "axpy2 at n={n}"
        );
        // sequential projection sweep vs fused chain.
        let basis = vec![x.clone(), z.clone()];
        let mut plain = y.clone();
        for b in &basis {
            vecops::orthogonalize_against(b, &mut plain);
        }
        let mut fused = y.clone();
        vecops::orthogonalize_fused(&[&basis], &mut fused);
        assert!(
            plain
                .iter()
                .zip(&fused)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "orthogonalize_fused at n={n}"
        );
    }
}

#[test]
fn model_builders_finite_and_symmetric_on_degenerate_netlists() {
    check_cases(48, 0x57EC, |g| {
        let hg = degenerate_hypergraph(g);
        let mut graphs = vec![
            ("clique", clique_adjacency(&hg)),
            ("bound-preserving", bound_preserving_adjacency(&hg)),
        ];
        for weighting in IgWeighting::ALL {
            graphs.push(("intersection", intersection_adjacency(&hg, weighting)));
        }
        for (name, a) in &graphs {
            assert!(a.is_symmetric(0.0), "{name} adjacency not symmetric");
            for r in 0..a.dim() {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert!(v.is_finite(), "{name} weight not finite at ({r},{c})");
                    assert_ne!(c as usize, r, "{name} has a diagonal entry at {r}");
                }
            }
        }
        // Threaded builds agree with serial even on degenerate inputs.
        for threads in [2, 8] {
            assert_eq!(graphs[0].1, clique_adjacency_threaded(&hg, threads));
            assert_eq!(
                intersection_adjacency(&hg, IgWeighting::Paper),
                intersection_adjacency_threaded(&hg, IgWeighting::Paper, threads)
            );
        }
    });
}
