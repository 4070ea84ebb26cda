//! Ready-made restart portfolios for the workspace's seed-sensitive
//! algorithms.
//!
//! Each helper builds a [`Portfolio`] of `n` single-run attempts whose
//! per-attempt seeds come from decorrelated [`derive_seed`] streams of
//! one base seed, so `best-of-n` under the runner reproduces the
//! *structure* of the baselines' internal restart loops (RCut1.0's
//! best-of-10, KL's best-of-4) while making every start independently
//! schedulable, cancellable and reportable.
//!
//! Note the seed streams differ from the internal loops' (which draw all
//! starts from one sequential PRNG), so cut values match the internal
//! loops statistically, not bit-for-bit.
//!
//! [`kway_methods`] is the k-way counterpart: the recursive-vs-direct
//! method race as a `Portfolio<BoxedKwayPartitioner>`.

use crate::{Portfolio, RandomStartFmStage};
use np_baselines::{FmOptions, KlOptions, RcutOptions};
use np_core::engine::stages::{KlStage, RcutStage};
use np_core::kway::{KwayDirectStage, KwayRecursiveStage};
use np_core::{BoxedKwayPartitioner, KwayOptions};
use np_multilevel::{MultilevelOptions, MultilevelStage};
use np_netlist::rng::derive_seed;

/// Best-of-`n` RCut1.0: `n` attempts of a single-run [`RcutStage`], with
/// attempt `i` seeded by `derive_seed(seed, i)`.
pub fn rcut_restarts(n: usize, seed: u64, base: &RcutOptions) -> Portfolio {
    let base = *base;
    Portfolio::new().restarts("RCut", n, |i| RcutStage {
        opts: RcutOptions {
            runs: 1,
            seed: derive_seed(seed, i as u64),
            ..base
        },
    })
}

/// Best-of-`n` Kernighan–Lin: `n` attempts of a single-run [`KlStage`],
/// with attempt `i` seeded by `derive_seed(seed, i)`.
pub fn kl_restarts(n: usize, seed: u64, base: &KlOptions) -> Portfolio {
    let base = *base;
    Portfolio::new().restarts("KL", n, |i| KlStage {
        opts: KlOptions {
            runs: 1,
            seed: derive_seed(seed, i as u64),
            ..base
        },
    })
}

/// Best-of-`n` multilevel V-cycle: `n` attempts of a [`MultilevelStage`]
/// whose coarsest-level Lanczos start is seeded by `derive_seed(seed,
/// i)`. Everything else about the V-cycle (matching, contraction,
/// refinement) is deterministic, so the attempts differ exactly in the
/// coarsest eigensolve — cheap diversity at the only stochastic point.
pub fn multilevel_restarts(n: usize, seed: u64, base: &MultilevelOptions) -> Portfolio {
    let base = *base;
    Portfolio::new().restarts("V-cycle", n, |i| {
        let mut opts = base;
        opts.ig_match.lanczos.seed = derive_seed(seed, i as u64);
        MultilevelStage::new(opts)
    })
}

/// Best-of-`n` Fiduccia–Mattheyses from random balanced starts. The
/// per-attempt randomness comes from the runner's own seed streams
/// ([`RandomStartFmStage`] draws from the attempt context), so this
/// portfolio needs no explicit seed here.
pub fn fm_restarts(n: usize, opts: &FmOptions) -> Portfolio {
    let opts = *opts;
    Portfolio::new().restarts("FM", n, |_| RandomStartFmStage { opts })
}

/// The standard k-way method race: one recursive-bisection attempt
/// (`"recursive"`) plus `direct_restarts` direct spectral attempts
/// (`"direct#i"`), direct attempt `i` seeded by `derive_seed(opts.seed,
/// i)`.
pub fn kway_methods(opts: &KwayOptions, direct_restarts: usize) -> Portfolio<BoxedKwayPartitioner> {
    Portfolio::new()
        .attempt("recursive", KwayRecursiveStage::new(opts.clone()))
        .restarts("direct", direct_restarts, |i| {
            KwayDirectStage::new(KwayOptions {
                seed: derive_seed(opts.seed, i as u64),
                ..opts.clone()
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_portfolio, PortfolioOptions};
    use np_netlist::hypergraph_from_nets;
    use np_sparse::BudgetMeter;

    fn ladder() -> np_netlist::Hypergraph {
        hypergraph_from_nets(
            8,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![4, 5],
                vec![5, 6],
                vec![6, 7],
                vec![0, 4],
                vec![3, 7],
            ],
        )
    }

    #[test]
    fn rcut_restarts_have_distinct_seeds_and_single_runs() {
        let p = rcut_restarts(4, 99, &RcutOptions::default());
        assert_eq!(p.len(), 4);
        assert_eq!(p.attempts()[0].label(), "RCut#0");
        assert_eq!(p.attempts()[3].label(), "RCut#3");
    }

    #[test]
    fn multilevel_restarts_vary_only_the_lanczos_seed() {
        let p = multilevel_restarts(3, 42, &MultilevelOptions::default());
        assert_eq!(p.len(), 3);
        assert_eq!(p.attempts()[0].label(), "V-cycle#0");
        assert_eq!(p.attempts()[2].label(), "V-cycle#2");
    }

    #[test]
    fn presets_run_end_to_end() {
        let hg = ladder();
        let opts = PortfolioOptions::default().with_threads(2).with_seed(5);
        for p in [
            rcut_restarts(3, 5, &RcutOptions::default()),
            kl_restarts(3, 5, &KlOptions::default()),
            fm_restarts(3, &FmOptions::default()),
            multilevel_restarts(3, 5, &MultilevelOptions::default()),
        ] {
            let out = run_portfolio(&hg, &p, &opts, &BudgetMeter::unlimited(), None).unwrap();
            assert_eq!(out.report.attempts.len(), 3);
            assert!(out.best.ratio().is_finite());
        }
    }
}
