//! Hybrid pipelines combining the spectral partitioners with iterative
//! post-improvement — the §5 suggestion that "the ratio cuts so obtained
//! may optionally be improved by using standard iterative techniques".

use np_core::engine::stages::ig_match_fm_pipeline;
use np_core::engine::{Pipeline, RunContext, Stage};
use np_core::{IgMatchOptions, PartitionError, PartitionResult};
use np_netlist::Hypergraph;
use np_sparse::{Budget, BudgetMeter};

/// Options for [`ig_match_refined`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridOptions {
    /// Options for the spectral IG-Match stage.
    pub ig_match: IgMatchOptions,
    /// Upper bound on ratio-objective FM passes in the refinement stage.
    pub max_refine_passes: usize,
    /// Cooperative resource budget covering both pipeline stages: the
    /// eigensolve and split sweep check it inside IG-Match, and each
    /// refinement pass charges one unit. Defaults to
    /// [`Budget::UNLIMITED`].
    pub budget: Budget,
}

impl Default for HybridOptions {
    fn default() -> Self {
        HybridOptions {
            ig_match: IgMatchOptions::default(),
            max_refine_passes: 20,
            budget: Budget::UNLIMITED,
        }
    }
}

/// Runs IG-Match, then polishes the result with ratio-objective
/// Fiduccia–Mattheyses shifting passes. The refinement can only improve
/// the ratio cut, so the result is never worse than plain IG-Match — and
/// the pipeline stays fully deterministic (no random restarts anywhere).
///
/// Both stages share the single [`HybridOptions::budget`]; a budget that
/// trips during refinement aborts the whole run rather than returning the
/// unrefined partition, so callers see budget exhaustion uniformly (use
/// [`np_core::robust_partition`] when a best-effort answer is wanted).
///
/// # Errors
///
/// Propagates IG-Match failures
/// ([`PartitionError::TooSmall`] / [`Eigen`](PartitionError::Eigen) /
/// [`Degenerate`](PartitionError::Degenerate)) and surfaces budget
/// exhaustion from either stage as [`PartitionError::Budget`].
///
/// # Example
///
/// ```
/// use ig_match_repro::hybrid::{ig_match_refined, HybridOptions};
/// use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
/// use ig_match_repro::{ig_match, IgMatchOptions};
///
/// let hg = generate(&GeneratorConfig::new(150, 160, 5));
/// let plain = ig_match(&hg, &IgMatchOptions::default())?;
/// let hybrid = ig_match_refined(&hg, &HybridOptions::default())?;
/// assert!(hybrid.ratio() <= plain.result.ratio() + 1e-12);
/// # Ok::<(), ig_match_repro::PartitionError>(())
/// ```
pub fn ig_match_refined(
    hg: &Hypergraph,
    opts: &HybridOptions,
) -> Result<PartitionResult, PartitionError> {
    let meter = BudgetMeter::new(&opts.budget);
    ig_match_refined_ctx(hg, opts, &RunContext::with_meter(&meter))
}

/// [`ig_match_refined`] against an execution context — the single
/// implementation behind every entry point. The context's meter governs
/// both pipeline stages; [`HybridOptions::budget`] is *not* consulted
/// here (the plain entry point builds its context from it). An event
/// sink on the context sees both stages as `Started`/`Finished` events.
///
/// # Errors
///
/// Same as [`ig_match_refined`].
pub fn ig_match_refined_ctx(
    hg: &Hypergraph,
    opts: &HybridOptions,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    hybrid_pipeline(opts).run(hg, None, ctx)
}

/// The hybrid flow as declarative engine data: an IG-Match producer
/// feeding a ratio-refinement transformer. Exposed so callers can extend
/// the pipeline with further stages or embed it in a
/// [`FallbackChain`](np_core::engine::FallbackChain).
pub fn hybrid_pipeline(opts: &HybridOptions) -> Pipeline {
    ig_match_fm_pipeline(opts.ig_match, opts.max_refine_passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::ig_match;
    use np_netlist::generate::{generate, GeneratorConfig};
    use std::time::Duration;

    #[test]
    fn hybrid_never_worse_than_plain() {
        let hg = generate(&GeneratorConfig::new(220, 240, 9).with_satellite(0.1, 4));
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let hybrid = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        assert!(hybrid.ratio() <= plain.result.ratio() + 1e-12);
        assert_eq!(hybrid.stats, hybrid.partition.cut_stats(&hg));
        assert_eq!(hybrid.algorithm, "IG-Match+FM");
    }

    #[test]
    fn hybrid_deterministic() {
        let hg = generate(&GeneratorConfig::new(180, 190, 2));
        let a = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let b = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn zero_refine_passes_equals_plain() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let hybrid = ig_match_refined(
            &hg,
            &HybridOptions {
                max_refine_passes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(hybrid.partition, plain.result.partition);
    }

    #[test]
    fn exhausted_budget_surfaces_as_budget_error() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let err = ig_match_refined(
            &hg,
            &HybridOptions {
                budget: Budget::UNLIMITED.with_wall_clock(Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::Budget(_)), "{err}");
    }

    #[test]
    fn pipeline_form_matches_function_form() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let via_fn = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let via_pipeline = hybrid_pipeline(&HybridOptions::default())
            .run(&hg, None, &RunContext::unlimited())
            .unwrap();
        assert_eq!(via_fn.partition, via_pipeline.partition);
        assert_eq!(via_pipeline.algorithm, "IG-Match+FM");
    }

    #[test]
    fn generous_budget_matches_unlimited() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let unlimited = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let budgeted = ig_match_refined(
            &hg,
            &HybridOptions {
                budget: Budget::UNLIMITED.with_wall_clock(Duration::from_secs(600)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(unlimited.partition, budgeted.partition);
    }
}
