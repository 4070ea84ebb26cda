//! The IG-Vote (EIG1-IG) heuristic of Hagen–Kahng \[14\]
//! (paper Appendix B).
//!
//! Given the spectral net ordering, modules are assigned to sides by a
//! *voting* rule: each net exerts weight `1/|net|` on each of its modules.
//! Starting with every module in `U`, nets are shifted one by one to `W`
//! in eigenvector order; a module follows to `W` once at least half of its
//! total incident net weight has shifted. The ratio cut is recorded after
//! every net move, a second symmetric pass runs from the other end of the
//! ordering, and the best of the up-to-`2(m−1)` candidate partitions wins.

use crate::engine::RunContext;
use crate::models::IgWeighting;
use crate::ordering::spectral_net_ordering_ctx;
use crate::{PartitionError, PartitionResult};
use np_eigen::LanczosOptions;
use np_netlist::partition::CutTracker;
use np_netlist::{Hypergraph, NetId, Side};
use np_sparse::BudgetMeter;

/// Options for [`ig_vote`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IgVoteOptions {
    /// Intersection-graph edge weighting used for the spectral ordering.
    pub weighting: IgWeighting,
    /// Eigensolver options.
    pub lanczos: LanczosOptions,
    /// Fraction of a module's total net weight that must shift before the
    /// module follows (Appendix B uses `0.5`). Must be in `(0, 1]`.
    pub threshold: f64,
}

impl Default for IgVoteOptions {
    fn default() -> Self {
        IgVoteOptions {
            weighting: IgWeighting::default(),
            lanczos: LanczosOptions::default(),
            threshold: 0.5,
        }
    }
}

/// Runs the IG-Vote heuristic.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] for fewer than 2 modules or nets;
/// * [`PartitionError::Eigen`] if the eigensolve fails;
/// * [`PartitionError::Degenerate`] if no candidate partition has two
///   non-empty sides.
///
/// # Example
///
/// ```
/// use np_core::{ig_vote, IgVoteOptions};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let r = ig_vote(&hg, &IgVoteOptions::default())?;
/// assert_eq!(r.stats.cut_nets, 1);
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn ig_vote(hg: &Hypergraph, opts: &IgVoteOptions) -> Result<PartitionResult, PartitionError> {
    ig_vote_ctx(hg, opts, &RunContext::unlimited())
}

/// [`ig_vote`] against an execution context — the single implementation
/// behind every entry point. The eigensolve charges the context's meter
/// per matvec and the voting passes check its wall clock at every net
/// step.
///
/// # Errors
///
/// The [`ig_vote`] errors plus [`PartitionError::Budget`] when the
/// context's meter reports a limit hit.
///
/// # Panics
///
/// Panics if `opts.threshold` is outside `(0, 1]`.
pub fn ig_vote_ctx(
    hg: &Hypergraph,
    opts: &IgVoteOptions,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    if hg.num_modules() < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: hg.num_nets(),
        });
    }
    assert!(
        opts.threshold > 0.0 && opts.threshold <= 1.0,
        "voting threshold must be in (0, 1]"
    );
    let order = spectral_net_ordering_ctx(hg, opts.weighting, &opts.lanczos, ctx)?;
    vote_with_ordering_threshold_ctx(hg, &order, opts.threshold, ctx)
}

/// Runs the IG-Vote module-assignment given an explicit net ordering and
/// voting threshold (fraction of a module's incident net weight that must
/// shift before it moves), against an execution context — the single
/// implementation behind every entry point, exposed so the voting rule
/// can be studied with non-spectral orderings. The voting passes check
/// the context meter's wall clock at every net step.
///
/// # Errors
///
/// [`PartitionError::Degenerate`] if no candidate partition has two
/// non-empty sides; [`PartitionError::Budget`] when the context's meter
/// reports a limit hit.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the nets of `hg`.
pub fn vote_with_ordering_threshold_ctx(
    hg: &Hypergraph,
    order: &[NetId],
    threshold: f64,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    assert_eq!(order.len(), hg.num_nets(), "net ordering length mismatch");
    let meter = ctx.meter();

    // total incident net weight per module: w_i = Σ_{nets j ∋ i} 1/|s_j|
    let mut total_weight = vec![0.0f64; hg.num_modules()];
    for net in hg.nets() {
        let w = 1.0 / hg.net_size(net) as f64;
        for &m in hg.pins(net) {
            total_weight[m.index()] += w;
        }
    }

    // each pass returns (best ratio, best step index); the partition is
    // rebuilt afterwards by replaying the winning pass
    let forward = vote_pass(hg, order, &total_weight, threshold, false, meter)?;
    let backward = vote_pass(hg, order, &total_weight, threshold, true, meter)?;

    let (reverse, step) = match (forward, backward) {
        (Some((fr, fs)), Some((br, bs))) => {
            if fr <= br {
                (false, fs)
            } else {
                (true, bs)
            }
        }
        (Some((_, fs)), None) => (false, fs),
        (None, Some((_, bs))) => (true, bs),
        (None, None) => return Err(PartitionError::Degenerate),
    };
    let partition = replay_vote(hg, order, &total_weight, threshold, reverse, step);
    Ok(PartitionResult::evaluate(
        hg,
        partition,
        "IG-Vote",
        Some(step),
    ))
}

/// One voting pass. Returns the best `(ratio, step)` over all net moves,
/// or `None` if every candidate had an empty side. `reverse = true` runs
/// from the other end of the ordering (all modules start in `W`). The
/// meter's wall clock is checked at every net step.
fn vote_pass(
    hg: &Hypergraph,
    order: &[NetId],
    total_weight: &[f64],
    threshold: f64,
    reverse: bool,
    meter: &BudgetMeter,
) -> Result<Option<(f64, usize)>, PartitionError> {
    let start = if reverse { Side::Right } else { Side::Left };
    let dest = start.flip();
    let mut tracker = CutTracker::all_on(hg, start);
    let mut moved_weight = vec![0.0f64; hg.num_modules()];
    let mut best: Option<(f64, usize)> = None;
    for (step, &net) in iter_order(order, reverse).enumerate() {
        meter.check()?;
        let w = 1.0 / hg.net_size(net) as f64;
        for &m in hg.pins(net) {
            moved_weight[m.index()] += w;
            if tracker.side(m) == start
                && moved_weight[m.index()] >= total_weight[m.index()] * threshold
            {
                tracker.move_module(m, dest);
            }
        }
        let ratio = tracker.ratio();
        if ratio.is_finite() && best.is_none_or(|(r, _)| ratio < r) {
            best = Some((ratio, step));
        }
    }
    Ok(best)
}

/// Re-runs a voting pass up to and including `stop_step` and returns the
/// resulting partition. Replays only what a (metered) [`vote_pass`]
/// already completed, so it needs no meter of its own.
fn replay_vote(
    hg: &Hypergraph,
    order: &[NetId],
    total_weight: &[f64],
    threshold: f64,
    reverse: bool,
    stop_step: usize,
) -> np_netlist::Bipartition {
    let start = if reverse { Side::Right } else { Side::Left };
    let dest = start.flip();
    let mut tracker = CutTracker::all_on(hg, start);
    let mut moved_weight = vec![0.0f64; hg.num_modules()];
    for (step, &net) in iter_order(order, reverse).enumerate() {
        let w = 1.0 / hg.net_size(net) as f64;
        for &m in hg.pins(net) {
            moved_weight[m.index()] += w;
            if tracker.side(m) == start
                && moved_weight[m.index()] >= total_weight[m.index()] * threshold
            {
                tracker.move_module(m, dest);
            }
        }
        if step == stop_step {
            break;
        }
    }
    tracker.to_partition()
}

fn iter_order(order: &[NetId], reverse: bool) -> Box<dyn Iterator<Item = &NetId> + '_> {
    if reverse {
        Box::new(order.iter().rev())
    } else {
        Box::new(order.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    fn two_triangles() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![0, 2],
                vec![3, 4],
                vec![4, 5],
                vec![3, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn finds_bridge_cut_with_spectral_ordering() {
        let r = ig_vote(&two_triangles(), &IgVoteOptions::default()).unwrap();
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.stats.areas(), "3:3");
        assert_eq!(r.algorithm, "IG-Vote");
    }

    #[test]
    fn explicit_good_ordering_works() {
        let hg = two_triangles();
        // cluster-A nets first, bridge in the middle, cluster-B nets last
        let order: Vec<NetId> = [0u32, 1, 2, 6, 3, 4, 5].iter().map(|&i| NetId(i)).collect();
        let r =
            vote_with_ordering_threshold_ctx(&hg, &order, 0.5, &RunContext::unlimited()).unwrap();
        assert_eq!(r.stats.cut_nets, 1);
    }

    #[test]
    fn result_stats_match_partition() {
        let hg = two_triangles();
        let r = ig_vote(&hg, &IgVoteOptions::default()).unwrap();
        assert_eq!(r.stats, r.partition.cut_stats(&hg));
    }

    #[test]
    fn voting_threshold_moves_module_at_half_weight() {
        // module 1 is in nets {0,1} and {1,2}; moving net {0,1} shifts
        // half of its weight, which meets the ≥ w/2 threshold
        let hg = hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
        let order: Vec<NetId> = vec![NetId(0), NetId(1)];
        let r =
            vote_with_ordering_threshold_ctx(&hg, &order, 0.5, &RunContext::unlimited()).unwrap();
        // after net 0 moves: modules {0,1} moved -> partition {0,1}|{2}
        // with cut 1, ratio 1/2; the sweep can't do better on this chain
        assert_eq!(r.stats.cut_nets, 1);
    }

    #[test]
    fn single_net_instance_degenerate() {
        // one net covering all modules: every candidate has an empty side
        let hg = hypergraph_from_nets(3, &[vec![0, 1, 2]]);
        let order = vec![NetId(0)];
        assert!(matches!(
            vote_with_ordering_threshold_ctx(&hg, &order, 0.5, &RunContext::unlimited()),
            Err(PartitionError::Degenerate)
        ));
    }

    #[test]
    fn deterministic() {
        let hg = two_triangles();
        let a = ig_vote(&hg, &IgVoteOptions::default()).unwrap();
        let b = ig_vote(&hg, &IgVoteOptions::default()).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn threshold_parameter_changes_behavior_but_stays_valid() {
        let hg = two_triangles();
        for threshold in [0.25, 0.5, 0.75, 1.0] {
            let opts = IgVoteOptions {
                threshold,
                ..Default::default()
            };
            let r = ig_vote(&hg, &opts).unwrap();
            let s = r.partition.cut_stats(&hg);
            assert!(s.left > 0 && s.right > 0, "threshold {threshold}");
            assert_eq!(s, r.stats);
        }
    }

    #[test]
    #[should_panic(expected = "voting threshold")]
    fn bad_threshold_panics() {
        let _ = ig_vote(
            &two_triangles(),
            &IgVoteOptions {
                threshold: 0.0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn ctx_matches_plain_and_trips_on_zero_clock() {
        use np_sparse::Budget;
        use std::time::Duration;
        let hg = two_triangles();
        let plain = ig_vote(&hg, &IgVoteOptions::default()).unwrap();
        let via_ctx =
            ig_vote_ctx(&hg, &IgVoteOptions::default(), &RunContext::unlimited()).unwrap();
        assert_eq!(plain.partition, via_ctx.partition);
        let tight = RunContext::with_budget(&Budget::default().with_wall_clock(Duration::ZERO));
        assert!(matches!(
            ig_vote_ctx(&hg, &IgVoteOptions::default(), &tight),
            Err(PartitionError::Budget(_))
        ));
    }

    #[test]
    fn all_weightings_work() {
        let hg = two_triangles();
        for w in IgWeighting::ALL {
            let opts = IgVoteOptions {
                weighting: w,
                ..Default::default()
            };
            let r = ig_vote(&hg, &opts).unwrap();
            assert_eq!(r.stats.cut_nets, 1, "weighting {}", w.name());
        }
    }
}
