//! RCut1.0 stand-in: ratio-cut optimization by iterative shifting and
//! group swapping with random restarts (Wei–Cheng \[32\]).
//!
//! The paper's headline comparison is against the RCut1.0 program, which
//! "uses an adaptation of the shifting and group swapping methods in \[7\]"
//! (i.e. Fiduccia–Mattheyses machinery re-targeted at the ratio-cut
//! objective) and reports the best of 10 runs from random starting
//! configurations. This module reproduces that recipe:
//!
//! 1. draw a random balanced bipartition;
//! 2. **shifting**: FM passes whose best-prefix rewind minimizes the
//!    *ratio cut* instead of the raw cut, with no balance window (the
//!    denominator penalizes lopsided partitions by itself) beyond
//!    forbidding an empty side;
//! 3. **group swapping**: passes whose tentative moves alternate sides,
//!    exploring pairwise exchanges the one-sided shifts cannot reach;
//! 4. repeat both until neither improves the ratio;
//! 5. keep the best result over `runs` seeds.

use crate::fm::{run_pass, run_swap_pass, PrefixObjective};
use np_netlist::partition::CutTracker;
use np_netlist::rng::Rng64;
use np_netlist::{Bipartition, CutStats, Hypergraph, ModuleId};
use np_sparse::{BudgetExceeded, BudgetMeter};

/// Options for [`rcut`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RcutOptions {
    /// Number of random starting configurations (the paper's comparisons
    /// use the best of 10).
    pub runs: usize,
    /// PRNG seed for the starting configurations.
    pub seed: u64,
    /// Upper bound on shifting passes per run.
    pub max_passes: usize,
}

impl Default for RcutOptions {
    fn default() -> Self {
        RcutOptions {
            runs: 10,
            seed: 0x8C47_1990,
            max_passes: 30,
        }
    }
}

/// Result of an RCut run.
#[derive(Clone, Debug, PartialEq)]
pub struct RcutResult {
    /// The best partition over all runs.
    pub partition: Bipartition,
    /// Cut statistics of `partition`.
    pub stats: CutStats,
    /// Which run (0-based) produced the winner.
    pub best_run: usize,
}

impl RcutResult {
    /// The ratio-cut value of the best partition.
    pub fn ratio(&self) -> f64 {
        self.stats.ratio()
    }
}

/// Optimizes the ratio cut of `hg` from `opts.runs` random starts and
/// returns the best result.
///
/// Deterministic for a fixed seed.
///
/// # Panics
///
/// Panics if `hg` has fewer than 2 modules or `opts.runs == 0`.
///
/// # Example
///
/// ```
/// use np_baselines::{rcut, RcutOptions};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let r = rcut(&hg, &RcutOptions::default());
/// assert_eq!(r.stats.cut_nets, 1);
/// ```
pub fn rcut(hg: &Hypergraph, opts: &RcutOptions) -> RcutResult {
    rcut_metered(hg, opts, &BudgetMeter::unlimited()).expect("unlimited budget cannot be exceeded")
}

/// Budget-aware variant of [`rcut`] — the single implementation behind
/// both entry points. Each shifting/swapping pass round charges one unit
/// against `meter`; with an unlimited meter the run is bit-identical to
/// [`rcut`].
///
/// # Errors
///
/// [`BudgetExceeded`] when `meter` trips mid-optimization; partial runs
/// are discarded (restart-based search has no meaningful partial result).
///
/// # Panics
///
/// Same structural panics as [`rcut`].
pub fn rcut_metered(
    hg: &Hypergraph,
    opts: &RcutOptions,
    meter: &BudgetMeter,
) -> Result<RcutResult, BudgetExceeded> {
    let n = hg.num_modules();
    assert!(n >= 2, "need at least 2 modules");
    assert!(opts.runs > 0, "need at least one run");
    let mut rng = Rng64::new(opts.seed);
    let mut best: Option<(f64, usize, Bipartition, CutStats)> = None;

    for run in 0..opts.runs {
        // random balanced start: shuffle and split in half
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let left = order[..n / 2].iter().copied().map(ModuleId);
        let start = Bipartition::from_left_set(n, left);

        let mut tracker = CutTracker::from_partition(hg, &start);
        for _ in 0..opts.max_passes {
            meter.charge(1)?;
            // one shifting pass, then one group-swapping pass; stop when
            // neither improves the ratio
            let shifted = run_pass(hg, &mut tracker, 1, n - 1, PrefixObjective::Ratio);
            let swapped = run_swap_pass(hg, &mut tracker, PrefixObjective::Ratio);
            if !shifted && !swapped {
                break;
            }
        }
        let stats = tracker.stats();
        let ratio = stats.ratio();
        if best.as_ref().is_none_or(|(r, ..)| ratio < *r) {
            best = Some((ratio, run, tracker.to_partition(), stats));
        }
    }

    let (_, best_run, partition, stats) = best.expect("runs > 0");
    Ok(RcutResult {
        partition,
        stats,
        best_run,
    })
}

/// Like [`rcut`], but optimizes the *area-weighted* ratio cut
/// `cut / (area(U) · area(W))` — the objective the original RCut1.0
/// program used, which the paper's spectral methods cannot (§4).
///
/// # Panics
///
/// Panics if sizes disagree, `hg` has fewer than 2 modules, or
/// `opts.runs == 0`.
///
/// # Example
///
/// ```
/// use np_baselines::rcut::rcut_with_areas;
/// use np_baselines::RcutOptions;
/// use np_netlist::areas::ModuleAreas;
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let areas = ModuleAreas::new(vec![8.0, 1.0, 1.0, 1.0]);
/// let r = rcut_with_areas(&hg, &areas, &RcutOptions::default());
/// // the heavy module is worth isolating: areas 8:3 at cut 1
/// assert_eq!(r.stats.cut_nets, 1);
/// ```
pub fn rcut_with_areas(
    hg: &Hypergraph,
    areas: &np_netlist::areas::ModuleAreas,
    opts: &RcutOptions,
) -> AreaRcutResult {
    let n = hg.num_modules();
    assert!(n >= 2, "need at least 2 modules");
    assert!(opts.runs > 0, "need at least one run");
    assert_eq!(areas.len(), n, "area vector size mismatch");
    let mut rng = Rng64::new(opts.seed);
    let mut best: Option<(f64, usize, Bipartition)> = None;
    for run in 0..opts.runs {
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let left = order[..n / 2].iter().copied().map(ModuleId);
        let start = Bipartition::from_left_set(n, left);
        let mut tracker = CutTracker::from_partition(hg, &start);
        tracker.set_areas(areas);
        for _ in 0..opts.max_passes {
            let shifted = run_pass(hg, &mut tracker, 1, n - 1, PrefixObjective::AreaRatio);
            let swapped = run_swap_pass(hg, &mut tracker, PrefixObjective::AreaRatio);
            if !shifted && !swapped {
                break;
            }
        }
        let ratio = tracker.area_ratio();
        if best.as_ref().is_none_or(|(r, ..)| ratio < *r) {
            best = Some((ratio, run, tracker.to_partition()));
        }
    }
    let (_, best_run, partition) = best.expect("runs > 0");
    let stats = np_netlist::areas::area_cut_stats(hg, &partition, areas);
    AreaRcutResult {
        partition,
        stats,
        best_run,
    }
}

/// Result of an area-weighted RCut run.
#[derive(Clone, Debug, PartialEq)]
pub struct AreaRcutResult {
    /// The best partition over all runs.
    pub partition: Bipartition,
    /// Area-weighted cut statistics of `partition`.
    pub stats: np_netlist::areas::AreaCutStats,
    /// Which run (0-based) produced the winner.
    pub best_run: usize,
}

/// Improves an existing partition with ratio-objective shifting passes
/// (no restarts) — the "standard iterative techniques" post-processing the
/// paper suggests for spectral output (§5). Returns the improved partition
/// and its statistics; the result is never worse than the input.
///
/// Each shifting pass charges one unit against `meter` (the same
/// accounting unit as an eigensolver matrix–vector product), so
/// wall-clock and work budgets are enforced between passes. On exhaustion
/// the passes completed so far are simply discarded by the caller —
/// refinement is optional polish, so partial progress need not be
/// surfaced.
///
/// # Errors
///
/// [`BudgetExceeded`] when `meter` trips before `max_passes` passes have
/// run.
///
/// # Panics
///
/// Panics if `initial.len() != hg.num_modules()` or the netlist has fewer
/// than 2 modules.
///
/// # Example
///
/// ```
/// use np_baselines::rcut::refine_ratio_cut_metered;
/// use np_netlist::{hypergraph_from_nets, Bipartition, ModuleId};
/// use np_sparse::BudgetMeter;
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let rough = Bipartition::from_left_set(4, [ModuleId(0), ModuleId(2)]);
/// let (improved, stats) =
///     refine_ratio_cut_metered(&hg, &rough, 10, &BudgetMeter::unlimited()).unwrap();
/// assert!(stats.ratio() <= rough.ratio_cut(&hg));
/// assert_eq!(stats, improved.cut_stats(&hg));
/// ```
pub fn refine_ratio_cut_metered(
    hg: &Hypergraph,
    initial: &Bipartition,
    max_passes: usize,
    meter: &BudgetMeter,
) -> Result<(Bipartition, CutStats), BudgetExceeded> {
    let n = hg.num_modules();
    assert!(n >= 2, "need at least 2 modules");
    assert_eq!(initial.len(), n, "partition size mismatch");
    let mut tracker = CutTracker::from_partition(hg, initial);
    for _ in 0..max_passes {
        meter.charge(1)?;
        if !run_pass(hg, &mut tracker, 1, n - 1, PrefixObjective::Ratio) {
            break;
        }
    }
    let stats = tracker.stats();
    Ok((tracker.to_partition(), stats))
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
    fn finds_natural_ratio_cut() {
        let r = rcut(&two_triangles(), &RcutOptions::default());
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.stats.areas(), "3:3");
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = two_triangles();
        let a = rcut(&hg, &RcutOptions::default());
        let b = rcut(&hg, &RcutOptions::default());
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.best_run, b.best_run);
    }

    #[test]
    fn more_runs_never_hurt() {
        let hg = two_triangles();
        let few = rcut(
            &hg,
            &RcutOptions {
                runs: 1,
                ..Default::default()
            },
        );
        let many = rcut(
            &hg,
            &RcutOptions {
                runs: 10,
                ..Default::default()
            },
        );
        assert!(many.ratio() <= few.ratio() + 1e-12);
    }

    #[test]
    fn unbalanced_natural_cut_allowed() {
        // satellite: 2 modules attached to a 6-clique by one net — the
        // ratio objective should prefer the 2:6 split over bisection
        let mut nets: Vec<Vec<u32>> = Vec::new();
        for i in 2..8u32 {
            for j in i + 1..8 {
                nets.push(vec![i, j]);
            }
        }
        nets.push(vec![0, 1]);
        nets.push(vec![1, 2]);
        let hg = hypergraph_from_nets(8, &nets);
        let r = rcut(&hg, &RcutOptions::default());
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.stats.areas(), "2:6");
    }

    #[test]
    fn stats_match_partition() {
        let hg = two_triangles();
        let r = rcut(&hg, &RcutOptions::default());
        assert_eq!(r.stats, r.partition.cut_stats(&hg));
    }

    #[test]
    fn two_module_instance() {
        let hg = hypergraph_from_nets(2, &[vec![0, 1]]);
        let r = rcut(&hg, &RcutOptions::default());
        assert_eq!(r.stats.left + r.stats.right, 2);
        assert_eq!(r.stats.cut_nets, 1); // the only split cuts the net
    }

    #[test]
    fn refine_never_worsens_random_partitions() {
        let hg = two_triangles();
        let mut rng = np_netlist::rng::Rng64::new(42);
        for _ in 0..20 {
            let left = (0..6u32).filter(|_| rng.gen_bool(0.5)).map(ModuleId);
            let p = Bipartition::from_left_set(6, left);
            let before = p.ratio_cut(&hg);
            let (_, stats) =
                refine_ratio_cut_metered(&hg, &p, 10, &BudgetMeter::unlimited()).unwrap();
            assert!(stats.ratio() <= before + 1e-12);
        }
    }

    #[test]
    fn refine_reaches_local_optimum() {
        let hg = two_triangles();
        let p = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(3)]);
        let (improved, stats) =
            refine_ratio_cut_metered(&hg, &p, 20, &BudgetMeter::unlimited()).unwrap();
        assert_eq!(stats.cut_nets, 1);
        assert_eq!(improved.cut_stats(&hg), stats);
    }

    #[test]
    fn metered_unlimited_matches_plain() {
        let hg = two_triangles();
        let plain = rcut(&hg, &RcutOptions::default());
        let metered =
            rcut_metered(&hg, &RcutOptions::default(), &BudgetMeter::unlimited()).unwrap();
        assert_eq!(plain, metered);
    }

    #[test]
    fn metered_exhaustion_surfaces() {
        let hg = two_triangles();
        let budget = np_sparse::Budget::default().with_matvecs(1);
        let meter = BudgetMeter::new(&budget);
        assert!(rcut_metered(&hg, &RcutOptions::default(), &meter).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        rcut(
            &two_triangles(),
            &RcutOptions {
                runs: 0,
                ..Default::default()
            },
        );
    }
}
