//! Sweep benchmark: from-scratch vs incremental IG-Match sweep, emitting
//! a JSON record (`BENCH_sweep.json` by default) with wall times, moves
//! per second and the classifier's work counter per instance. CI runs
//! this to track the delta-maintenance win (DESIGN.md §11); two contracts
//! are asserted inline:
//!
//! * **determinism** — on every rung up to 5k modules, and on every band
//!   rung, both sweeps must agree bit-for-bit on the best ratio, the
//!   winning split rank, the matching size and the loser count at the
//!   winner;
//! * **output-sensitive classification** — the classifier's nets visited
//!   per move on the connected 20k rung must stay within 2× of the 5k
//!   rung. The counter is deterministic, so the gate has no timing noise,
//!   and a classifier that re-floods whole `B`-components per move fails
//!   it.
//!
//! Two instance families:
//!
//! * **connected** — the nine suite circuits and `generate()` netlists of
//!   5k/10k/20k modules (1.12 nets per module), swept in their spectral
//!   net order as IG-Match sweeps them;
//! * **band (fragmented control)** — `np_testkit::banded_hypergraph` in
//!   its natural net order, which keeps every move local but leaves the
//!   hypergraph fragmented (cut 0). Kept as a control, not as evidence.
//!
//! ```text
//! cargo run --release -p bench --bin sweep [-- OUT.json]
//! ```

use bench::{best_of, suite, BenchEntry, BenchReport};
use np_core::igmatch::{
    CompletionOracle, IgMatchOptions, MoveDelta, NetClassifier, SplitClassification, SplitMatcher,
    SweepState,
};
use np_core::models::intersection_neighbors;
use np_core::ordering::spectral_net_ordering;
use np_netlist::generate::{generate, GeneratorConfig};
use np_netlist::Hypergraph;
use np_testkit::banded_hypergraph;

/// Timed repetitions per configuration; the minimum is reported.
const RUNS: usize = 3;

/// Largest connected rung (in modules) that also runs the
/// `O(m)`-per-split from-scratch arm; band rungs always run it.
const FROM_SCRATCH_MAX_MODULES: usize = 5_000;

/// `(name, seed, modules, nets, band)` — the fragmented control family.
const BAND: [(&str, u64, usize, usize, usize); 3] = [
    ("band-S", 17, 1_500, 1_000, 8),
    ("band-M", 17, 4_500, 3_000, 12),
    ("band-L", 17, 12_000, 8_000, 16),
];

/// `(name, modules)` of the connected `generate()` ladder (seed 1).
const CONNECTED: [(&str, usize); 3] = [
    ("connected-5k", 5_000),
    ("connected-10k", 10_000),
    ("connected-20k", 20_000),
];

/// What both sweep arms must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Winner {
    ratio_bits: u64,
    split_rank: usize,
    matching_size: usize,
    loser_count: usize,
}

/// Keeps the best (lowest finite ratio) split seen so far.
fn consider(best: &mut Option<Winner>, ratio: f64, split_rank: usize, mm: usize, losers: usize) {
    if ratio.is_finite()
        && best
            .as_ref()
            .is_none_or(|b| ratio < f64::from_bits(b.ratio_bits))
    {
        *best = Some(Winner {
            ratio_bits: ratio.to_bits(),
            split_rank,
            matching_size: mm,
            loser_count: losers,
        });
    }
}

/// The seed implementation: full alternating-BFS classification plus an
/// `O(pins)` oracle evaluation at every split.
fn from_scratch_sweep(hg: &Hypergraph, neighbors: &[Vec<u32>], order: &[u32]) -> Winner {
    let mut matcher = SplitMatcher::new(neighbors);
    let mut class = SplitClassification::default();
    let mut oracle = CompletionOracle::new(hg);
    let mut best = None;
    for (k, &v) in order[..order.len() - 1].iter().enumerate() {
        matcher.move_to_r(v);
        matcher.classify_into(&mut class);
        let cand = oracle.evaluate(hg, &class).candidate();
        consider(
            &mut best,
            cand.stats.ratio(),
            k,
            matcher.matching_size(),
            cand.losers,
        );
    }
    best.expect("bench instances are non-degenerate")
}

/// The delta-maintained sweep engine.
fn incremental_sweep(hg: &Hypergraph, neighbors: &[Vec<u32>], order: &[u32]) -> Winner {
    let mut state = SweepState::new(hg, neighbors);
    let mut best = None;
    for (k, &v) in order[..order.len() - 1].iter().enumerate() {
        let cand = state.advance(hg, v).candidate();
        consider(
            &mut best,
            cand.stats.ratio(),
            k,
            state.matching_size(),
            cand.losers,
        );
    }
    best.expect("bench instances are non-degenerate")
}

/// Nets the classifier visits per move over the sweep of `order` — the
/// deterministic work counter of `NetClassifier::refresh`.
fn classifier_visits_per_move(neighbors: &[Vec<u32>], order: &[u32]) -> f64 {
    let mut matcher = SplitMatcher::new(neighbors);
    let mut classifier = NetClassifier::new(neighbors.len());
    let mut delta = MoveDelta::default();
    let mut changes = Vec::new();
    let moves = &order[..order.len() - 1];
    for &v in moves {
        matcher.move_to_r_into(v, &mut delta);
        classifier.refresh(&matcher, &delta, &mut changes);
    }
    classifier.visited() as f64 / moves.len() as f64
}

/// The spectral net ordering IG-Match sweeps at default options.
fn spectral_order(hg: &Hypergraph) -> Vec<u32> {
    let opts = IgMatchOptions::default();
    spectral_net_ordering(hg, opts.weighting, &opts.lanczos)
        .expect("connected instances have a Fiedler vector")
        .iter()
        .map(|n| n.0)
        .collect()
}

/// Runs the incremental arm (and, if `from_scratch`, the from-scratch
/// arm with its bit-identity assert) on one instance and returns its
/// record plus the classifier's visits per move.
fn rung(
    name: &str,
    family: &str,
    hg: &Hypergraph,
    order: &[u32],
    from_scratch: bool,
) -> (BenchEntry, f64) {
    let neighbors = intersection_neighbors(hg);
    let (inc_winner, inc) = best_of(RUNS, || incremental_sweep(hg, &neighbors, order));
    let visits = classifier_visits_per_move(&neighbors, order);
    let moves = order.len() - 1;
    let inc_ms = inc.as_secs_f64() * 1e3;
    let mut entry = BenchEntry::new()
        .str("name", name)
        .str("family", family)
        .int("modules", hg.num_modules())
        .int("nets", hg.num_nets())
        .int("best_split", inc_winner.split_rank)
        .int("matching_size", inc_winner.matching_size)
        .int("loser_count", inc_winner.loser_count)
        .sci("best_ratio", f64::from_bits(inc_winner.ratio_bits))
        .int("sweep_moves", moves)
        .fixed("classifier_visits_per_move", visits)
        .fixed("incremental_ms", inc_ms)
        .rate("incremental_moves_per_sec", moves, inc)
        // canonical throughput field: the headline (fast-arm) rate
        // every bench record carries under the same key
        .rate("sweep_moves_per_sec", moves, inc);
    let mut line = format!(
        "{name:<14} {:>6} modules {:>6} nets: incremental {inc_ms:>8.1} ms  {:>9.0} moves/s  \
         {visits:>6.1} visits/move",
        hg.num_modules(),
        hg.num_nets(),
        moves as f64 / inc.as_secs_f64().max(1e-9),
    );
    if from_scratch {
        let (scratch_winner, scratch) = best_of(RUNS, || from_scratch_sweep(hg, &neighbors, order));
        // Determinism contract: same bits from both sweeps.
        assert_eq!(
            scratch_winner, inc_winner,
            "incremental sweep diverged from the from-scratch sweep on {name}"
        );
        let scratch_ms = scratch.as_secs_f64() * 1e3;
        let speedup = scratch_ms / inc_ms.max(1e-9);
        line += &format!("  from-scratch {scratch_ms:>9.1} ms  speedup {speedup:>6.1}x");
        entry = entry
            .fixed("from_scratch_ms", scratch_ms)
            .rate("from_scratch_moves_per_sec", moves, scratch)
            .fixed("speedup", speedup);
    }
    println!("{line}");
    (entry, visits)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let mut report = BenchReport::new("sweep");
    report.meta("kernel", "ig-match-sweep");

    for b in suite() {
        let order = spectral_order(&b.hypergraph);
        let from_scratch = b.hypergraph.num_modules() <= FROM_SCRATCH_MAX_MODULES;
        let (entry, _) = rung(&b.name, "suite", &b.hypergraph, &order, from_scratch);
        report.push(entry);
    }
    let mut visits = Vec::new();
    for (name, modules) in CONNECTED {
        let hg = generate(&GeneratorConfig::new(modules, modules * 112 / 100, 1));
        let order = spectral_order(&hg);
        let from_scratch = modules <= FROM_SCRATCH_MAX_MODULES;
        let (entry, v) = rung(name, "connected", &hg, &order, from_scratch);
        visits.push(v);
        report.push(entry);
    }
    for (name, seed, modules, nets, band) in BAND {
        let hg = banded_hypergraph(seed, modules, nets, band);
        // natural (banded) order — every move stays local
        let order: Vec<u32> = (0..hg.num_nets() as u32).collect();
        let (entry, _) = rung(name, "band (fragmented control)", &hg, &order, true);
        report.push(entry.int("band", band));
    }
    report.write(&out_path);

    // Output-sensitivity gate: work per move flat from 5k to 20k modules.
    let (at_5k, at_20k) = (visits[0], visits[CONNECTED.len() - 1]);
    assert!(
        at_20k <= 2.0 * at_5k,
        "classifier visits per move grew from {at_5k:.1} (connected-5k) to {at_20k:.1} \
         (connected-20k): the refresh is no longer output-sensitive"
    );
}
