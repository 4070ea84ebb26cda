//! The traced replay of one flat IG-Match run, call by call through the
//! layers' public entry points: `parse_hgr`, the intersection-graph model
//! builders, `fiedler_metered`, `order_by_component`, the incremental
//! sweep, and Phase II. A second pass drives `SplitMatcher` and
//! `NetClassifier` directly to split the sweep's time between them.

use crate::check::sides_hash;
use crate::procfs::thread_cpu_s;
use crate::span::Tracer;
use np_core::igmatch::{MoveDelta, NetClassChange, NetClassifier, SplitMatcher, SweepState};
use np_core::models::{intersection_laplacian, intersection_neighbors};
use np_core::ordering::order_by_component;
use np_core::{IgMatchOptions, PartitionResult};
use np_eigen::fiedler_metered;
use np_sparse::BudgetMeter;
use std::time::Instant;

/// What the replay reproduced plus its work counters.
#[derive(Clone, Debug, Default)]
pub struct IgReplay {
    /// Hash of the winning partition's sides.
    pub partition_hash: u64,
    pub matching_size: usize,
    pub split_rank: usize,
    pub nets: usize,
    pub nnz: usize,
    pub matvecs: u64,
    pub moves: u64,
    pub class_changes: u64,
    pub mates_changed: u64,
    pub matcher_s: f64,
    pub classifier_s: f64,
    /// Thread CPU of the calls that mirror the untraced run (everything
    /// but the parse and the matcher/classifier split).
    pub mirror_cpu_s: f64,
}

/// Replays IG-Match on the netlist text `hgr` under operation id `op`.
///
/// # Errors
///
/// A parse, eigensolve or degenerate-sweep failure, rendered.
pub fn replay(
    tr: &Tracer,
    op: u64,
    parent: Option<usize>,
    hgr: &str,
    opts: &IgMatchOptions,
) -> Result<IgReplay, String> {
    let hg = tr
        .span("netlist.parse_hgr", op, parent, || {
            np_netlist::io::parse_hgr(hgr)
        })
        .map_err(|e| e.to_string())?;
    let cpu0 = thread_cpu_s()?;
    let lap = tr.span("models.intersection_laplacian", op, parent, || {
        intersection_laplacian(&hg, opts.weighting)
    });
    let neighbors = tr.span("models.intersection_neighbors", op, parent, || {
        intersection_neighbors(&hg)
    });
    let meter = BudgetMeter::unlimited();
    let pair = tr
        .span("eigen.fiedler_metered", op, parent, || {
            fiedler_metered(&lap, &opts.lanczos, &meter)
        })
        .map_err(|e| e.to_string())?;
    let order = tr.span("ordering.order_by_component", op, parent, || {
        order_by_component(&pair.vector)
    });
    let m = hg.num_nets();

    // the sweep, exactly as `ig_match_with_ordering_ctx` runs it
    let best = tr.span("sweep.advance", op, parent, || {
        let mut state = SweepState::new(&hg, &neighbors);
        let mut best: Option<(f64, usize, bool, usize)> = None;
        for (k, &net) in order[..m - 1].iter().enumerate() {
            let c = state.advance(&hg, net).candidate();
            let ratio = c.stats.ratio();
            if ratio.is_finite() && best.is_none_or(|b| ratio < b.0) {
                best = Some((ratio, k, c.put_free_left, state.matching_size()));
            }
        }
        best
    });
    let (_, split_rank, put_free_left, matching_size) =
        best.ok_or("no split yields two non-empty sides")?;

    // Phase II: replay the winning prefix and place the free modules
    let result = tr.span("igmatch.phase2", op, parent, || {
        let mut replay = SweepState::new(&hg, &neighbors);
        for &net in &order[..=split_rank] {
            replay.advance(&hg, net);
        }
        PartitionResult::evaluate(
            &hg,
            replay.materialize(&hg, put_free_left),
            "IG-Match",
            Some(split_rank),
        )
    });
    let mirror_cpu_s = thread_cpu_s()? - cpu0;

    // matcher / classifier split: one aggregate span, per-call timers
    let mut out = IgReplay {
        partition_hash: sides_hash(result.partition.sides()),
        matching_size,
        split_rank,
        nets: m,
        nnz: lap.nnz(),
        matvecs: meter.matvecs_used(),
        mirror_cpu_s,
        ..IgReplay::default()
    };
    tr.span("sweep.split_probe", op, parent, || {
        let mut matcher = SplitMatcher::new(&neighbors);
        let mut classifier = NetClassifier::new(m);
        let mut delta = MoveDelta::default();
        let mut changes: Vec<NetClassChange> = Vec::new();
        for &net in &order[..m - 1] {
            let t0 = Instant::now();
            matcher.move_to_r_into(net, &mut delta);
            let t1 = Instant::now();
            classifier.refresh(&matcher, &delta, &mut changes);
            let t2 = Instant::now();
            out.matcher_s += (t1 - t0).as_secs_f64();
            out.classifier_s += (t2 - t1).as_secs_f64();
            out.moves += 1;
            out.class_changes += changes.len() as u64;
            out.mates_changed += delta.mates_changed.len() as u64;
        }
    });
    Ok(out)
}
