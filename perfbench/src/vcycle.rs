//! `vcycle-kway4`: two connected ~5k-module netlists, each cut into 4
//! balanced blocks by the multilevel V-cycle on one thread. The only
//! workload that runs `np-multilevel`, the recursive k-way route,
//! `kway_refine` and the balance repair.
//!
//! As in `suite-bisect`, the netlists and options are fixed and the seed
//! only sets the order the two run in: with seeded netlists `cpu_s`
//! ranged 8.8–16.0 s over five seeds (2-vCPU Xeon VM), because the
//! coarsest-level IG-Match cost varies with each netlist and its Fiedler
//! sign.

use crate::check::{check_kway, partition_hash};
use crate::igreplay;
use crate::procfs::thread_cpu_s;
use crate::span::Tracer;
use crate::{measure, Run};
use np_core::engine::{RunContext, StageEvent};
use np_core::kway::refine::{area_cap, enforce_balance, kway_refine};
use np_core::{kway_partition_ctx, KwayMethod, KwayOptions};
use np_multilevel::{
    build_hierarchy, multilevel_kway_ctx, MultilevelKwayOutcome, MultilevelOptions,
};
use np_netlist::areas::ModuleAreas;
use np_netlist::generate::{generate, GeneratorConfig};
use np_netlist::io::{parse_hgr, to_hgr_string};
use np_netlist::{
    balance_bound, FixedModules, Hypergraph, KwayCutTracker, KwayPartition, ModuleId,
};
use np_sparse::BudgetMeter;
use std::sync::Mutex;
use std::time::Instant;

const NETLISTS: usize = 2;
const MODULES: usize = 5000;
const NETS: usize = 5600;
const K: usize = 4;
/// Passes over the pair per run; the median pass is reported.
const PASSES: usize = 3;

pub struct Input {
    pub hg: Hypergraph,
}

/// Generator seeds of the two netlists.
const NETLIST_SEEDS: [u64; NETLISTS] = [1, 2];

/// Generates the pair, serialises and parses each.
pub fn setup() -> Result<Vec<Input>, String> {
    NETLIST_SEEDS
        .iter()
        .enumerate()
        .map(|(i, &gen_seed)| {
            let g = generate(&GeneratorConfig::new(MODULES, NETS, gen_seed));
            let text = to_hgr_string(&g);
            let hg = parse_hgr(&text).map_err(|e| e.to_string())?;
            if hg != g {
                return Err(format!("netlist {i}: parse(serialise(g)) differs from g"));
            }
            Ok(Input { hg })
        })
        .collect()
}

/// The V-cycle at its defaults, as `np-part --multilevel --k 4` runs it.
fn options() -> (KwayOptions, MultilevelOptions) {
    let kopts = KwayOptions {
        k: K,
        ..KwayOptions::default()
    };
    (kopts, MultilevelOptions::default())
}

fn check_outcome(
    hg: &Hypergraph,
    epsilon: f64,
    out: &MultilevelKwayOutcome,
) -> Result<f64, String> {
    let ratio = check_kway(
        hg,
        out.result.partition.labels(),
        K,
        epsilon,
        &out.result.stats,
    )?;
    if out.result.stats.cut_nets > out.coarse_cut {
        return Err(format!(
            "refined cut {} above the coarse cut {}",
            out.result.stats.cut_nets, out.coarse_cut
        ));
    }
    Ok(ratio)
}

pub fn run(seed: u64, trace: Option<&Tracer>) -> Result<Run, String> {
    let (kopts, mopts) = options();
    let rotated = || {
        let mut inputs = setup()?;
        inputs.rotate_left((seed % NETLISTS as u64) as usize);
        Ok(inputs)
    };
    let (inputs, passes, timing) =
        measure(PASSES, rotated, thread_cpu_s, |inputs: &Vec<Input>, _| {
            inputs
                .iter()
                .map(|inp| multilevel_kway_ctx(&inp.hg, &kopts, &mopts, &RunContext::unlimited()))
                .collect::<Vec<_>>()
        })?;

    // every pass is checked, and must repeat the first pass exactly
    let mut run = Run::new(&timing);
    for pass in &passes {
        for (i, (inp, out)) in inputs.iter().zip(pass).enumerate() {
            let verdict = out.as_ref().map_err(|e| e.to_string()).and_then(|o| {
                let same = passes[0][i]
                    .as_ref()
                    .is_ok_and(|f| f.result.partition.labels() == o.result.partition.labels());
                check_outcome(&inp.hg, kopts.epsilon, o).and_then(|r| {
                    if same {
                        Ok(r)
                    } else {
                        Err("differs from the first pass".into())
                    }
                })
            });
            run.record(&format!("netlist {i}"), verdict);
        }
    }
    let outcomes = &passes[0];

    if let Some(tr) = trace {
        traced(tr, &mut run, &inputs, &kopts, &mopts, outcomes)?;
    }
    Ok(run)
}

/// What the traced replay of one V-cycle saw.
struct Replay {
    levels: usize,
    coarse_modules: usize,
    coarse_nets: usize,
    coarse_cut: usize,
    final_cut: usize,
    partition_hash: u64,
    /// Hash of the top-level IG-Match partition at the coarsest level.
    top_igmatch_hash: Option<u64>,
    coarse_text: String,
    cpu_s: f64,
}

fn traced(
    tr: &Tracer,
    run: &mut Run,
    inputs: &[Input],
    kopts: &KwayOptions,
    mopts: &MultilevelOptions,
    outcomes: &[Result<MultilevelKwayOutcome, np_core::PartitionError>],
) -> Result<(), String> {
    let mut reps = Vec::new();
    for (i, inp) in inputs.iter().enumerate() {
        let root = tr.open("vcycle.multilevel_kway", i as u64, None);
        let rep = replay(tr, i as u64, root, &inp.hg, kopts, mopts)?;
        tr.close(root);
        let reproduced = outcomes[i].as_ref().is_ok_and(|o| {
            o.coarse_cut == rep.coarse_cut
                && o.levels == rep.levels
                && o.coarsest_modules == rep.coarse_modules
                && partition_hash(o.result.partition.labels().iter().copied()) == rep.partition_hash
        });
        if !reproduced {
            run.unattributed("vcycle", &format!("netlist {i}"));
        }
        reps.push(rep);
    }
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    run.traced_cpu(cpu);

    // the coarsest level's IG-Match, layer by layer: the same call the
    // recursive k-way makes first, on the same hypergraph and seed
    let mut ig = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let root = tr.open("vcycle.coarsest_igmatch_replay", i as u64, None);
        let r = igreplay::replay(tr, i as u64, Some(root), &rep.coarse_text, &mopts.ig_match)?;
        tr.close(root);
        if rep.top_igmatch_hash != Some(r.partition_hash) {
            run.unattributed("igmatch", &format!("coarsest level of netlist {i}"));
        }
        ig.push(r);
    }
    run.ig_layers(tr, &ig);

    let sum = |f: fn(&Replay) -> f64| reps.iter().map(f).sum::<f64>();
    run.layer("vcycle.coarsen_s", tr.cpu("vcycle.build_hierarchy"));
    run.layer("vcycle.levels", sum(|r| r.levels as f64));
    run.layer("vcycle.coarse_modules", sum(|r| r.coarse_modules as f64));
    run.layer("vcycle.coarse_nets", sum(|r| r.coarse_nets as f64));
    run.layer("vcycle.initial_s", tr.cpu("vcycle.initial_kway"));
    run.layer("vcycle.coarse_igmatch_s", tr.cpu("igmatch.stage"));
    run.layer("vcycle.uncoarsen_s", tr.cpu("vcycle.uncoarsen"));
    let coarse = sum(|r| r.coarse_cut as f64);
    run.layer(
        "kway.refine_gain_frac",
        (coarse - sum(|r| r.final_cut as f64)) / coarse,
    );
    let attributed = [
        "vcycle.build_hierarchy",
        "vcycle.initial_kway",
        "vcycle.uncoarsen",
    ]
    .iter()
    .map(|n| tr.cpu(n))
    .sum::<f64>();
    run.layer("trace.attributed_share", attributed / run.cpu_s());
    Ok(())
}

/// The first IG-Match stage seen through the event hook: when it started
/// and ended (wall, thread CPU) and the hash of its partition.
#[derive(Default)]
struct FirstStage {
    start: Option<(Instant, f64)>,
    end: Option<((Instant, f64), u64)>,
}

/// `multilevel_kway_ctx`, call by call: `build_hierarchy`, the recursive
/// k-way on the coarsest level (its top-level IG-Match stage timed
/// through the context's event hook), then projection plus
/// `enforce_balance`/`kway_refine` on every level back up.
fn replay(
    tr: &Tracer,
    op: u64,
    parent: usize,
    hg: &Hypergraph,
    kopts: &KwayOptions,
    mopts: &MultilevelOptions,
) -> Result<Replay, String> {
    let cpu0 = thread_cpu_s()?;
    let n = hg.num_modules();
    let areas = ModuleAreas::uniform(n);
    let fixed = FixedModules::free(n);
    let bound = balance_bound(areas.total(), K, kopts.epsilon);
    let mut opts = *mopts;
    opts.coarsen_target = mopts.coarsen_target.max(8 * K);
    let meter = BudgetMeter::unlimited();
    let hierarchy = tr
        .span("vcycle.build_hierarchy", op, Some(parent), || {
            build_hierarchy(hg, &areas, &fixed, &opts, bound / 3.0, &meter)
        })
        .map_err(|e| e.to_string())?;
    let (coarsest, c_areas, c_fixed) = match hierarchy.levels.last() {
        Some(l) => (&l.coarse, l.areas.clone(), l.fixed.clone()),
        None => (hg, areas.clone(), fixed.clone()),
    };
    let coarse_opts = KwayOptions {
        areas: Some(c_areas),
        fixed: Some(c_fixed),
        ig_match: mopts.ig_match,
        ..kopts.clone()
    };

    // the first IG-Match stage to start runs on the whole coarsest level;
    // the hook fires on the executing thread, so its CPU clock applies
    let first = Mutex::new(FirstStage::default());
    let sink = |e: &StageEvent<'_>| {
        let mark = (Instant::now(), thread_cpu_s().unwrap_or(f64::NAN));
        let mut f = first.lock().expect("event state poisoned");
        match e {
            StageEvent::Started { stage } if *stage == "IG-Match" && f.start.is_none() => {
                f.start = Some(mark)
            }
            StageEvent::Finished {
                stage,
                outcome: Ok(r),
            } if *stage == "IG-Match" && f.end.is_none() => {
                f.end = Some((mark, crate::check::sides_hash(r.partition.sides())));
            }
            _ => {}
        }
    };
    let initial = tr.open("vcycle.initial_kway", op, Some(parent));
    let ctx = RunContext::with_meter(&meter).with_events(&sink);
    let coarse = kway_partition_ctx(coarsest, &coarse_opts, KwayMethod::Recursive, &ctx)
        .map_err(|e| e.to_string())?;
    tr.close(initial);
    let top_igmatch_hash = match first.into_inner().expect("event state poisoned") {
        FirstStage {
            start: Some((t0, c0)),
            end: Some(((t1, c1), h)),
        } => {
            tr.record("igmatch.stage", op, Some(initial), t0, t1, c1 - c0);
            Some(h)
        }
        _ => None,
    };

    let cap = area_cap(bound);
    let mut labels = coarse.partition.labels().to_vec();
    let uncoarsen = tr.open("vcycle.uncoarsen", op, Some(parent));
    for idx in (0..hierarchy.levels.len()).rev() {
        let (fine_hg, fine_areas, fine_fixed) = if idx == 0 {
            (hg, &areas, &fixed)
        } else {
            let l = &hierarchy.levels[idx - 1];
            (&l.coarse, &l.areas, &l.fixed)
        };
        let map = &hierarchy.levels[idx].map;
        let fine_n = fine_hg.num_modules();
        let projected: Vec<u32> = (0..fine_n).map(|v| labels[map[v] as usize]).collect();
        let mut tracker =
            KwayCutTracker::new(fine_hg, &KwayPartition::with_num_blocks(projected, K));
        tracker.set_areas(fine_areas);
        let free: Vec<bool> = (0..fine_n)
            .map(|v| !fine_fixed.is_pinned(ModuleId(v as u32)))
            .collect();
        if tracker.block_counts().contains(&0) || tracker.block_areas().iter().any(|&a| a > cap) {
            enforce_balance(&mut tracker, &free, bound, &meter).map_err(|e| e.to_string())?;
        }
        kway_refine(&mut tracker, &free, bound, mopts.refine_passes, &meter)
            .map_err(|e| e.to_string())?;
        labels = tracker.to_partition().labels().to_vec();
    }
    tr.close(uncoarsen);
    let cpu_s = thread_cpu_s()? - cpu0;
    let final_cut = np_testkit::kway_reference_cut(hg, &labels);
    Ok(Replay {
        levels: hierarchy.levels.len(),
        coarse_modules: coarsest.num_modules(),
        coarse_nets: coarsest.num_nets(),
        coarse_cut: coarse.stats.cut_nets,
        final_cut,
        partition_hash: partition_hash(labels.iter().copied()),
        top_igmatch_hash,
        coarse_text: to_hgr_string(coarsest),
        cpu_s,
    })
}
