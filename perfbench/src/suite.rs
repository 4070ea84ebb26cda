//! `suite-bisect`: the paper's nine MCNC stand-ins, each bisected once
//! per run by flat IG-Match on one thread (paper Tables 2/3 traffic).
//!
//! The instances and options are the same for every seed; the seed only
//! rotates the order they run in. IG-Match's cost depends on the sign the
//! eigensolver gives the Fiedler vector (Phase II replays the sweep up to
//! the winning split, which sits near one end of the ordering), and any
//! change of start vector re-rolls that sign per instance: with the
//! Lanczos start taken from the seed, `cpu_s` ranged 6.1–8.8 s over five
//! seeds (2-vCPU Xeon VM). Fixed work keeps seed-to-seed spread down to
//! measurement noise.

use crate::check::{check_bisection, sides_hash};
use crate::igreplay::{self, IgReplay};
use crate::procfs::thread_cpu_s;
use crate::span::Tracer;
use crate::{measure, Run};
use np_core::engine::RunContext;
use np_core::{ig_match_ctx, IgMatchOptions, IgMatchOutcome};
use np_netlist::generate::mcnc_suite;
use np_netlist::io::{parse_hgr, to_hgr_string};
use np_netlist::Hypergraph;
use np_sparse::BudgetMeter;

/// Passes over the suite per run; the median pass is reported.
const PASSES: usize = 3;

/// One input netlist: its serialised text and the hypergraph parsed from it.
pub struct Input {
    pub name: String,
    pub text: String,
    pub hg: Hypergraph,
}

/// Generates the suite, serialises each circuit and parses it back.
pub fn setup() -> Result<Vec<Input>, String> {
    mcnc_suite()
        .into_iter()
        .map(|b| {
            let text = to_hgr_string(&b.hypergraph);
            let hg = parse_hgr(&text).map_err(|e| format!("{}: {e}", b.name))?;
            if hg != b.hypergraph {
                return Err(format!("{}: parse(serialise(g)) differs from g", b.name));
            }
            Ok(Input {
                name: b.name,
                text,
                hg,
            })
        })
        .collect()
}

/// Checks an IG-Match outcome against an independent recount and the
/// matching bound of Theorem 5 (cut ≤ losers ≤ maximum matching).
pub fn check_outcome(hg: &Hypergraph, out: &IgMatchOutcome) -> Result<f64, String> {
    let s = &out.result.stats;
    check_bisection(
        hg,
        out.result.partition.sides(),
        s.cut_nets,
        s.left,
        s.right,
    )?;
    if s.cut_nets > out.loser_count || out.loser_count > out.matching_size {
        return Err(format!(
            "cut {} / losers {} / matching {} break the completion bound",
            s.cut_nets, out.loser_count, out.matching_size
        ));
    }
    let ratio = s.cut_nets as f64 / (s.left as f64 * s.right as f64);
    if ratio != s.ratio() {
        return Err(format!("claimed ratio {}, recount {ratio}", s.ratio()));
    }
    Ok(ratio)
}

pub fn run(seed: u64, trace: Option<&Tracer>) -> Result<Run, String> {
    let opts = IgMatchOptions::default();
    let rotated = || {
        let mut inputs = setup()?;
        let len = inputs.len() as u64;
        inputs.rotate_left((seed % len) as usize);
        Ok(inputs)
    };
    let (inputs, passes, timing) =
        measure(PASSES, rotated, thread_cpu_s, |inputs: &Vec<Input>, _| {
            inputs
                .iter()
                .map(|inp| {
                    let meter = BudgetMeter::unlimited();
                    ig_match_ctx(&inp.hg, &opts, &RunContext::with_meter(&meter))
                })
                .collect::<Vec<_>>()
        })?;

    // every pass is checked, and must repeat the first pass exactly
    let mut run = Run::new(&timing);
    for pass in &passes {
        for ((inp, out), first) in inputs.iter().zip(pass).zip(&passes[0]) {
            let verdict = out.as_ref().map_err(|e| e.to_string()).and_then(|o| {
                let same = first
                    .as_ref()
                    .is_ok_and(|f| f.result.partition == o.result.partition);
                check_outcome(&inp.hg, o).and_then(|r| {
                    if same {
                        Ok(r)
                    } else {
                        Err("differs from the first pass".into())
                    }
                })
            });
            run.record(&inp.name, verdict);
        }
    }
    let outcomes = &passes[0];

    if let Some(tr) = trace {
        let mut replays: Vec<IgReplay> = Vec::new();
        for (i, (inp, out)) in inputs.iter().zip(outcomes).enumerate() {
            let root = tr.open("suite.instance", i as u64, None);
            let rep = igreplay::replay(tr, i as u64, Some(root), &inp.text, &opts)?;
            tr.close(root);
            let reproduced = out.as_ref().is_ok_and(|u| {
                sides_hash(u.result.partition.sides()) == rep.partition_hash
                    && u.matching_size == rep.matching_size
            });
            if !reproduced {
                run.unattributed("igmatch", &inp.name);
            }
            replays.push(rep);
        }
        run.ig_layers(tr, &replays);
        run.traced_cpu(replays.iter().map(|r| r.mirror_cpu_s).sum());
    }
    Ok(run)
}
