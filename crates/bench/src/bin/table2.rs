//! Regenerates paper Table 2: IG-Match vs the RCut1.0 stand-in on the
//! nine-circuit suite.
//!
//! The RCut baseline is the paper's best-of-10-random-starts method; it
//! runs as an `np-runner` portfolio of 10 single-start attempts
//! (decorrelated seed streams, parallel workers, deterministic
//! `(score, index)` reduction), so the baseline costs wall-clock time
//! proportional to the *slowest* start instead of the sum.
//!
//! The paper's headline claim is gated, not just printed: the binary
//! fails unless IG-Match beats the RCut stand-in on at least
//! `MIN_WINS` of the nine circuits (the paper's count).
//!
//! ```text
//! cargo run --release -p bench --bin table2
//! ```

use bench::{print_comparison, suite, timed, ComparisonRow};
use np_baselines::RcutOptions;
use np_core::{ig_match, IgMatchOptions};
use np_runner::presets::rcut_restarts;
use np_runner::{run_portfolio, PortfolioOptions};
use np_sparse::BudgetMeter;

/// Paper-faithful restart count for the RCut1.0 baseline.
const RCUT_RESTARTS: usize = 10;

/// Circuits on which IG-Match must beat RCut: the paper reports IG-Match
/// ahead on 7 of its 9 benchmarks (Table 2).
const MIN_WINS: usize = 7;

fn main() {
    let mut rows = Vec::new();
    let rcut_opts = RcutOptions::default();
    let portfolio_opts = PortfolioOptions::default().with_seed(rcut_opts.seed);
    for b in suite() {
        let hg = &b.hypergraph;
        let portfolio = rcut_restarts(RCUT_RESTARTS, rcut_opts.seed, &rcut_opts);
        let (rc, t_rcut) = timed(|| {
            run_portfolio(
                hg,
                &portfolio,
                &portfolio_opts,
                &BudgetMeter::unlimited(),
                None,
            )
        });
        let rc = rc.unwrap_or_else(|e| panic!("RCut portfolio failed on {}: {e}", b.name));
        let (igm, t_igm) = timed(|| ig_match(hg, &IgMatchOptions::default()));
        let igm = igm.unwrap_or_else(|e| panic!("IG-Match failed on {}: {e}", b.name));
        eprintln!(
            "{:<8} rcut({RCUT_RESTARTS} starts, {} threads) {:>8.2?}  ig-match {:>8.2?}  (mm bound {} >= cut {})",
            b.name,
            rc.report.threads,
            t_rcut,
            t_igm,
            igm.matching_size,
            igm.result.stats.cut_nets
        );
        rows.push(ComparisonRow {
            name: b.name.clone(),
            elements: hg.num_modules(),
            baseline: rc.best.stats,
            contender: igm.result.stats,
        });
    }
    print_comparison(
        "Table 2: IG-Match vs Wei-Cheng RCut1.0 (stand-in, best of 10 starts)",
        "RCut",
        "IG-Match",
        &rows,
    );
    let wins = rows
        .iter()
        .filter(|r| r.contender.ratio() < r.baseline.ratio())
        .count();
    println!(
        "IG-Match beats RCut on {wins}/{} circuits (paper: 7/9)",
        rows.len()
    );
    assert!(
        wins >= MIN_WINS,
        "IG-Match beats RCut on only {wins}/{} circuits; the paper's claim needs {MIN_WINS}",
        rows.len()
    );
}
