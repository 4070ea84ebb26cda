//! Regenerates paper Table 3: IG-Match vs the IG-Vote (EIG1-IG) heuristic
//! of Hagen–Kahng on the nine-circuit suite.
//!
//! The paper's claim of uniform domination is gated: the binary fails
//! unless IG-Match's ratio cut is no worse than IG-Vote's on every
//! circuit.
//!
//! ```text
//! cargo run --release -p bench --bin table3
//! ```

use bench::{print_comparison, suite, timed, ComparisonRow};
use np_core::{ig_match, ig_vote, IgMatchOptions, IgVoteOptions};

fn main() {
    let mut rows = Vec::new();
    for b in suite() {
        let hg = &b.hypergraph;
        let (igv, t_vote) = timed(|| ig_vote(hg, &IgVoteOptions::default()));
        let igv = igv.unwrap_or_else(|e| panic!("IG-Vote failed on {}: {e}", b.name));
        let (igm, t_match) = timed(|| ig_match(hg, &IgMatchOptions::default()));
        let igm = igm.unwrap_or_else(|e| panic!("IG-Match failed on {}: {e}", b.name));
        eprintln!(
            "{:<8} ig-vote {:>8.2?}  ig-match {:>8.2?}",
            b.name, t_vote, t_match
        );
        rows.push(ComparisonRow {
            name: b.name.clone(),
            elements: hg.num_modules(),
            baseline: igv.stats,
            contender: igm.result.stats,
        });
    }
    let _ = print_comparison(
        "Table 3: IG-Match vs Hagen-Kahng IG-Vote (EIG1-IG)",
        "IG-Vote",
        "IG-Match",
        &rows,
    );
    let dominated = rows
        .iter()
        .filter(|r| r.contender.ratio() <= r.baseline.ratio() + 1e-15)
        .count();
    println!(
        "IG-Match matches or beats IG-Vote on {dominated}/{} circuits \
         (paper: uniform domination)",
        rows.len()
    );
    assert_eq!(
        dominated,
        rows.len(),
        "IG-Match is worse than IG-Vote on {} circuit(s); the paper claims uniform domination",
        rows.len() - dominated
    );
}
