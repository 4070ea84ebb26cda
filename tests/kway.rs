//! Property suite for the balanced k-way engine (DESIGN.md §13).
//!
//! Four invariants, checked over random small instances and both k-way
//! routes (recursive bisection and direct multiway spectral):
//!
//! * **balance** — every block's area stays within
//!   `(1+ε)·total/k` and no block is empty;
//! * **fixed modules** — a pinned module is on its block in every
//!   returned partition;
//! * **k = 2 bit-identity** — both routes at `k = 2` with no pins match
//!   the bipartition hybrid pipeline exactly: same labels, same cut
//!   statistics, same metered spend, at 1, 2 and 8 threads;
//! * **oracle agreement** — the reported cut and per-block external
//!   counts equal the brute-force recount in `np_testkit`, which shares
//!   no code with the incremental trackers.
//!
//! A last test drives `np-part --k` in portfolio mode and checks that
//! `--report-json` records every k-way attempt.

use ig_match_repro::core::engine::stages::{IgMatchStage, RatioRefineStage};
use ig_match_repro::core::engine::{Pipeline, RunContext, Stage};
use ig_match_repro::core::kway::{kway_partition, KwayMethod, KwayOptions};
use ig_match_repro::core::{IgMatchOptions, PartitionError};
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::netlist::{balance_bound, KwayPartition};
use ig_match_repro::runner::REPORT_SCHEMA;
use ig_match_repro::{Budget, BudgetMeter};
use np_testkit::{
    check_cases, kway_reference_cut, kway_reference_externals, pinned_instance, small_hypergraph,
};

const METHODS: [KwayMethod; 2] = [KwayMethod::Recursive, KwayMethod::Direct];

/// Errors a random small instance may legitimately raise: the draw can
/// be too small, too degenerate or genuinely infeasible for the asked
/// `(k, ε)`. Anything else is a bug.
fn acceptable(err: &PartitionError) -> bool {
    matches!(
        err,
        PartitionError::TooSmall { .. }
            | PartitionError::Degenerate
            | PartitionError::InvalidInput { .. }
            | PartitionError::Eigen(_)
    )
}

#[test]
fn every_block_stays_within_the_balance_bound() {
    check_cases(48, 0xBA1A_0ACE, |g| {
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        let k = g.usize_in(2, (n / 2).clamp(2, 4));
        let epsilon = g.f64_in(0.3, 1.0);
        let opts = KwayOptions {
            k,
            epsilon,
            ..Default::default()
        };
        let bound = balance_bound(n as f64, k, epsilon);
        for method in METHODS {
            match kway_partition(&hg, &opts, method) {
                Ok(out) => {
                    assert_eq!(out.partition.num_blocks(), k);
                    let sizes = out.partition.block_sizes();
                    assert_eq!(sizes.len(), k);
                    for (b, &size) in sizes.iter().enumerate() {
                        assert!(size >= 1, "block {b} is empty ({method:?})");
                        assert!(
                            size as f64 <= bound * (1.0 + 1e-9) + 1e-9,
                            "block {b} holds {size} > bound {bound} ({method:?})"
                        );
                    }
                }
                Err(e) if acceptable(&e) => {}
                Err(e) => panic!("unexpected error from {method:?}: {e}"),
            }
        }
    });
}

#[test]
fn pinned_modules_never_move() {
    check_cases(48, 0xF1D0_0001, |g| {
        let k = g.usize_in(2, 4);
        let (hg, fixed) = pinned_instance(g, k);
        let opts = KwayOptions {
            k,
            epsilon: 1.0,
            fixed: Some(fixed.clone()),
            ..Default::default()
        };
        for method in METHODS {
            match kway_partition(&hg, &opts, method) {
                Ok(out) => {
                    for (m, b) in fixed.pins() {
                        assert_eq!(
                            out.partition.block_of(m),
                            b,
                            "pinned module {m:?} moved off block {b} ({method:?})"
                        );
                    }
                }
                Err(e) if acceptable(&e) => {}
                Err(e) => panic!("unexpected error from {method:?}: {e}"),
            }
        }
    });
}

#[test]
fn reported_cut_matches_the_brute_force_oracle() {
    check_cases(48, 0x0AC1_E000, |g| {
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        let k = g.usize_in(2, (n / 2).clamp(2, 4));
        let opts = KwayOptions {
            k,
            epsilon: 1.0,
            ..Default::default()
        };
        for method in METHODS {
            match kway_partition(&hg, &opts, method) {
                Ok(out) => {
                    let labels = out.partition.labels();
                    assert_eq!(
                        out.stats.cut_nets,
                        kway_reference_cut(&hg, labels),
                        "reported cut diverges from the oracle ({method:?})"
                    );
                    let (_, external) = kway_reference_externals(&hg, labels, k);
                    assert_eq!(
                        out.stats.external, external,
                        "per-block external counts diverge ({method:?})"
                    );
                }
                Err(e) if acceptable(&e) => {}
                Err(e) => panic!("unexpected error from {method:?}: {e}"),
            }
        }
    });
}

#[test]
fn k2_paths_are_bit_identical_to_the_bipartition_pipeline() {
    let hg = generate(&GeneratorConfig::new(180, 200, 0x2B1D));
    let opts = KwayOptions {
        k: 2,
        // ε = 1.0 keeps the bound at n, never binding, so the fast path
        // returns the pipeline's partition untouched.
        epsilon: 1.0,
        ..Default::default()
    };
    for threads in [1usize, 2, 8] {
        // the reference: the bipartition hybrid pipeline, run directly
        let reference_meter = BudgetMeter::new(&Budget::default());
        let ctx = RunContext::with_meter(&reference_meter)
            .with_seed(opts.seed)
            .with_threads(threads);
        let reference = Pipeline::named("IG-Match+FM")
            .then(IgMatchStage::new(IgMatchOptions::default()))
            .then(RatioRefineStage::new(opts.max_refine_passes, "IG-Match+FM"))
            .run(&hg, None, &ctx)
            .expect("reference pipeline partitions the instance");
        let expected = KwayPartition::from_bipartition(&reference.partition);
        let expected_spend = reference_meter.matvecs_used();

        for method in METHODS {
            let meter = BudgetMeter::new(&Budget::default());
            let ctx = RunContext::with_meter(&meter)
                .with_seed(opts.seed)
                .with_threads(threads);
            let out = ig_match_repro::core::kway::kway_partition_ctx(&hg, &opts, method, &ctx)
                .expect("k-way route partitions the instance");
            assert_eq!(
                out.partition.labels(),
                expected.labels(),
                "{method:?} diverged from the bipartition pipeline at {threads} threads"
            );
            assert_eq!(out.stats.cut_nets, reference.stats.cut_nets);
            assert_eq!(
                meter.matvecs_used(),
                expected_spend,
                "{method:?} metered spend diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn both_methods_are_deterministic() {
    let hg = generate(&GeneratorConfig::new(150, 160, 0xD17));
    let opts = KwayOptions {
        k: 4,
        epsilon: 0.5,
        ..Default::default()
    };
    for method in METHODS {
        let a = kway_partition(&hg, &opts, method).unwrap();
        let b = kway_partition(&hg, &opts, method).unwrap();
        assert_eq!(a.partition, b.partition, "{method:?} is nondeterministic");
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn empty_label_vector_yields_zero_blocks() {
    let p = KwayPartition::from_labels(Vec::new());
    assert_eq!(p.num_blocks(), 0);
    assert_eq!(p.len(), 0);
}

#[test]
fn np_part_kway_portfolio_writes_the_report() {
    // `--k` portfolios run on the same runner as bipartition ones, so
    // `--report-json` records every attempt: the recursive route is one
    // attempt, the method race adds one per direct restart
    let bin = env!("CARGO_BIN_EXE_np-part");
    let dir = std::env::temp_dir();
    let input = dir.join("np_part_kway_report.hgr");
    let hg = generate(&GeneratorConfig::new(120, 130, 0x4E7));
    std::fs::write(&input, ig_match_repro::netlist::io::to_hgr_string(&hg)).unwrap();
    for (method, attempts) in [("recursive", 1usize), ("race", 3)] {
        let report = dir.join(format!("np_part_kway_report_{method}.json"));
        std::fs::remove_file(&report).ok();
        let out = std::process::Command::new(bin)
            .arg(&input)
            .args(["--k", "4", "--restarts", "2", "--kway-method", method])
            .arg("--report-json")
            .arg(&report)
            .output()
            .expect("binary should run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{method}: {stderr}");
        let json = std::fs::read_to_string(&report)
            .unwrap_or_else(|e| panic!("{method}: no report written ({e}); stderr: {stderr}"));
        assert!(
            json.contains(&format!("\"schema\": \"{REPORT_SCHEMA}\"")),
            "{method}: {json}"
        );
        assert_eq!(
            json.matches("\"index\": ").count(),
            attempts,
            "{method}: {json}"
        );
        std::fs::remove_file(&report).ok();
    }
    std::fs::remove_file(&input).ok();
}
