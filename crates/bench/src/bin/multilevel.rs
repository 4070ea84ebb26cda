//! Multilevel benchmark: flat hybrid pipeline vs the
//! coarsen/partition/uncoarsen V-cycle, emitting a JSON record
//! (`BENCH_multilevel.json` by default). CI runs this to track the
//! V-cycle's scaling win: at the large rungs the V-cycle must finish
//! instances the flat spectral pipeline cannot complete inside
//! `FLAT_BUDGET_FACTOR` times the V-cycle's own wall, while staying
//! within 10% of flat quality where flat is feasible (asserted inline).
//!
//! Two instance families:
//!
//! * **connected** — `generate()` netlists of 5k and 20k modules (seed 1,
//!   1.12 nets per module) with a non-zero optimal cut, so the quality
//!   assert can fail; it applies to every connected rung where flat
//!   completes;
//! * **band (fragmented control)** — the `np-testkit` band ladder up to
//!   band-XL. Every band rung has cut 0, so its quality assert (rungs up
//!   to 10k modules) cannot trip; kept as a scaling control, not as
//!   evidence of quality.
//!
//! The flat arm *is* the V-cycle with `coarsen_target` above the module
//! count: with zero coarsening levels the entry point is bit-identical
//! to the flat hybrid pipeline (the debug-mode oracle contract of
//! DESIGN.md §14), so one code path serves both arms.
//!
//! ```text
//! cargo run --release -p bench --bin multilevel [-- OUT.json]
//! ```

use bench::{timed, BenchEntry, BenchReport};
use np_core::engine::RunContext;
use np_multilevel::{multilevel_ctx, MultilevelOptions};
use np_netlist::generate::{generate, GeneratorConfig};
use np_netlist::Hypergraph;
use np_sparse::{Budget, BudgetMeter};
use np_testkit::band_ladder;
use std::time::Duration;

/// Largest rung the benchmark attempts; band-XXL (10⁶ modules) exists
/// for stress runs, not for the CI wall-clock budget.
const MAX_MODULES: usize = 200_000;

/// Wall budget granted to the flat arm, as a multiple of the V-cycle's
/// measured wall. Failing to finish within this bound is a *stronger*
/// statement than failing within the same budget.
const FLAT_BUDGET_FACTOR: u32 = 5;

/// Floor on the flat arm's budget so millisecond-scale V-cycle walls on
/// the small rungs don't turn scheduler noise into spurious timeouts.
const FLAT_BUDGET_FLOOR: Duration = Duration::from_secs(2);

/// Band rungs at or below this module count must land within 10% of
/// flat quality (the band-S/M acceptance bar).
const QUALITY_BAR_MODULES: usize = 10_000;

/// `(name, modules)` of the connected `generate()` rungs (seed 1).
const CONNECTED: [(&str, usize); 2] = [("connected-5k", 5_000), ("connected-20k", 20_000)];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_multilevel.json".to_string());
    let mut report = BenchReport::new("multilevel");
    report.meta("kernel", "v-cycle");
    for (name, modules) in CONNECTED {
        let hg = generate(&GeneratorConfig::new(modules, modules * 112 / 100, 1));
        report.push(rung(name, "connected", &hg, true));
    }
    for spec in band_ladder() {
        if spec.modules > MAX_MODULES {
            eprintln!(
                "skipping {} ({} modules > {MAX_MODULES})",
                spec.name, spec.modules
            );
            continue;
        }
        let quality_bar = spec.modules <= QUALITY_BAR_MODULES;
        let entry = rung(
            spec.name,
            "band (fragmented control)",
            &spec.build(),
            quality_bar,
        );
        report.push(entry.int("band", spec.band));
    }
    report.write(&out_path);
}

/// Runs the V-cycle and the budgeted flat arm on one instance and
/// returns its record; with `quality_bar`, asserts the V-cycle lands
/// within 10% of flat quality whenever flat completes.
fn rung(name: &str, family: &str, hg: &Hypergraph, quality_bar: bool) -> BenchEntry {
    let opts = MultilevelOptions::default();
    // Meter the V-cycle arm so the record carries a throughput counter:
    // matvec-equivalents charged across the whole cycle (eigensolve
    // matvecs, coarsening levels, FM passes) per second.
    let vcycle_meter = BudgetMeter::unlimited();
    let (ml, ml_wall) = timed(|| {
        let ctx = RunContext::with_meter(&vcycle_meter);
        multilevel_ctx(hg, &opts, &ctx).expect("V-cycle")
    });
    let matvecs = vcycle_meter.matvecs_used() as usize;
    let flat_opts = MultilevelOptions {
        coarsen_target: usize::MAX,
        ..opts
    };
    let flat_budget = (ml_wall * FLAT_BUDGET_FACTOR).max(FLAT_BUDGET_FLOOR);
    let budget = Budget::UNLIMITED.with_wall_clock(flat_budget);
    let (flat, flat_wall) = timed(|| {
        let meter = BudgetMeter::new(&budget);
        let ctx = RunContext::with_meter(&meter);
        multilevel_ctx(hg, &flat_opts, &ctx)
    });
    let modules = hg.num_modules();
    let ml_ms = ml_wall.as_secs_f64() * 1e3;
    let flat_ms = flat_wall.as_secs_f64() * 1e3;
    let entry = BenchEntry::new()
        .str("name", name)
        .str("family", family)
        .int("modules", modules)
        .int("nets", hg.num_nets())
        .int("levels", ml.levels)
        .int("coarsest_modules", ml.coarsest_modules)
        .int("coarse_cut", ml.coarse_cut)
        .int("vcycle_cut", ml.result.stats.cut_nets)
        .sci("vcycle_ratio", ml.result.ratio())
        .fixed("vcycle_ms", ml_ms)
        .int("matvecs", matvecs)
        // canonical throughput field: the headline (fast-arm) rate
        // every bench record carries under the same key
        .rate("matvecs_per_sec", matvecs, ml_wall)
        .fixed("flat_budget_ms", flat_budget.as_secs_f64() * 1e3)
        .int("flat_completed", flat.is_ok() as usize);
    match flat {
        Ok(f) => {
            let quality_delta =
                (ml.result.ratio() - f.result.ratio()) / f.result.ratio().max(1e-300);
            if quality_bar {
                assert!(
                    quality_delta <= 0.10,
                    "{name}: V-cycle ratio {:.3e} is more than 10% above flat {:.3e}",
                    ml.result.ratio(),
                    f.result.ratio()
                );
            }
            println!(
                "{name:<13} {modules:>7} modules: V-cycle {ml_ms:>9.1} ms ({} levels, cut {})  \
                 flat {flat_ms:>9.1} ms (cut {})  quality delta {:+.1}%",
                ml.levels,
                ml.result.stats.cut_nets,
                f.result.stats.cut_nets,
                quality_delta * 100.0
            );
            entry
                .int("flat_cut", f.result.stats.cut_nets)
                .sci("flat_ratio", f.result.ratio())
                .fixed("flat_ms", flat_ms)
                .fixed("quality_delta_pct", quality_delta * 100.0)
                .fixed("wall_speedup", flat_ms / ml_ms.max(1e-9))
        }
        Err(e) => {
            println!(
                "{name:<13} {modules:>7} modules: V-cycle {ml_ms:>9.1} ms ({} levels, cut {})  \
                 flat DNF within {:.1} ms ({e})",
                ml.levels,
                ml.result.stats.cut_nets,
                flat_budget.as_secs_f64() * 1e3
            );
            entry.str("flat_error", &e.to_string())
        }
    }
}
