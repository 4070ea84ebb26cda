//! The repository's benchmark: three fixed-work workloads over the
//! partitioning stack, each printing its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <suite-bisect|vcycle-kway4|serve-small> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line carries the end-to-end metrics of an
//! untraced run; with `--trace 1` the run is followed by a traced replay
//! and the line carries the per-layer metrics. See `README.md`.

mod check;
mod igreplay;
mod procfs;
mod serve;
mod span;
mod stats;
mod suite;
mod vcycle;

use igreplay::IgReplay;
use span::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ratio_geomean", "ratio"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics of the traced run, in output order, with their
/// units. A layer a workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("goodput_rps", "1/s"),
    ("netlist.parse_s", "s"),
    ("models.ig_build_s", "s"),
    ("models.ig_nnz", "count"),
    ("eigen.fiedler_s", "s"),
    ("eigen.matvecs", "count"),
    ("eigen.matvecs_per_s", "1/s"),
    ("sweep.s", "s"),
    ("sweep.moves", "count"),
    ("sweep.matcher_s", "s"),
    ("sweep.classifier_s", "s"),
    ("sweep.classifier_us_per_move", "us"),
    ("sweep.class_changes", "count"),
    ("sweep.mates_changed", "count"),
    ("sweep.best_rank_frac", "frac"),
    ("igmatch.phase2_s", "s"),
    ("vcycle.coarsen_s", "s"),
    ("vcycle.levels", "count"),
    ("vcycle.coarse_modules", "count"),
    ("vcycle.coarse_nets", "count"),
    ("vcycle.initial_s", "s"),
    ("vcycle.coarse_igmatch_s", "s"),
    ("vcycle.uncoarsen_s", "s"),
    ("kway.refine_gain_frac", "frac"),
    ("runner.attempts", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.json_parse_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.p95_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.cache_evictions", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("host.steal_s", "s"),
    ("trace.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.sweep_fiedler_share", "frac"),
    ("trace.attributed_share", "frac"),
    ("trace.unattributed", "count"),
];

const WORKLOADS: &[&str] = &["suite-bisect", "vcycle-kway4", "serve-small"];

/// Set-ups timed before the first pass, between passes and after the
/// last; `setup_s` is the median of all of them.
const SETUPS_PER_GAP: usize = 3;

/// Median CPU and wall seconds of a workload's passes, the median set-up
/// CPU, and the host steal time over the whole run.
pub struct Timing {
    pass_cpu: Vec<f64>,
    cpu_s: f64,
    wall_s: f64,
    setup_s: f64,
    steal_s: f64,
    passes: usize,
}

/// Runs the timed phase `passes` times on inputs made by `setup`. `cpu`
/// is the CPU clock that covers the workload's threads. Every pass does
/// the same work, so the median pass is reported. The host's speed
/// drifts by tens of percent within seconds, so the set-ups are timed
/// spread over the whole run rather than back to back, and their median
/// samples the same drift the passes see.
fn measure<I, T>(
    passes: usize,
    setup: impl Fn() -> Result<I, String>,
    cpu: fn() -> Result<f64, String>,
    mut pass: impl FnMut(&I, usize) -> T,
) -> Result<(I, Vec<T>, Timing), String> {
    let steal0 = procfs::host_steal_s()?;
    let mut inputs = None;
    let mut setups = Vec::new();
    let (mut cpus, mut walls, mut outs) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..=passes {
        for _ in 0..SETUPS_PER_GAP {
            let t0 = procfs::thread_cpu_s()?;
            let made = std::hint::black_box(setup()?);
            setups.push(procfs::thread_cpu_s()? - t0);
            inputs.get_or_insert(made);
        }
        if p == passes {
            break;
        }
        let inputs = inputs.as_ref().expect("set up before the first pass");
        let c0 = cpu()?;
        let w0 = Instant::now();
        outs.push(pass(inputs, p));
        walls.push(w0.elapsed().as_secs_f64());
        cpus.push(cpu()? - c0);
    }
    let timing = Timing {
        cpu_s: stats::median(&cpus),
        pass_cpu: cpus.iter().map(|c| (c * 1e3).round() / 1e3).collect(),
        wall_s: stats::median(&walls),
        setup_s: stats::median(&setups),
        steal_s: procfs::host_steal_s()? - steal0,
        passes,
    };
    Ok((inputs.expect("SETUPS_PER_GAP > 0"), outs, timing))
}

/// The outcome of one run: operation tallies plus both metric sets.
pub struct Run {
    passes: usize,
    pass_cpu: Vec<f64>,
    attempted: u64,
    failed: u64,
    ratios: Vec<f64>,
    unattributed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
}

impl Run {
    fn new(t: &Timing) -> Run {
        let mut run = Run {
            passes: t.passes,
            pass_cpu: t.pass_cpu.clone(),
            attempted: 0,
            failed: 0,
            ratios: Vec::new(),
            unattributed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
        };
        run.e2e.insert("setup_s", t.setup_s);
        run.e2e.insert("cpu_s", t.cpu_s);
        run.layer.insert("wall_s", t.wall_s);
        run.layer.insert("host.steal_s", t.steal_s);
        run
    }

    /// Tallies one operation: its verified quality, or why it failed.
    fn record(&mut self, what: &str, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(ratio) => self.ratios.push(ratio),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }

    /// A failure of the run as a whole (not of one operation).
    fn fail_run(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {why}");
    }

    /// A traced replay that did not reproduce the untraced outcome: its
    /// layer's numbers cannot be attributed to the measured run.
    fn unattributed(&mut self, layer: &str, what: &str) {
        self.unattributed += 1;
        eprintln!("perfbench: {layer} replay of {what} did not reproduce the untraced outcome; unattributed");
    }

    /// The untraced run's `cpu_s`.
    fn cpu_s(&self) -> f64 {
        self.e2e["cpu_s"]
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// Fills the IG-Match layer metrics from a traced replay.
    fn ig_layers(&mut self, tr: &Tracer, reps: &[IgReplay]) {
        let sum = |f: fn(&IgReplay) -> f64| reps.iter().map(f).sum::<f64>();
        let fiedler = tr.cpu("eigen.fiedler_metered");
        let matvecs = sum(|r| r.matvecs as f64);
        let moves = sum(|r| r.moves as f64);
        let classifier = sum(|r| r.classifier_s);
        let sweep = tr.cpu("sweep.advance");
        self.layer("netlist.parse_s", tr.cpu("netlist.parse_hgr"));
        self.layer(
            "models.ig_build_s",
            tr.cpu("models.intersection_laplacian") + tr.cpu("models.intersection_neighbors"),
        );
        self.layer("models.ig_nnz", sum(|r| r.nnz as f64));
        self.layer("eigen.fiedler_s", fiedler);
        self.layer("eigen.matvecs", matvecs);
        self.layer("eigen.matvecs_per_s", matvecs / fiedler);
        self.layer("sweep.s", sweep);
        self.layer("sweep.moves", moves);
        self.layer("sweep.matcher_s", sum(|r| r.matcher_s));
        self.layer("sweep.classifier_s", classifier);
        self.layer("sweep.classifier_us_per_move", classifier * 1e6 / moves);
        self.layer("sweep.class_changes", sum(|r| r.class_changes as f64));
        self.layer("sweep.mates_changed", sum(|r| r.mates_changed as f64));
        self.layer(
            "sweep.best_rank_frac",
            sum(|r| r.split_rank as f64 / r.nets as f64) / reps.len() as f64,
        );
        self.layer("igmatch.phase2_s", tr.cpu("igmatch.phase2"));
        self.layer(
            "trace.sweep_fiedler_share",
            (sweep + fiedler) / self.cpu_s(),
        );
        let mirrored = [
            "models.intersection_laplacian",
            "models.intersection_neighbors",
            "eigen.fiedler_metered",
            "ordering.order_by_component",
            "sweep.advance",
            "igmatch.phase2",
        ];
        let attributed: f64 = mirrored.iter().map(|n| tr.cpu(n)).sum();
        self.layer("trace.attributed_share", attributed / self.cpu_s());
    }

    /// Sets the traced CPU and its overhead over the untraced run.
    fn traced_cpu(&mut self, traced_cpu_s: f64) {
        self.layer("trace.cpu_s", traced_cpu_s);
        self.layer("trace.overhead_s", traced_cpu_s - self.cpu_s());
    }

    /// The result line's JSON: `correct`, tallies, and the metric set the
    /// run was asked for.
    fn to_json(&self, trace: bool) -> String {
        let (catalog, values) = if trace {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = if *name == "trace.unattributed" {
                    self.unattributed as f64
                } else {
                    values.get(name).copied().unwrap_or(0.0)
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A metric value as JSON: shortest round-trip digits, `null` if not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    // Every workload does a fixed amount of work, whatever `--seconds`
    // says: a run that ends on a clock would make its outcome depend on
    // timing. The flag is required and checked so every run states its
    // nominal length, but it does not bound the work.
    seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(Tracer::default);
    let outcome = match args.workload.as_str() {
        "suite-bisect" => suite::run(args.seed, tracer.as_ref()),
        "vcycle-kway4" => vcycle::run(args.seed, tracer.as_ref()),
        _ => serve::run(args.seed, tracer.as_ref()),
    };
    let mut run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match procfs::peak_rss_mb() {
        Ok(mb) => {
            run.e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let verified = run.ratios.len() as f64;
    run.e2e.insert("ratio_geomean", stats::geomean(&run.ratios));
    run.e2e
        .insert("ok_frac", verified / run.attempted.max(1) as f64);
    run.layer.insert(
        "goodput_rps",
        verified / run.passes.max(1) as f64 / run.layer["wall_s"],
    );
    eprintln!(
        "perfbench: {} seed {}: cpu_s {:.3} (passes {:?}) wall_s {:.3} setup_s {:.4} host.steal_s {:.2} ({} ops, {} failed)",
        args.workload,
        args.seed,
        run.e2e["cpu_s"],
        run.pass_cpu,
        run.layer["wall_s"],
        run.e2e["setup_s"],
        run.layer["host.steal_s"],
        run.attempted,
        run.failed
    );
    if let Some(tr) = &tracer {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", run.to_json(args.trace));
    ExitCode::SUCCESS
}
