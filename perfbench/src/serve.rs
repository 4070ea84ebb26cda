//! `serve-small`: in-process `Service::handle_line` driven by two
//! closed-loop clients against one admission worker. Three requests in
//! four repeat one of four hot netlists (cache hits); every fourth is a
//! fresh netlist (miss, insert, and past 32 entries an eviction).
//!
//! The hot netlists are the same for every seed and the fresh ones come
//! from the seed. The hot set carries three quarters of the requests, so
//! seeding it made `cpu_s` swing by ±10% from seed to seed (2-vCPU Xeon
//! VM).
//!
//! Nothing here depends on timing: no request carries a deadline, the
//! insurance and wall caps are far above any request's cost, and the
//! queue holds both clients, so no request can be shed or degraded.

use crate::check::{check_bisection, sides_hash};
use crate::igreplay;
use crate::procfs::process_cpu_s;
use crate::span::Tracer;
use crate::stats::quantile;
use crate::{measure, Run};
use np_core::IgMatchOptions;
use np_netlist::generate::{generate, GeneratorConfig};
use np_netlist::io::{parse_hgr, to_hgr_string};
use np_netlist::rng::derive_seed;
use np_netlist::{Hypergraph, Side};
use np_serve::json::{self, Value};
use np_serve::{ServeConfig, Service};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const REQUESTS_PER_CLIENT: usize = 150;
const HOT: usize = 4;
const MODULES: usize = 200;
const NETS: usize = 220;
const RESTARTS: u64 = 2;
/// Base generator seed of the hot set.
const HOT_SEED: u64 = 0x4E07;

/// One distinct netlist: its request seed, text and parsed hypergraph.
pub struct Netlist {
    seed: u64,
    text: String,
    hg: Hypergraph,
}

/// The inputs: distinct netlists (hot ones first) and, per client, each
/// request's netlist index and protocol line, in order.
pub struct Inputs {
    netlists: Vec<Netlist>,
    schedule: Vec<Vec<(usize, String)>>,
}

/// Per client, the netlist of each request: every fourth is fresh, the
/// rest cycle through the hot set (clients start at different offsets).
fn schedule(per_client: usize) -> (Vec<Vec<usize>>, usize) {
    let mut next_fresh = HOT;
    let plan = (0..CLIENTS)
        .map(|c| {
            let mut hot = 2 * c;
            (0..per_client)
                .map(|j| {
                    if j % 4 == 3 {
                        next_fresh += 1;
                        next_fresh - 1
                    } else {
                        hot += 1;
                        (hot - 1) % HOT
                    }
                })
                .collect()
        })
        .collect();
    (plan, next_fresh)
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    setup_sized(seed, REQUESTS_PER_CLIENT)
}

fn setup_sized(seed: u64, per_client: usize) -> Result<Inputs, String> {
    let (schedule, distinct) = schedule(per_client);
    let netlists = (0..distinct)
        .map(|i| {
            let s = derive_seed(if i < HOT { HOT_SEED } else { seed }, i as u64);
            let g = generate(&GeneratorConfig::new(MODULES, NETS, s));
            // the protocol's integers are exact doubles: keep 53 bits
            let s = s & ((1 << 53) - 1);
            let text = to_hgr_string(&g);
            let hg = parse_hgr(&text).map_err(|e| e.to_string())?;
            if hg != g {
                return Err(format!("netlist {i}: parse(serialise(g)) differs from g"));
            }
            Ok(Netlist { seed: s, text, hg })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let schedule = schedule
        .into_iter()
        .enumerate()
        .map(|(c, plan)| {
            plan.into_iter()
                .enumerate()
                .map(|(j, n)| (n, request_line(&format!("c{c}-{j}"), &netlists[n])))
                .collect()
        })
        .collect();
    Ok(Inputs { netlists, schedule })
}

/// The service under test: one worker, room for every client in the
/// queue, and caps no request can reach, so outcomes never depend on
/// timing.
pub fn service() -> Service {
    Service::new(ServeConfig {
        workers: 1,
        queue: CLIENTS,
        default_restarts: RESTARTS as usize,
        max_wall: Duration::from_secs(600),
        insurance_wall: Duration::from_secs(600),
        span_capacity: 1 << 14,
        ..ServeConfig::default()
    })
}

fn request_line(id: &str, n: &Netlist) -> String {
    json::Obj::new()
        .str("id", id)
        .str("hgr", &n.text)
        .int("restarts", RESTARTS)
        .int("seed", n.seed)
        .render()
}

/// One answered request.
struct Answer {
    netlist: usize,
    frame: String,
    latency: Duration,
}

/// Runs every client's schedule against `svc`; answers in client order.
fn drive(svc: &Service, inputs: &Inputs, tr: Option<&Tracer>) -> Vec<Answer> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .schedule
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                scope.spawn(move || {
                    plan.iter()
                        .enumerate()
                        .map(|(j, (n, line))| {
                            let op = (c * REQUESTS_PER_CLIENT + j) as u64;
                            let span = tr.map(|t| t.open("serve.handle_line", op, None));
                            let got = Mutex::new(None);
                            let t0 = Instant::now();
                            svc.handle_line(line, &|frame: &str| {
                                *got.lock().expect("frame slot poisoned") = Some(frame.to_string());
                            });
                            let latency = t0.elapsed();
                            if let (Some(t), Some(s)) = (tr, span) {
                                t.close(s);
                            }
                            Answer {
                                netlist: *n,
                                frame: got
                                    .into_inner()
                                    .expect("frame slot poisoned")
                                    .unwrap_or_default(),
                                latency,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Checks one terminal frame against the netlist it answers: a clean
/// result whose cut and side sizes match a recount from the returned
/// sides. Returns (ratio, partition hash, cache hit).
fn check_frame(doc: &Value, hg: &Hypergraph) -> Result<(f64, u64, bool), String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("frame lacks '{k}'"));
    let kind = field("frame")?.as_str().unwrap_or("");
    if kind != "result" {
        return Err(format!(
            "{kind} frame: {}",
            doc.get("reason").and_then(Value::as_str).unwrap_or("")
        ));
    }
    if field("degraded")?.as_bool() != Some(false) {
        return Err("degraded result".into());
    }
    let int =
        |k: &str| field(k).and_then(|v| v.as_u64().map(|x| x as usize).ok_or(format!("bad '{k}'")));
    let digits = field("partition")?.as_str().ok_or("bad 'partition'")?;
    let sides: Vec<Side> = digits
        .bytes()
        .map(|b| match b {
            b'0' => Ok(Side::Left),
            b'1' => Ok(Side::Right),
            _ => Err("partition digit not 0/1".to_string()),
        })
        .collect::<Result<_, _>>()?;
    let (cut, left, right) = (int("cut")?, int("left")?, int("right")?);
    check_bisection(hg, &sides, cut, left, right)?;
    let ratio = cut as f64 / (left as f64 * right as f64);
    let claimed = field("ratio")?.as_f64().ok_or("bad 'ratio'")?;
    if (claimed - ratio).abs() > 1e-9 * ratio.max(1e-12) {
        return Err(format!("claimed ratio {claimed}, recount {ratio}"));
    }
    let hit = field("cache_hit")?.as_bool().ok_or("bad 'cache_hit'")?;
    Ok((ratio, sides_hash(&sides), hit))
}

/// The per-request verdicts of one session plus the timing-independence
/// guard: every answer for the same netlist must be the same partition,
/// and each distinct netlist misses the cache exactly once.
struct Verdicts {
    /// Per request: its verified ratio, or why it failed.
    outcomes: Vec<Result<f64, String>>,
    hashes: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

fn verify(inputs: &Inputs, answers: &[Answer]) -> Verdicts {
    let mut v = Verdicts {
        outcomes: Vec::new(),
        hashes: Vec::new(),
        hits: 0,
        misses: 0,
    };
    let mut first: BTreeMap<usize, u64> = BTreeMap::new();
    for a in answers {
        let outcome = json::parse(&a.frame)
            .map_err(|e| format!("unparsable frame: {e}"))
            .and_then(|doc| check_frame(&doc, &inputs.netlists[a.netlist].hg))
            .and_then(|(ratio, hash, hit)| {
                if hit {
                    v.hits += 1;
                } else {
                    v.misses += 1;
                }
                if *first.entry(a.netlist).or_insert(hash) != hash {
                    return Err(format!(
                        "netlist {} answered with two different partitions",
                        a.netlist
                    ));
                }
                Ok((ratio, hash))
            });
        v.hashes.push(outcome.as_ref().ok().map(|o| o.1));
        v.outcomes.push(outcome.map(|o| o.0));
    }
    v
}

/// A counter or histogram field of a `/metrics` v2 frame.
fn metric(doc: &Value, path: &[&str]) -> Result<f64, String> {
    let mut v = doc;
    for k in path {
        v = v
            .get(k)
            .ok_or_else(|| format!("metrics frame lacks {}", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("metrics field {} is not a number", path.join(".")))
}

/// Sessions per run, each against a fresh service; the median session
/// is reported.
const PASSES: usize = 3;

pub fn run(seed: u64, trace: Option<&Tracer>) -> Result<Run, String> {
    let made = || {
        Ok((
            setup(seed)?,
            (0..PASSES).map(|_| service()).collect::<Vec<_>>(),
        ))
    };
    let ((inputs, services), sessions, timing) = measure(
        PASSES,
        made,
        process_cpu_s,
        |(inputs, services): &(Inputs, Vec<Service>), p| drive(&services[p], inputs, None),
    )?;

    let mut run = Run::new(&timing);
    let verdicts: Vec<Verdicts> = sessions
        .iter()
        .map(|answers| verify(&inputs, answers))
        .collect();
    for (p, (v, svc)) in verdicts.iter().zip(&services).enumerate() {
        for (i, outcome) in v.outcomes.iter().enumerate() {
            run.record(&format!("session {p} request {i}"), outcome.clone());
        }
        if v.hashes != verdicts[0].hashes {
            run.fail_run(&format!("session {p} answered differently from session 0"));
        }
        if v.misses != inputs.netlists.len() as u64 {
            run.fail_run(&format!(
                "session {p}: {} cache misses for {} distinct netlists",
                v.misses,
                inputs.netlists.len()
            ));
        }
        let m = svc.metrics();
        let shed = m.shed.load(std::sync::atomic::Ordering::Relaxed);
        let degraded = m.degraded.load(std::sync::atomic::Ordering::Relaxed);
        if shed + degraded > 0 {
            run.fail_run(&format!(
                "session {p}: {shed} shed and {degraded} degraded requests"
            ));
        }
    }
    let latencies: Vec<f64> = sessions
        .iter()
        .flatten()
        .map(|a| a.latency.as_secs_f64() * 1e3)
        .collect();
    run.layer("serve.p50_ms", quantile(&latencies, 0.50));
    run.layer("serve.p95_ms", quantile(&latencies, 0.95));
    run.layer("serve.latency_samples", latencies.len() as f64);
    eprintln!(
        "perfbench: serve-small latency p50 {:.2} ms, p95 {:.2} ms over {} requests; {} hits, {} misses per session",
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.95),
        latencies.len(),
        verdicts[0].hits,
        verdicts[0].misses
    );

    if let Some(tr) = trace {
        traced(tr, &mut run, &inputs, &sessions[0], &verdicts[0])?;
    }
    Ok(run)
}

/// The traced replay: the same two clients against a fresh service with
/// a span per request and per frame parse, then the service's own
/// `/metrics` and `/trace` frames; then IG-Match layer by layer on each
/// distinct netlist.
fn traced(
    tr: &Tracer,
    run: &mut Run,
    inputs: &Inputs,
    untraced: &[Answer],
    verdicts: &Verdicts,
) -> Result<(), String> {
    let svc = service();
    let cpu0 = process_cpu_s()?;
    let wall0 = Instant::now();
    let answers = drive(&svc, inputs, Some(tr));
    let session_s = wall0.elapsed().as_secs_f64();
    let mut parse_s = 0.0;
    for (i, a) in answers.iter().enumerate() {
        let t0 = Instant::now();
        let doc = tr.span("serve.json_parse", i as u64, None, || json::parse(&a.frame));
        parse_s += t0.elapsed().as_secs_f64();
        std::hint::black_box(doc.ok());
    }
    run.traced_cpu(process_cpu_s()? - cpu0);

    let replayed = verify(inputs, &answers);
    let same_by_request = answers
        .iter()
        .zip(untraced)
        .all(|(a, b)| a.netlist == b.netlist)
        && replayed.hashes == verdicts.hashes;
    if !same_by_request || replayed.hits != verdicts.hits || replayed.misses != verdicts.misses {
        run.unattributed("serve", "the request stream");
    }

    let frame = |line: &str| {
        let out = Mutex::new(String::new());
        svc.handle_line(line, &|f: &str| {
            *out.lock().expect("frame slot poisoned") = f.to_string()
        });
        json::parse(&out.into_inner().expect("frame slot poisoned"))
            .map_err(|e| format!("{line} frame: {e}"))
    };
    let metrics = frame("/metrics")?;
    let spans = frame("/trace")?;
    let count = metric(&metrics, &["queue_wait", "count"])?.max(1.0);
    run.layer(
        "serve.queue_wait_ms",
        metric(&metrics, &["queue_wait", "sum_us"])? / count / 1e3,
    );
    let clean = metric(&metrics, &["wall_by_tier", "clean", "count"])?.max(1.0);
    let exec_s = metric(&metrics, &["wall_by_tier", "clean", "sum_us"])? / 1e6;
    run.layer("serve.exec_ms", exec_s / clean * 1e3);
    run.layer("serve.json_parse_ms", parse_s * 1e3 / answers.len() as f64);
    let hits = metric(&metrics, &["cache_hits"])?;
    run.layer(
        "serve.cache_hit_ratio",
        hits / (hits + metric(&metrics, &["cache_misses"])?),
    );
    run.layer(
        "serve.cache_evictions",
        metric(&metrics, &["cache_evictions"])?,
    );
    run.layer("serve.degraded", metric(&metrics, &["degraded"])?);
    run.layer("serve.shed", metric(&metrics, &["shed"])?);
    if metric(&spans, &["dropped"])? > 0.0 {
        run.unattributed("runner", "the span ring (spans dropped)");
    }
    let attempts = match spans.get("spans") {
        Some(Value::Array(all)) => all
            .iter()
            .filter(|s| s.get("kind").and_then(Value::as_str) == Some("attempt"))
            .count(),
        _ => return Err("trace frame lacks spans".into()),
    };
    run.layer("runner.attempts", attempts as f64);

    // IG-Match layer by layer on every distinct netlist, with the
    // Lanczos seed of the request's first portfolio attempt, checked
    // against an untraced `ig_match` with the same options
    let mut reps = Vec::new();
    for (i, n) in inputs.netlists.iter().enumerate() {
        let mut opts = IgMatchOptions::default();
        opts.lanczos.seed = derive_seed(derive_seed(n.seed, 0), 0);
        let root = tr.open("serve.netlist_igmatch_replay", i as u64, None);
        let rep = igreplay::replay(tr, i as u64, Some(root), &n.text, &opts)?;
        tr.close(root);
        let direct = np_core::ig_match(&n.hg, &opts).map_err(|e| e.to_string())?;
        if sides_hash(direct.result.partition.sides()) != rep.partition_hash
            || direct.matching_size != rep.matching_size
        {
            run.unattributed("igmatch", &format!("serve netlist {i}"));
        }
        reps.push(rep);
    }
    run.ig_layers(tr, &reps);
    // the share of the session the one worker spent executing requests
    run.layer("trace.attributed_share", exec_s / session_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(inputs: &Inputs) -> (Verdicts, Vec<Answer>) {
        let answers = drive(&service(), inputs, None);
        (verify(inputs, &answers), answers)
    }

    #[test]
    fn two_runs_of_one_seed_agree() {
        let inputs = setup_sized(7, 8).unwrap();
        let (a, _) = answers(&inputs);
        let (b, _) = answers(&inputs);
        assert_eq!(a.outcomes.len(), 16);
        assert!(a.outcomes.iter().chain(&b.outcomes).all(Result::is_ok));
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.hashes, b.hashes);
        assert_eq!((a.hits, a.misses), (b.hits, b.misses));
        assert_eq!(a.misses, inputs.netlists.len() as u64);
    }

    #[test]
    fn corrupted_frame_is_caught() {
        let inputs = setup_sized(3, 1).unwrap();
        let (_, answers) = answers(&inputs);
        let a = &answers[0];
        let hg = &inputs.netlists[a.netlist].hg;
        assert!(check_frame(&json::parse(&a.frame).unwrap(), hg).is_ok());
        // flip one module's side in the returned partition
        let flipped = if a.frame.contains("\"partition\":\"0") {
            a.frame
                .replacen("\"partition\":\"0", "\"partition\":\"1", 1)
        } else {
            a.frame
                .replacen("\"partition\":\"1", "\"partition\":\"0", 1)
        };
        assert!(check_frame(&json::parse(&flipped).unwrap(), hg).is_err());
        // a degraded or shed answer fails the run
        let degraded = a
            .frame
            .replacen("\"degraded\":false", "\"degraded\":true", 1);
        assert!(check_frame(&json::parse(&degraded).unwrap(), hg).is_err());
        let shed = np_serve::proto::shed_frame("x", 1, 2);
        assert!(check_frame(&json::parse(&shed).unwrap(), hg).is_err());
    }
}
