//! `serve_mix`: an in-process `ola_serve::Server` (two workers) under two
//! closed-loop keep-alive clients sending seeded `sta` / `lint` / `verify`
//! queries, a bit under half of them fresh (cache fills) and the rest
//! repeats of the client's own earlier queries (cache hits).

use crate::common::{self, Cfg, Outcome};
use crate::{gen, stats, trace};
use ola_core::cache::CacheConfig;
use ola_core::obs::json::{self, JsonValue};
use ola_core::obs::sha256::{self, Sha256};
use ola_netlist::sta::lint;
use ola_netlist::{analyze, EquivVerdict, FpgaDelay};
use ola_serve::http::{self, HttpLimits, Request};
use ola_serve::{Server, ServerConfig};
use ola_synth::{
    elaborate, optimize, parse_dfg, ElabOptions, InputFmt, Limits, Query, SynthesizedDatapath,
    VariantSpec,
};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const CLIENTS: usize = 1;
const WORKERS: usize = 1;
/// Requests generated per client; a run never gets near the end of them.
const STREAM: usize = 50_000;
/// Share of requests that ask a query the client has not asked before.
const FRESH: f64 = 0.4;
/// How long a client keeps one connection and thread before reconnecting.
const SEGMENT: Duration = Duration::from_millis(500);
/// p95, not p99: about one request in twelve is a `verify` miss, whose
/// latency is heavy-tailed (median 2 ms, p95 50 ms, up to 0.3 s when the
/// BDD stage gives up), so p99 falls in the steep end of that tail and
/// moves by a fifth between seeds. At p95, `sta`, `lint` and `verify`
/// misses overlap.
const TAIL_PCT: f64 = 95.0;

/// One planned request: its body and whether the client asked it before.
struct Planned {
    body: String,
    repeat: bool,
}

/// Client `c`'s request stream. Each client names its inputs differently,
/// so clients never share a cache key and every repeat is a hit.
fn stream(seed: u64, c: usize, tiny: bool) -> Vec<Planned> {
    let mut rng = gen::rng(seed, 10 + c as u64);
    let vars: [&str; 5] =
        if c == 0 { ["a", "b", "c", "d", "e"] } else { ["p", "q", "r", "s", "t"] };
    let mut asked: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    (0..STREAM)
        .map(|_| {
            if !asked.is_empty() && !rng.gen_bool(FRESH) {
                let body = asked[rng.gen_range(0..asked.len())].clone();
                return Planned { body, repeat: true };
            }
            // A verify miss costs from tens of milliseconds to seconds (when
            // the BDD stage gives up and random vectors decide), so verify
            // queries are one fresh query in five and kept narrow.
            let (kind, width, products) = match rng.gen_range(0..5) {
                0 | 1 => ("sta", rng.gen_range(6..=16), rng.gen_range(2..=4)),
                2 | 3 => ("lint", rng.gen_range(6..=16), rng.gen_range(2..=4)),
                _ => ("verify", rng.gen_range(3..=4), rng.gen_range(2..=3)),
            };
            let expr = gen::sum_of_products(&mut rng, products, &vars);
            let style = if rng.gen_bool(0.5) { "online" } else { "conventional" };
            let width = if tiny { 3 } else { width };
            let body = gen::body(&[
                ("kind", gen::s(kind)),
                ("expr", gen::s(&expr)),
                ("width", width.to_string()),
                ("style", gen::s(style)),
                ("ts_points", "8".into()),
            ]);
            // A generated query can repeat an earlier one by chance; it is
            // then a repeat, so that every fresh query is a cache miss.
            if !seen.insert(body.clone()) {
                return Planned { body, repeat: true };
            }
            asked.push(body.clone());
            Planned { body, repeat: false }
        })
        .collect()
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        queue_depth: 16,
        request_deadline: common::OP_DEADLINE,
        read_timeout: Duration::from_secs(120),
        rate: None,
        cache: CacheConfig { capacity: 1 << 20, disk_dir: None, quiet: false },
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

/// One answered request.
struct Answer {
    op: usize,
    client: usize,
    body: String,
    repeat: bool,
    key: String,
    response: Arc<Vec<u8>>,
    latency_s: f64,
}

fn op_label(client: usize, op: usize, body: &str) -> String {
    format!("serve_mix client {client} op {op} {body}")
}

/// One client's closed loop over one connection, from op `start` until
/// `stop`: the next request goes out when the previous answer is in. Hits
/// are compared byte for byte with the first body seen for their key as
/// they arrive. Returns the answers, the failures and the next op.
fn client_loop(
    cfg: &Cfg,
    addr: SocketAddr,
    client: usize,
    plan: &[Planned],
    start: usize,
    stop: Instant,
    first_bodies: &Mutex<HashMap<String, Arc<Vec<u8>>>>,
) -> (Vec<Answer>, Vec<String>, usize) {
    let mut answers = Vec::new();
    let mut failures = Vec::new();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            return (answers, vec![format!("serve_mix client {client}: connect: {e}")], start + 1)
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(common::OP_DEADLINE));
    let mut reader = BufReader::new(stream.try_clone().expect("clone a connected socket"));
    let mut writer = stream;
    let limits = HttpLimits { max_body: 64 << 20, ..HttpLimits::default() };
    let limit = cfg.ops.map_or(plan.len(), |n| n.div_ceil(CLIENTS)).min(plan.len());
    let mut next = start;
    while next < limit && (cfg.ops.is_some() || Instant::now() < stop) {
        let op = next;
        next += 1;
        let p = &plan[op];
        let label = op_label(client, op, &p.body);
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            headers: Vec::new(),
            body: p.body.as_bytes().to_vec(),
        };
        let t0 = Instant::now();
        let resp = {
            // Only hits are spanned: misses are replayed layer by layer
            // after the timed phase.
            let _op = p.repeat.then(trace::op);
            let _http = p.repeat.then(|| trace::span("serve.http"));
            http::write_request(&mut writer, &req).map_err(|e| e.to_string()).and_then(|()| {
                http::read_response(&mut reader, &limits).map_err(|e| format!("{e:?}"))
            })
        };
        let latency_s = t0.elapsed().as_secs_f64();
        let resp = match resp {
            Ok(Some(r)) => r,
            Ok(None) => {
                failures.push(format!("{label}: connection closed"));
                break;
            }
            Err(e) => {
                failures.push(format!("{label}: {e}"));
                break;
            }
        };
        if resp.status != 200 {
            failures.push(format!(
                "{label}: status {} {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
            continue;
        }
        let key = http::header(&resp.headers, "X-Ola-Key").unwrap_or_default().to_owned();
        let lookup = http::header(&resp.headers, "X-Ola-Cache").unwrap_or_default().to_owned();
        let want = if p.repeat { "hit" } else { "miss" };
        if lookup != want {
            failures.push(format!("{label}: cache lookup {lookup:?}, expected {want:?}"));
        }
        // Answers keep the first body seen for their key, so a run holds one
        // copy per distinct query.
        let response = {
            let mut firsts = first_bodies.lock().unwrap_or_else(PoisonError::into_inner);
            let first = firsts.entry(key.clone()).or_insert_with(|| Arc::new(resp.body.clone()));
            if first.as_slice() != resp.body.as_slice() {
                failures.push(format!("{label}: body differs from the first body for key {key}"));
            }
            Arc::clone(first)
        };
        answers.push(Answer {
            op,
            client,
            body: p.body.clone(),
            repeat: p.repeat,
            key,
            response,
            latency_s,
        });
    }
    (answers, failures, next)
}

/// A started server, drained and joined when dropped.
struct Running(Option<Server>);

impl Running {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.drain_and_join();
        }
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    // The set-up starts a server and plans the request streams. It is
    // re-run between segments (`common::Setups`); each of those servers
    // is drained once the clock has stopped.
    let ((server, plans), mut setups) = common::Setups::start(|| {
        let server = Running(Some(start_server()));
        let plans: Vec<Vec<Planned>> =
            (0..CLIENTS).map(|c| stream(cfg.seed, c, cfg.tiny)).collect();
        (server, plans)
    });
    let addr = server.addr();
    let first_bodies: Mutex<HashMap<String, Arc<Vec<u8>>>> = Mutex::new(HashMap::new());
    let before = common::Snapshot::take();
    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    // Wall time of the set-up samples, left out of the timed phase.
    let mut paused = 0.0;
    let every = cfg.seconds / common::SETUP_SAMPLES as f64;
    // The client reconnects from a fresh thread every segment, and the
    // set-up samples are taken between segments.
    let mut per_client: Vec<(Vec<Answer>, Vec<String>)> =
        (0..CLIENTS).map(|_| (Vec::new(), Vec::new())).collect();
    let mut next = [0usize; CLIENTS];
    loop {
        let active = t0.elapsed().as_secs_f64() - paused;
        if cfg.ops.is_none() && active >= every * setups.times.len() as f64 {
            paused += setups.sample();
        }
        let left = Duration::from_secs_f64((cfg.seconds - active).max(0.0));
        let stop = Instant::now() + SEGMENT.min(left);
        let segment: Vec<(Vec<Answer>, Vec<String>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    let (firsts, start) = (&first_bodies, next[c]);
                    scope.spawn(move || client_loop(cfg, addr, c, plan, start, stop, firsts))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
        });
        for (c, (a, f, n)) in segment.into_iter().enumerate() {
            per_client[c].0.extend(a);
            per_client[c].1.extend(f);
            next[c] = n;
        }
        if cfg.ops.is_some() || t0.elapsed().as_secs_f64() - paused >= cfg.seconds {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64() - paused;
    let cpu_s = stats::process_cpu_s() - cpu0 - setups.cpu_s;
    let after = common::Snapshot::take();
    drop(server);
    let setup_s = setups.times;

    let mut answers: Vec<Answer> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (a, f) in per_client {
        answers.extend(a);
        failures.extend(f);
    }
    let (mut counts, sim_points) = common::layer_counts(&before, &after);
    let mut hits_us: Vec<f64> =
        answers.iter().filter(|a| a.repeat).map(|a| 1e6 * a.latency_s).collect();
    hits_us.sort_by(f64::total_cmp);
    let timings = [("serve.http.hit_rtt_us_p50".to_owned(), stats::quantile(&hits_us, 0.5))].into();

    // Digest over each client's answers in order; the manifest (which
    // carries a creation time) stays out, the result goes in.
    let mut digest = Sha256::new();
    let mut attempted = answers.len() as u64 + failures.len() as u64;
    let mut method_counts: HashMap<String, f64> = HashMap::new();
    let mut parsed: Vec<(usize, JsonValue)> = Vec::new();
    let mut result_hash: HashMap<&str, String> = HashMap::new();
    for (i, a) in answers.iter().enumerate().filter(|(_, a)| !a.repeat) {
        let label = op_label(a.client, a.op, &a.body);
        let doc = match std::str::from_utf8(&a.response)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(t).map_err(|e| e.to_string()))
        {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("{label}: unparseable body: {e}"));
                continue;
            }
        };
        let result = doc.get("result").map_or_else(String::new, JsonValue::render);
        result_hash.insert(&a.key, sha256::hex_digest(result.as_bytes()));
        parsed.push((i, doc));
    }
    for a in &answers {
        digest.update(result_hash.get(a.key.as_str()).map_or("", String::as_str).as_bytes());
    }
    // Checks on every miss (each key's first body): the manifest's recorded
    // SHA-256 re-hashes, verify answers are not mismatches, and the result
    // equals an in-process run of the same query (layer by layer in the
    // traced run).
    attempted += 1;
    let checks: Vec<Result<(), String>> =
        ola_core::parallel::parallel_map(&parsed, |_, (i, doc)| {
            let a = &answers[*i];
            let label = op_label(a.client, a.op, &a.body);
            common::guarded(&label, || check_miss(cfg, a, doc))
        });
    for (c, (_, doc)) in checks.into_iter().zip(&parsed) {
        if let Err(e) = c {
            failures.push(e);
        }
        let result = doc.get("result");
        if result.and_then(|r| r.get("kind")).and_then(JsonValue::as_str) == Some("verify") {
            let r = result.expect("checked above");
            let verdict = r.get("passes_verdict").and_then(JsonValue::as_str).unwrap_or("");
            if verdict == "skipped" {
                *method_counts.entry("netlist.equiv.skipped".into()).or_default() += 1.0;
            } else {
                *method_counts.entry("netlist.equiv.proofs".into()).or_default() += 1.0;
                let method = r.get("method").and_then(JsonValue::as_str).unwrap_or("none");
                *method_counts.entry(format!("netlist.equiv.by_method.{method}")).or_default() +=
                    1.0;
            }
        }
    }
    for (k, v) in method_counts {
        counts.insert(k, v);
    }
    if cfg.traced {
        replay_misses(
            &parsed.iter().map(|(i, _)| &answers[*i]).collect::<Vec<_>>(),
            &mut failures,
            &mut counts,
        );
    }
    Outcome {
        setup_s,
        tail_pct: TAIL_PCT,
        lat_s: answers.iter().map(|a| a.latency_s).collect(),
        wall_s,
        cpu_s,
        attempted,
        failures,
        sim_points,
        digest: common::hex(digest),
        counts,
        timings,
    }
}

fn query_of(body: &str) -> Result<Query, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    Query::from_json(&doc, &Limits::default()).map_err(|e| e.to_string())
}

fn check_miss(cfg: &Cfg, a: &Answer, doc: &JsonValue) -> Result<(), String> {
    let result = doc.get("result").ok_or("no result in body")?;
    let manifest = doc.get("manifest").ok_or("no manifest in body")?;
    let recorded = manifest
        .get("outputs")
        .and_then(JsonValue::as_array)
        .and_then(|o| o.first())
        .and_then(|o| o.get("sha256"))
        .and_then(JsonValue::as_str)
        .ok_or("manifest records no output hash")?;
    let rendered = result.render();
    if sha256::hex_digest(rendered.as_bytes()) != recorded {
        return Err(format!("manifest hash {recorded} does not re-hash (key {})", a.key));
    }
    if result.get("passes_verdict").and_then(JsonValue::as_str) == Some("mismatch") {
        return Err("verify found a pass-equivalence mismatch".into());
    }
    if !cfg.traced {
        let local = query_of(&a.body)?.run().map_err(|e| e.to_string())?.render();
        if local != rendered {
            return Err("served result differs from an in-process Query::run".into());
        }
    }
    Ok(())
}

/// Parse, optimize and elaborate one variant, each in its layer's span.
fn compile(spec: &VariantSpec, nets: &mut usize) -> Result<SynthesizedDatapath, String> {
    let fmt = InputFmt { msd_pos: spec.msd_pos, digits: spec.width };
    let dfg =
        trace::timed("synth.parse", || parse_dfg(&spec.expr, fmt)).map_err(|e| e.to_string())?;
    let opt = trace::timed("synth.optimize", || optimize(&dfg, spec.allocation));
    let dp = trace::timed("synth.elaborate", || {
        elaborate(&opt, &ElabOptions::new(spec.style).with_frac_digits(spec.frac_digits))
    });
    *nets += dp.netlist.len();
    Ok(dp)
}

fn u64s(v: &[u64]) -> JsonValue {
    JsonValue::Array(v.iter().map(|&t| JsonValue::U64(t)).collect())
}

/// `Query::run` for the `sta`, `lint` and `verify` kinds, one layer call at
/// a time, rendering the same document.
fn replay(q: &Query, nets: &mut usize) -> Result<JsonValue, String> {
    let delay = FpgaDelay::default();
    match q {
        Query::Sta { spec, ts_points } => {
            let dp = compile(spec, nets)?;
            let report = trace::timed("netlist.sta", || analyze(&dp.netlist, &delay));
            let critical = report.critical_path();
            let ts_grid = ola_synth::explore::ts_grid(critical.max(1), *ts_points);
            let digits = dp.output_digit_groups();
            let cert = trace::timed("core.memo", || {
                ola_core::memo::certification(&dp.netlist, &delay, &digits, &ts_grid)
            })
            .map_err(|e| e.to_string())?;
            let rows = ts_grid
                .iter()
                .enumerate()
                .map(|(i, &ts)| {
                    JsonValue::Object(vec![
                        ("ts".into(), JsonValue::U64(ts)),
                        ("certified".into(), JsonValue::U64(cert.certified_count(i) as u64)),
                        ("all_certified".into(), JsonValue::Bool(cert.all_certified(i))),
                        (
                            "at_risk".into(),
                            JsonValue::Array(
                                cert.at_risk(i).iter().map(|&k| JsonValue::U64(k as u64)).collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Ok(JsonValue::Object(vec![
                ("kind".into(), JsonValue::str("sta")),
                ("critical_path".into(), JsonValue::U64(critical)),
                (
                    "rated_mhz".into(),
                    report.rated_frequency().map_or(JsonValue::Null, JsonValue::F64),
                ),
                ("digits".into(), JsonValue::U64(cert.digits() as u64)),
                ("certification".into(), JsonValue::Array(rows)),
            ]))
        }
        Query::Lint { spec } => {
            let dp = compile(spec, nets)?;
            let issues: Vec<JsonValue> = trace::timed("netlist.lint", || lint::check(&dp.netlist))
                .iter()
                .map(|issue| {
                    JsonValue::Object(vec![
                        ("code".into(), JsonValue::str(issue.code())),
                        ("message".into(), JsonValue::str(issue.to_string())),
                    ])
                })
                .collect();
            Ok(JsonValue::Object(vec![
                ("kind".into(), JsonValue::str("lint")),
                ("clean".into(), JsonValue::Bool(issues.is_empty())),
                ("issues".into(), JsonValue::Array(issues)),
            ]))
        }
        Query::Verify { spec, ts_points } => {
            let fmt = InputFmt { msd_pos: spec.msd_pos, digits: spec.width };
            let dfg = trace::timed("synth.parse", || parse_dfg(&spec.expr, fmt))
                .map_err(|e| e.to_string())?;
            let opt = trace::timed("synth.optimize", || optimize(&dfg, spec.allocation));
            let proof =
                trace::timed("netlist.equiv", || ola_synth::prove_pass_equivalence(&dfg, &opt));
            let (verdict, method, cex) = match &proof {
                None => ("skipped", JsonValue::Null, JsonValue::Null),
                Some(v) => (
                    match v {
                        v if v.is_proof() && v.is_equivalent() => "equivalent",
                        v if v.is_equivalent() => "probably-equivalent",
                        _ => "mismatch",
                    },
                    JsonValue::str(v.method().name()),
                    match v {
                        EquivVerdict::Mismatch { counterexample, .. } => {
                            JsonValue::str(counterexample.to_string())
                        }
                        _ => JsonValue::Null,
                    },
                ),
            };
            let report = trace::timed("synth.absint", || ola_synth::interpret(&opt, spec.style));
            let settled: Vec<JsonValue> =
                report.settled_error_bounds().iter().map(|q| JsonValue::F64(q.to_f64())).collect();
            let dp = trace::timed("synth.elaborate", || {
                elaborate(&opt, &ElabOptions::new(spec.style).with_frac_digits(spec.frac_digits))
            });
            *nets += dp.netlist.len();
            let (grid, per_ts) = if dp.netlist.logic_gate_count() == 0 {
                (Vec::new(), Vec::new())
            } else {
                let critical = trace::timed("netlist.sta", || analyze(&dp.netlist, &delay))
                    .critical_path()
                    .max(1);
                let grid = ola_synth::explore::ts_grid(critical, *ts_points);
                let bounds =
                    trace::timed("synth.absint", || ola_synth::sampling_bounds(&dp, &delay, &grid))
                        .map_err(|e| e.to_string())?;
                let rows = (0..grid.len()).map(|i| JsonValue::F64(bounds.total_f64(i))).collect();
                (grid, rows)
            };
            Ok(JsonValue::Object(vec![
                ("kind".into(), JsonValue::str("verify")),
                ("passes_verdict".into(), JsonValue::str(verdict)),
                ("method".into(), method),
                ("counterexample".into(), cex),
                ("settled_exact".into(), JsonValue::Bool(report.settled_exact())),
                ("settled_error_bounds".into(), JsonValue::Array(settled)),
                ("ts".into(), u64s(&grid)),
                ("error_bound".into(), JsonValue::Array(per_ts)),
            ]))
        }
        other => Err(format!("serve_mix generates no {} queries", other.kind())),
    }
}

/// Replays every miss through the layers, in request order, as its own
/// traced op, and checks the replay against the served result.
fn replay_misses(
    misses: &[&Answer],
    failures: &mut Vec<String>,
    counts: &mut std::collections::BTreeMap<String, f64>,
) {
    let mut nets = 0usize;
    for a in misses {
        let label = op_label(a.client, a.op, &a.body);
        let served = json::parse(&String::from_utf8_lossy(&a.response))
            .ok()
            .and_then(|d| d.get("result").map(JsonValue::render));
        let result = {
            let _op = trace::op();
            common::guarded(&label, || replay(&query_of(&a.body)?, &mut nets))
        };
        match (result, served) {
            (Ok(r), Some(s)) if r.render() == s => {}
            (Ok(_), _) => {
                failures.push(format!("{label}: layer replay differs from the served result"))
            }
            (Err(e), _) => failures.push(e),
        }
    }
    counts.insert("synth.elaborate.nets".into(), nets as f64);
}
