//! `ola-perfbench`: the end-to-end and per-layer benchmark of the ola
//! workspace. See `README.md` beside this package for the workloads, the
//! metric table and the layer → end-to-end map.
//!
//! ```text
//! ola-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ola-perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output check
//! or op deadline makes the exit code non-zero and names the workload and
//! the op on standard error.

mod campaign;
mod common;
mod gen;
mod jitter;
mod serve;
mod stats;
mod sweep;
mod trace;

use common::{Cfg, Outcome};
use ola_core::obs::json::{self, JsonValue};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["sweep_batch", "jitter_event", "serve_mix", "fault_campaign"];

/// Worker threads every workload runs with (`OLA_THREADS`). One: on a
/// two-core host shared with other tenants, two busy threads wait on each
/// other whenever either core is slowed, and op latencies spread further.
const THREADS: &str = "1";

/// Wall-clock budget of one invocation; past it the run aborts with a
/// message instead of hanging.
const DEFAULT_BUDGET_S: u64 = 170;

/// Wall-clock budget of the self-test, which runs sixteen small child runs.
const SELF_TEST_BUDGET_S: u64 = 900;

fn usage() -> ! {
    eprintln!(
        "usage: ola-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      ola-perfbench --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    cfg: Cfg,
    budget_s: u64,
    self_test: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        cfg: Cfg { seed: 0, seconds: 10.0, traced: false, ops: None, tiny: false },
        budget_s: DEFAULT_BUDGET_S,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.cfg.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            // Fixed op count instead of a time limit, and tiny op sizes:
            // the determinism self-test's settings.
            "--ops" => args.cfg.ops = Some(value().parse().unwrap_or_else(|_| usage())),
            "--tiny" => args.cfg.tiny = true,
            "--budget-s" => args.budget_s = value().parse().unwrap_or_else(|_| usage()),
            "--self-test" => args.self_test = true,
            _ => usage(),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    if args.cfg.seconds.is_nan() || args.cfg.seconds <= 0.0 {
        usage();
    }
    args
}

/// Pins the environment the library reads, so that only `--seed` varies a
/// run: two worker threads, the default lane width, no disk cache tier, no
/// chaos hooks, no rewrite proofs and no live trace output.
fn pin_environment() {
    for (key, _) in std::env::vars() {
        if key.starts_with("OLA_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("OLA_THREADS", THREADS);
}

/// Set in the environment of a run that already runs pinned.
const PINNED_VAR: &str = "PERFBENCH_PINNED";

/// Re-runs this invocation under `taskset`, pinned to the last CPU the
/// process may use, and returns its exit code; `None` when it already runs
/// pinned or `taskset` cannot pin it, and the run goes on unpinned. Pinned,
/// the serving workload's client and worker threads share a core: left to
/// the scheduler, a run's hit latency settled at 40 or at 80 µs, depending
/// on whether the two threads woke each other on one core or across two.
fn rerun_pinned() -> Option<ExitCode> {
    if std::env::var_os(PINNED_VAR).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let taskset = |program: &std::ffi::OsStr| {
        let mut cmd = Command::new("taskset");
        cmd.arg("-c").arg(cpu.to_string()).arg(program);
        cmd
    };
    let works = taskset("true".as_ref())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !works {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let run =
        taskset(exe.as_os_str()).args(std::env::args_os().skip(1)).env(PINNED_VAR, "1").status();
    Some(match run {
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| u8::try_from(c).unwrap_or(1))),
        Err(e) => {
            eprintln!("[ola-perfbench] pinned re-run failed to start: {e}");
            ExitCode::from(1)
        }
    })
}

fn start_watchdog(budget_s: u64, workload: String) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(budget_s));
        eprintln!("[ola-perfbench] {workload}: run exceeded its {budget_s} s budget; aborting");
        std::process::exit(3);
    });
}

fn num(v: f64) -> JsonValue {
    JsonValue::F64(v)
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::Object(vec![("value".into(), num(value)), ("unit".into(), JsonValue::str(unit))])
}

/// The end-to-end metrics of an untraced run, with units.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat = o.lat_s.clone();
    lat.sort_by(f64::total_cmp);
    let ops = lat.len().max(1) as f64;
    vec![
        ("setup_s", stats::median(&o.setup_s), "s"),
        ("ops_per_s", lat.len() as f64 / o.wall_s.max(1e-9), "1/s"),
        ("latency_p50_ms", 1e3 * stats::quantile(&lat, 0.5), "ms"),
        ("latency_tail_ms", 1e3 * stats::tail(&lat, o.tail_pct).0, "ms"),
        ("cpu_ms_per_op", 1e3 * o.cpu_s / ops, "ms"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics of a traced run: span self times, counts and the
/// tracing overhead against an untraced run of the same seed.
fn per_layer(
    o: &Outcome,
    prof: &trace::Profile,
    untraced_ops_per_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    for layer in common::LAYERS {
        let busy = prof.self_s.get(layer).copied().unwrap_or(0.0);
        out.push((format!("{layer}.busy_s"), busy, "s"));
    }
    for &(name, unit) in common::COUNTS {
        out.push((
            name.to_owned(),
            o.counts.get(name).or_else(|| o.timings.get(name)).copied().unwrap_or(0.0),
            unit,
        ));
    }
    let traced_ops_per_s = o.lat_s.len() as f64 / o.wall_s.max(1e-9);
    out.push(("sim_points_per_s".into(), o.sim_points as f64 / o.wall_s.max(1e-9), "1/s"));
    let overhead =
        if traced_ops_per_s > 0.0 { untraced_ops_per_s / traced_ops_per_s - 1.0 } else { 0.0 };
    out.push(("trace.overhead_frac".into(), overhead, "ratio"));
    out.push(("trace.untraced_ops_per_s".into(), untraced_ops_per_s, "1/s"));
    out.push(("trace.traced_ops_per_s".into(), traced_ops_per_s, "1/s"));
    out.push(("trace.coverage_p50".into(), stats::median(&prof.coverage), "ratio"));
    let (_, top_s) = top_layer(prof);
    let total: f64 = prof.self_s.values().sum::<f64>() + prof.glue_s;
    out.push((
        "trace.top_layer_share".into(),
        if total > 0.0 { top_s / total } else { 0.0 },
        "ratio",
    ));
    out.push(("trace.spans".into(), prof.spans as f64, "count"));
    out
}

fn top_layer(prof: &trace::Profile) -> (&'static str, f64) {
    prof.self_s.iter().max_by(|a, b| a.1.total_cmp(b.1)).map_or(("none", 0.0), |(&k, &v)| (k, v))
}

/// Runs this benchmark as a child process and returns its result line.
fn run_child(args: &[String]) -> Result<(Vec<String>, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if !out.status.success() {
        return Err(format!("child run {args:?} exited with {}", out.status));
    }
    let last = lines.last().ok_or("child run printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    Ok((lines, doc))
}

fn metric_value(doc: &JsonValue, name: &str) -> Option<f64> {
    match doc.get("metrics")?.get(name)?.get("value")? {
        JsonValue::F64(v) => Some(*v),
        JsonValue::U64(v) => Some(*v as f64),
        _ => None,
    }
}

fn run_workload(name: &str, cfg: &Cfg) -> Outcome {
    match name {
        "sweep_batch" => sweep::run(cfg),
        "jitter_event" => jitter::run(cfg),
        "serve_mix" => serve::run(cfg),
        "fault_campaign" => campaign::run(cfg),
        other => unreachable!("workload {other:?} validated at parse"),
    }
}

fn bench(args: &Args) -> ExitCode {
    let cfg = &args.cfg;
    let name = args.workload.as_str();
    // The untraced reference for the tracing overhead runs first, alone,
    // in a fresh process: the same seed and length, cold caches.
    let untraced_ops_per_s = if cfg.traced && cfg.ops.is_none() {
        let child_args: Vec<String> = [
            "--workload",
            name,
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
            "--trace",
            "0",
            "--budget-s",
            &(args.budget_s / 2).to_string(),
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        match run_child(&child_args) {
            Ok((_, doc)) => metric_value(&doc, "ops_per_s").unwrap_or(0.0),
            Err(e) => {
                eprintln!("[ola-perfbench] {name}: untraced reference run failed: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        0.0
    };
    if cfg.traced {
        trace::enable();
    }
    let started = Instant::now();
    let outcome = run_workload(name, cfg);
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(1);

    let env = common::environment();
    println!(
        "# ola-perfbench workload={name} seed={} seconds={} trace={} git={} nproc={} \
         OLA_THREADS={} lane_width={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        env.git,
        env.nproc,
        env.threads,
        env.lane_width
    );
    let metrics: Vec<(String, f64, &'static str)> = if cfg.traced {
        let prof = trace::finish();
        let (top, top_s) = top_layer(&prof);
        let total: f64 = prof.self_s.values().sum::<f64>() + prof.glue_s;
        for (layer, s) in &prof.self_s {
            println!(
                "# layer {layer:<32} self {s:>10.4} s  {:>5.1}%",
                100.0 * s / total.max(1e-12)
            );
        }
        println!(
            "# layer {:<32} self {:>10.4} s  {:>5.1}%",
            "(untraced glue)",
            prof.glue_s,
            100.0 * prof.glue_s / total.max(1e-12)
        );
        println!(
            "# largest self-time layer on {name}: {top} ({:.1}% of traced op time); \
             op coverage p50 {:.1}%",
            100.0 * top_s / total.max(1e-12),
            100.0 * stats::median(&prof.coverage)
        );
        per_layer(&outcome, &prof, untraced_ops_per_s)
    } else {
        let mut lat = outcome.lat_s.clone();
        lat.sort_by(f64::total_cmp);
        let (_, beyond) = stats::tail(&lat, outcome.tail_pct);
        println!(
            "# ops={} failed_frac={} tail=p{} ({beyond} samples beyond) sim_points_per_s={:.1}",
            lat.len(),
            failed as f64 / attempted as f64,
            outcome.tail_pct,
            outcome.sim_points as f64 / outcome.wall_s.max(1e-9)
        );
        end_to_end(&outcome).into_iter().map(|(n, v, u)| (n.to_owned(), v, u)).collect()
    };
    for (n, v, u) in &metrics {
        println!("# {n} = {v} {u}");
    }
    if cfg.ops.is_some() {
        let counts: Vec<(String, JsonValue)> =
            outcome.counts.iter().map(|(k, &v)| (k.clone(), num(v))).collect();
        println!(
            "# determinism digest={} counts={}",
            outcome.digest,
            JsonValue::Object(counts).render()
        );
    }
    for f in &outcome.failures {
        eprintln!("[ola-perfbench] {name}: FAILED {f}");
    }
    eprintln!("[ola-perfbench] {name}: finished in {:.1} s", started.elapsed().as_secs_f64());
    let doc = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(failed == 0)),
        ("attempted".into(), JsonValue::U64(attempted)),
        ("failed".into(), JsonValue::U64(failed)),
        (
            "metrics".into(),
            JsonValue::Object(metrics.iter().map(|(n, v, u)| (n.clone(), metric(*v, u))).collect()),
        ),
    ]);
    println!("{}", doc.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Names listed under `key` in `BENCHMARK.json`.
fn declared_names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(JsonValue::as_str).map(str::to_owned))
        .collect()
}

/// Determinism and naming self-test: every workload runs twice per mode at
/// tiny size with the same seed, in fresh processes; output digests and
/// layer counts must match exactly, and the emitted metric names must be
/// exactly those `BENCHMARK.json` declares.
fn self_test() -> ExitCode {
    let declared = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| json::parse(&s).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("[self-test] cannot read BENCHMARK.json in the working directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut problems: Vec<String> = Vec::new();
    let declared_workloads = declared_names(&declared, "workloads");
    if declared_workloads != WORKLOADS {
        problems.push(format!("workloads {declared_workloads:?} != {WORKLOADS:?}"));
    }
    for workload in WORKLOADS {
        let mut digests: Vec<String> = Vec::new();
        for (mode, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args: Vec<String> = [
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "60",
                "--trace",
                mode,
                "--ops",
                "6",
                "--tiny",
                "--budget-s",
                "80",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            let mut seen: Vec<(String, Vec<String>)> = Vec::new();
            for _ in 0..2 {
                match run_child(&args) {
                    Ok((lines, doc)) => {
                        let det = lines
                            .iter()
                            .find(|l| l.starts_with("# determinism"))
                            .cloned()
                            .unwrap_or_default();
                        let names: Vec<String> = doc
                            .get("metrics")
                            .and_then(JsonValue::as_object)
                            .unwrap_or(&[])
                            .iter()
                            .map(|(k, _)| k.clone())
                            .collect();
                        seen.push((det, names));
                    }
                    Err(e) => problems.push(format!("{workload} trace={mode}: {e}")),
                }
            }
            if let [(a, names), (b, _)] = seen.as_slice() {
                if a != b || a.is_empty() {
                    problems.push(format!(
                        "{workload} trace={mode}: runs differ\n  first:  {a}\n  second: {b}"
                    ));
                } else {
                    println!("[self-test] {workload} trace={mode}: {a}");
                }
                digests.extend(
                    a.split_whitespace().find_map(|w| w.strip_prefix("digest=")).map(str::to_owned),
                );
                let mut want = declared_names(&declared, key);
                let mut got = names.clone();
                want.sort();
                got.sort();
                if want != got {
                    let missing: Vec<&String> = want.iter().filter(|n| !got.contains(n)).collect();
                    let extra: Vec<&String> = got.iter().filter(|n| !want.contains(n)).collect();
                    problems.push(format!(
                        "{workload} trace={mode}: metric names differ from BENCHMARK.json {key}: \
                         missing {missing:?}, undeclared {extra:?}"
                    ));
                }
            }
        }
        // The traced runs replay the library's calls layer by layer; where
        // the replica renders the library's own output, the digests agree.
        // The campaign replica digests its own tallies instead.
        if workload != "fault_campaign" && (digests.len() != 2 || digests[0] != digests[1]) {
            problems.push(format!("{workload}: traced and untraced outputs differ: {digests:?}"));
        }
    }
    for p in &problems {
        eprintln!("[self-test] FAILED {p}");
    }
    if problems.is_empty() {
        println!("[self-test] all workloads deterministic; metric names match BENCHMARK.json");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(code) = rerun_pinned() {
        return code;
    }
    pin_environment();
    if args.self_test {
        start_watchdog(SELF_TEST_BUDGET_S, "self-test".into());
        self_test()
    } else {
        start_watchdog(args.budget_s, args.workload.clone());
        ola_core::obs::init();
        bench(&args)
    }
}
