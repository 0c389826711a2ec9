//! Pieces every workload shares: run settings, the timed op loop, the
//! per-op guard, and layer counts read from the library's own counters.

use crate::{stats, trace};
use ola_core::obs::sha256::Sha256;
use ola_core::obs::MetricSnapshot;
use ola_core::resilience::{install_ambient, is_cancel_payload};
use ola_core::CancelToken;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Settings of one invocation.
pub struct Cfg {
    /// Seed of the input generators; nothing else reads it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced variant of each op (spans around each layer call).
    pub traced: bool,
    /// Run exactly this many ops instead of filling `seconds`.
    pub ops: Option<usize>,
    /// Shrink every op (self-test size).
    pub tiny: bool,
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Duration of each repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each completed timed op, in seconds.
    pub lat_s: Vec<f64>,
    /// Percentile reported as `latency_tail_ms`, fixed per workload: one
    /// with at least ten samples beyond it in a run at typical speed, set
    /// inside the cluster of the slowest ops rather than at a cluster edge
    /// or in a sparse far tail. Picked from each run's own op count (the
    /// highest of p50…p99 with ten samples beyond), it would jump between
    /// neighbouring percentiles, and the tail with it, whenever the count
    /// crossed a boundary.
    pub tail_pct: f64,
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// Process CPU time spent during the timed phase, in seconds.
    pub cpu_s: f64,
    /// Ops attempted, output checks included.
    pub attempted: u64,
    /// One line per failed op or check, naming the op.
    pub failures: Vec<String>,
    /// Judged `(vector, Ts)` sample points during the timed phase.
    pub sim_points: u64,
    /// SHA-256 over the ops' outputs, in op order.
    pub digest: String,
    /// Per-layer counts and ratios (see [`COUNTS`]); equal seeds give
    /// equal counts.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer timings listed in [`COUNTS`], which vary run to run.
    pub timings: BTreeMap<String, f64>,
}

/// Span names, one per layer; each yields a `<layer>.busy_s` metric.
pub const LAYERS: [&str; 14] = [
    "synth.parse",
    "synth.optimize",
    "synth.elaborate",
    "synth.absint",
    "netlist.sta",
    "netlist.lint",
    "netlist.batch",
    "netlist.batch.incremental",
    "netlist.sim",
    "netlist.equiv",
    "core.memo",
    "core.empirical.judge",
    "core.campaign",
    "serve.http",
];

/// Layer counts and ratios reported by the traced run, with units.
pub const COUNTS: &[(&str, &str)] = &[
    ("synth.elaborate.nets", "count"),
    ("core.memo.program_hits", "count"),
    ("core.memo.program_misses", "count"),
    ("core.memo.cert_hits", "count"),
    ("core.memo.cert_misses", "count"),
    ("netlist.batch.runs", "count"),
    ("netlist.batch.word_steps", "count"),
    ("netlist.batch.lane_transitions", "count"),
    ("netlist.batch.lane_util", "ratio"),
    ("netlist.batch.incremental.shared_frac", "ratio"),
    ("netlist.sim.runs", "count"),
    ("netlist.sim.events", "count"),
    ("netlist.sim.events_per_vector", "count"),
    ("core.empirical.sta_skipped_frac", "ratio"),
    ("netlist.equiv.proofs", "count"),
    ("netlist.equiv.by_method.structural", "count"),
    ("netlist.equiv.by_method.bdd", "count"),
    ("netlist.equiv.by_method.exhaustive", "count"),
    ("netlist.equiv.by_method.random-batch", "count"),
    ("netlist.equiv.skipped", "count"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("serve.http.hit_rtt_us_p50", "us"),
    ("core.campaign.sites", "count"),
];

/// Lanes per batch-engine pass. `OLA_LANE_WORDS` is cleared at start-up,
/// so the engine runs its default of four 64-bit lane words.
pub const LANE_WIDTH: u64 = 256;

/// Longest a single op may run before it is cancelled and counted failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);

/// Where a run happened, printed beside its metrics.
pub struct Environment {
    pub git: String,
    pub nproc: usize,
    pub threads: String,
    pub lane_width: u64,
}

pub fn environment() -> Environment {
    Environment {
        git: ola_core::obs::git_describe(),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        threads: std::env::var("OLA_THREADS").unwrap_or_default(),
        lane_width: LANE_WIDTH,
    }
}

/// Set-up samples a timed phase takes, spread evenly over it.
pub const SETUP_SAMPLES: usize = 20;

/// Shortest time one set-up sample measures: a set-up shorter than this is
/// repeated back to back and the sample is their mean.
const SETUP_SAMPLE_S: f64 = 0.01;

/// Repeated, timed runs of a workload's set-up; `setup_s` is their median.
///
/// The first sample is taken before the timed phase and the rest between
/// its ops, so the set-up is timed across the whole run rather than in its
/// first fraction of a second: on a shared host the speed of the same code
/// swings by half within seconds, and a set-up timed only at start-up
/// samples a single moment of that.
pub struct Setups<'a, T> {
    build: Box<dyn FnMut() -> T + 'a>,
    /// Set-ups per sample, fixed by the first sample.
    batch: usize,
    /// Seconds per set-up, one entry per sample.
    pub times: Vec<f64>,
    /// Process CPU seconds the samples between ops used.
    pub cpu_s: f64,
}

impl<'a, T> Setups<'a, T> {
    /// Runs and times the set-up `build` once, for the workload's use, and
    /// returns its result with the sampler that re-runs it between ops.
    pub fn start(mut build: impl FnMut() -> T + 'a) -> (T, Setups<'a, T>) {
        let t0 = Instant::now();
        let built = build();
        let first = t0.elapsed().as_secs_f64();
        let mut setups =
            Setups { build: Box::new(build), batch: 1, times: vec![first], cpu_s: 0.0 };
        // The first set-up pays for cold caches and fresh pages; the batch
        // size comes from a warm one.
        let t1 = Instant::now();
        drop(std::hint::black_box((setups.build)()));
        let warm = t1.elapsed().as_secs_f64();
        setups.batch = ((SETUP_SAMPLE_S / warm.max(1e-9)).ceil() as usize).clamp(1, 10_000);
        (built, setups)
    }

    /// Takes one sample and returns its wall time, which the caller leaves
    /// out of the timed phase. An untimed set-up first warms the caches the
    /// ops before it left cold: timed straight after an op, a sub-
    /// millisecond set-up ran at one of two speeds 1.5x apart from one
    /// process to the next. The set-ups' results are dropped after the
    /// clock stops.
    pub fn sample(&mut self) -> f64 {
        let cpu0 = stats::process_cpu_s();
        let start = Instant::now();
        drop(std::hint::black_box((self.build)()));
        let t0 = Instant::now();
        let built: Vec<T> = (0..self.batch).map(|_| (self.build)()).collect();
        let timed = t0.elapsed().as_secs_f64();
        self.times.push(timed / self.batch as f64);
        drop(built);
        let took = start.elapsed().as_secs_f64();
        self.cpu_s += stats::process_cpu_s() - cpu0;
        took
    }
}

/// Runs `f` under the per-op deadline: the library's sampling engines poll
/// the ambient cancel token, and a cancelled or panicking op becomes an
/// error naming `what` instead of a hang or an abort.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let _ambient = install_ambient(CancelToken::with_deadline(OP_DEADLINE));
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| format!("{what}: {e}")),
        Err(p) if is_cancel_payload(p.as_ref()) => {
            Err(format!("{what}: exceeded the {} s per-op deadline", OP_DEADLINE.as_secs()))
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// Lower-case hex of a SHA-256 state.
pub fn hex(h: Sha256) -> String {
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The timed phase of a workload whose ops run one after another.
pub struct Timed {
    pub lat_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub failures: Vec<String>,
    pub digest: String,
    pub before: Snapshot,
    pub after: Snapshot,
}

/// Runs op `0, 1, 2, …` until `cfg.seconds` have passed (or `cfg.ops` ops
/// ran). Each op returns the bytes that enter the output digest, or a
/// failure message; `label(i)` names op `i` in failure messages.
pub fn timed_ops<T>(
    cfg: &Cfg,
    setups: &mut Setups<'_, T>,
    label: impl Fn(usize) -> String,
    mut op: impl FnMut(usize) -> Result<Vec<u8>, String>,
) -> Timed {
    let mut digest = Sha256::new();
    let mut lat_s = Vec::new();
    let mut failures = Vec::new();
    let before = Snapshot::take();
    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    // Wall time of the set-up samples taken so far, which the timed phase
    // leaves out.
    let mut paused = 0.0;
    let every = cfg.seconds / SETUP_SAMPLES as f64;
    let mut i = 0usize;
    loop {
        let active = t0.elapsed().as_secs_f64() - paused;
        let done = match cfg.ops {
            Some(n) => i >= n,
            None => active >= cfg.seconds,
        };
        if done {
            break;
        }
        if cfg.ops.is_none() && active >= every * setups.times.len() as f64 {
            paused += setups.sample();
        }
        let start = Instant::now();
        let result = {
            let _op = trace::op();
            guarded(&label(i), || op(i))
        };
        let took = start.elapsed().as_secs_f64();
        match result {
            Ok(bytes) => {
                digest.update(&(bytes.len() as u64).to_le_bytes());
                digest.update(&bytes);
                lat_s.push(took);
            }
            Err(e) => failures.push(e),
        }
        i += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64() - paused;
    let cpu_s = stats::process_cpu_s() - cpu0 - setups.cpu_s;
    let after = Snapshot::take();
    Timed { lat_s, wall_s, cpu_s, failures, digest: hex(digest), before, after }
}

/// Library counters at one instant: the metrics registry plus the compile
/// memo's hit/miss tallies.
#[derive(Clone)]
pub struct Snapshot {
    reg: MetricSnapshot,
    memo: ola_core::memo::MemoStats,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot { reg: ola_core::obs::registry().snapshot(), memo: ola_core::memo::stats() }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer counts between two snapshots, and the judged sample points.
pub fn layer_counts(before: &Snapshot, after: &Snapshot) -> (BTreeMap<String, f64>, u64) {
    let d = after.reg.diff(&before.reg);
    let c = |k: &str| d.counters.get(k).copied().unwrap_or(0) as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    put("core.memo.program_hits", (after.memo.program_hits - before.memo.program_hits) as f64);
    put(
        "core.memo.program_misses",
        (after.memo.program_misses - before.memo.program_misses) as f64,
    );
    put("core.memo.cert_hits", (after.memo.cert_hits - before.memo.cert_hits) as f64);
    put("core.memo.cert_misses", (after.memo.cert_misses - before.memo.cert_misses) as f64);
    let runs = c("ola.batch.runs");
    put("netlist.batch.runs", runs);
    put("netlist.batch.word_steps", c("ola.batch.word_steps"));
    put("netlist.batch.lane_transitions", c("ola.batch.lane_transitions"));
    put("netlist.batch.lane_util", ratio(c("ola.batch.lanes"), runs * LANE_WIDTH as f64));
    let sims = c("ola.sim.event.runs");
    put("netlist.sim.runs", sims);
    put("netlist.sim.events", c("ola.sim.event.events"));
    put("netlist.sim.events_per_vector", ratio(c("ola.sim.event.events"), sims));
    let (judged, skipped) = (c("ola.backend.ts_points"), c("ola.backend.sta_skipped_points"));
    put("core.empirical.sta_skipped_frac", ratio(skipped, judged + skipped));
    let (hits, misses) = (c("ola.cache.hits"), c("ola.cache.misses"));
    put("core.cache.hits", hits);
    put("core.cache.misses", misses);
    put("core.cache.hit_ratio", ratio(hits, hits + misses));
    put("core.campaign.sites", c("ola.campaign.sites"));
    (m, judged as u64)
}

/// Folds a sequential timed phase and its set-up into an [`Outcome`];
/// `tail_pct` is the workload's tail percentile.
pub fn outcome(setup_s: Vec<f64>, tail_pct: f64, timed: Timed) -> Outcome {
    let (counts, sim_points) = layer_counts(&timed.before, &timed.after);
    Outcome {
        setup_s,
        tail_pct,
        attempted: (timed.lat_s.len() + timed.failures.len()) as u64,
        lat_s: timed.lat_s,
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        failures: timed.failures,
        sim_points,
        digest: timed.digest,
        counts,
        timings: BTreeMap::new(),
    }
}
