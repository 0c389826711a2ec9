//! `sweep_batch`: a seeded stream of distinct `sweep` queries run through
//! `ola_synth::Query::run`. Almost all of the work is batch simulation.

use crate::common::{self, Cfg, Outcome};
use crate::{gen, trace};
use ola_core::obs::json::{self, JsonValue};
use ola_core::parallel::parallel_accumulate_batched;
use ola_core::BackendStats;
use ola_netlist::batch::{LaneBlock, LaneInputs};
use ola_netlist::{analyze, FpgaDelay};
use ola_redundant::{SdNumber, Q};
use ola_synth::{
    elaborate, optimize, parse_dfg, AdderStructure, ElabOptions, InputFmt, Limits, PortShape,
    Query, Style,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One generated sweep query, kept in both typed and spelled-out form.
struct Spec {
    expr: String,
    width: usize,
    style: Style,
    allocation: AdderStructure,
    ts_points: usize,
    samples: usize,
    seed: u64,
    query: Query,
}

/// Queries generated per run; a run never gets near the end of them.
const STREAM: usize = 400;
const TS_POINTS: usize = 16;
/// One lane group of the batch engine per query.
const SAMPLES: usize = 256;
/// About a hundred ops per run.
const TAIL_PCT: f64 = 80.0;

/// `(style, width)` of op `i` is `SHAPES[i mod 10]`, so every seed sees
/// the same mix and the seed picks only the terms and the sampling seed.
/// Cost grows with width and a conventional query costs a fraction of an
/// online one of the same width, so the latencies form three clusters:
/// conventional w12-16 (0-30% of ops), online w10 (30-70%) and online w14
/// (70-100%). The median and the tail percentile sit in the middle of the
/// second and third, where neither moves with the exact op count: near a
/// cluster edge, a median moves by a fifth between seeds.
const SHAPES: [(Style, usize); 10] = [
    (Style::Online, 10),
    (Style::Conventional, 12),
    (Style::Online, 14),
    (Style::Online, 10),
    (Style::Conventional, 14),
    (Style::Online, 14),
    (Style::Online, 10),
    (Style::Conventional, 16),
    (Style::Online, 14),
    (Style::Online, 10),
];
const PRODUCTS: usize = 3;

/// Expressions per run. Op `i` takes expression `i mod POOL` and shape
/// `i mod 10`, so each run compiles exactly `POOL` datapaths, all within
/// its first `POOL` ops (a run completes about a hundred), and later ops get their
/// compiled program from the compile memo; every query still differs in
/// its sampling seed. The memo keeps each compiled program, about 2.6 MB:
/// with a new datapath per op, the peak RSS grew with the op count and so
/// with the host's speed.
const POOL: usize = 40;

fn stream(seed: u64, tiny: bool) -> Vec<Spec> {
    let mut rng = gen::rng(seed, 1);
    let vars = ["a", "b", "c", "d", "e", "f"];
    let exprs: Vec<String> =
        (0..POOL).map(|_| gen::sum_of_products(&mut rng, PRODUCTS, &vars)).collect();
    (0..STREAM)
        .map(|i| {
            let (style, width) = SHAPES[i % SHAPES.len()];
            let expr = exprs[i % POOL].clone();
            let width = if tiny { 4 } else { width };
            let (ts_points, samples) = if tiny { (4, 64) } else { (TS_POINTS, SAMPLES) };
            let seed = rng.gen::<u64>() >> 1;
            let allocation = AdderStructure::BalancedTree;
            let query = parse(&expr, width, style, ts_points, samples, seed, "auto");
            Spec { expr, width, style, allocation, ts_points, samples, seed, query }
        })
        .collect()
}

fn parse(
    expr: &str,
    width: usize,
    style: Style,
    ts_points: usize,
    samples: usize,
    seed: u64,
    backend: &str,
) -> Query {
    let body = gen::body(&[
        ("kind", gen::s("sweep")),
        ("expr", gen::s(expr)),
        ("width", width.to_string()),
        ("style", gen::s(style.name())),
        ("allocation", gen::s("tree")),
        ("ts_points", ts_points.to_string()),
        ("samples", samples.to_string()),
        ("seed", seed.to_string()),
        ("backend", gen::s(backend)),
    ]);
    let doc = json::parse(&body).expect("generated query bodies are valid JSON");
    Query::from_json(&doc, &Limits::default()).expect("generated queries are within limits")
}

fn label(specs: &[Spec], i: usize) -> String {
    let s = &specs[i];
    format!("sweep_batch op {i} ({} w{} `{}`)", s.style.name(), s.width, s.expr)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let (specs, mut setups) = common::Setups::start(|| stream(cfg.seed, cfg.tiny));
    let mut nets = 0usize;
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    let mut latency: Vec<f64> = Vec::new();
    let timed = common::timed_ops(
        cfg,
        &mut setups,
        |i| label(&specs, i),
        |i| {
            let t0 = std::time::Instant::now();
            let rendered = if cfg.traced {
                traced_sweep(&specs[i], &mut nets)?.render()
            } else {
                specs[i].query.run().map_err(|e| e.to_string())?.render()
            };
            outputs.push(rendered.clone().into_bytes());
            latency.push(t0.elapsed().as_secs_f64());
            Ok(rendered.into_bytes())
        },
    );
    let mut out = common::outcome(setups.times, TAIL_PCT, timed);
    out.counts.insert("synth.elaborate.nets".into(), nets as f64);

    // Output check, outside the timed phase: the fastest completed query
    // re-runs on the event engine (which is an order of magnitude slower),
    // and the traced run's replica must also equal the library's own
    // answer.
    let checked = (0..outputs.len()).min_by(|&a, &b| latency[a].total_cmp(&latency[b]));
    if let Some(i) = checked {
        out.attempted += 1;
        let s = &specs[i];
        let event = parse(&s.expr, s.width, s.style, s.ts_points, s.samples, s.seed, "event");
        let result = common::guarded(&format!("{} event re-run", label(&specs, i)), || {
            let ev = event.run().map_err(|e| e.to_string())?.render();
            if ev.as_bytes() != outputs[i].as_slice() {
                return Err("batch and event engines disagree".into());
            }
            if cfg.traced {
                let lib = s.query.run().map_err(|e| e.to_string())?.render();
                if lib.as_bytes() != outputs[i].as_slice() {
                    return Err("traced replica disagrees with Query::run".into());
                }
            }
            Ok(())
        });
        if let Err(e) = result {
            out.failures.push(e);
        }
    }
    out
}

/// The input draw of `ola_synth::explore::variant_error_curve`.
fn draw(shapes: &[PortShape], rng: &mut ChaCha8Rng) -> Vec<bool> {
    let mut bits = Vec::new();
    for &shape in shapes {
        match shape {
            PortShape::Online { digits, .. } => {
                let bound = (1i128 << digits) - 1;
                let v = Q::new(rng.gen_range(-bound..=bound), digits as u32);
                let sd = SdNumber::from_value(v, digits).expect("in range");
                bits.extend(sd.iter().map(|d| d.to_bits().0));
                bits.extend(sd.iter().map(|d| d.to_bits().1));
            }
            PortShape::Tc { width, .. } => {
                let bound = (1i128 << (width - 1)) - 1;
                let units = rng.gen_range(-bound..=bound);
                bits.extend((0..width).map(|i| units >> i & 1 == 1));
            }
        }
    }
    bits
}

#[derive(Clone)]
struct Acc {
    err: Vec<f64>,
    viol: Vec<u64>,
    max_settle: u64,
    samples: usize,
    stats: BackendStats,
}

/// `Query::run` for a sweep, one layer call at a time: parse, optimize,
/// elaborate, STA, compile (memo), then per lane group the batch engine
/// run and the judging of every swept period. Same sampling discipline,
/// same fold order, so the rendered answer is byte-identical.
fn traced_sweep(s: &Spec, nets: &mut usize) -> Result<JsonValue, String> {
    let fmt = InputFmt { msd_pos: 1, digits: s.width };
    let dfg = trace::timed("synth.parse", || parse_dfg(&s.expr, fmt)).map_err(|e| e.to_string())?;
    let opt = trace::timed("synth.optimize", || optimize(&dfg, s.allocation));
    let dp = trace::timed("synth.elaborate", || {
        elaborate(&opt, &ElabOptions::new(s.style).with_frac_digits(3))
    });
    *nets += dp.netlist.len();
    let delay = FpgaDelay::default();
    let critical =
        trace::timed("netlist.sta", || analyze(&dp.netlist, &delay)).critical_path().max(1);
    let ts_grid = ola_synth::explore::ts_grid(critical, s.ts_points);
    let wires = dp.output_wires();
    let report = trace::timed("netlist.sta", || analyze(&dp.netlist, &delay));
    let bus_arrival = report.arrival_of(&wires);
    let judged: Vec<(usize, u64)> =
        ts_grid.iter().copied().enumerate().filter(|&(_, t)| t < bus_arrival).collect();
    let active: Vec<u64> = judged.iter().map(|&(_, t)| t).collect();
    let skipped = (ts_grid.len() - judged.len()) as u64;
    let prog = trace::timed("core.memo", || ola_core::memo::batch_program(&dp.netlist, &delay))
        .map_err(|e| e.to_string())?;
    let shapes: Vec<PortShape> = dp.inputs.iter().map(|p| p.shape).collect();
    let ports = dp.outputs.len();
    let n = ts_grid.len();
    type B = LaneBlock<4>;
    let acc = parallel_accumulate_batched(
        s.samples,
        s.seed,
        common::LANE_WIDTH as usize,
        || Acc {
            err: vec![0.0; n],
            viol: vec![0; n],
            max_settle: 0,
            samples: 0,
            stats: BackendStats::default(),
        },
        |rng| draw(&shapes, rng),
        |group: &[Vec<bool>], acc: &mut Acc| {
            let lanes = group.len() as u32;
            let prev = LaneInputs::<B>::zeros(prog.num_inputs(), lanes).expect("lanes ≤ 256");
            let new = LaneInputs::<B>::pack(group).expect("full input vectors");
            let res = trace::timed("netlist.batch", || prog.run(&prev, &new))
                .expect("shapes validated above");
            let _judge = trace::span("core.empirical.judge");
            let bus = res.bus_waves(&wires).expect("output nets exist");
            let sweep = bus.sweep(&active);
            for lane in 0..lanes {
                acc.max_settle = acc.max_settle.max(res.settle_time(lane));
                let settled = bus.settled_lane(lane);
                for (si, &(i, _)) in judged.iter().enumerate() {
                    let sampled = sweep.lane_bits(si, lane);
                    let mut err = Q::ZERO;
                    for port in 0..ports {
                        err += (dp.decode_output(port, &sampled)
                            - dp.decode_output(port, &settled))
                        .abs();
                    }
                    if !err.is_zero() {
                        acc.viol[i] += 1;
                    }
                    acc.err[i] += err.to_f64().abs();
                }
            }
            acc.samples += group.len();
            let st = &mut acc.stats;
            st.backend = "batch";
            st.vectors += u64::from(lanes);
            st.ts_points += u64::from(lanes) * judged.len() as u64;
            st.sta_skipped_points += u64::from(lanes) * skipped;
            st.batch_runs += 1;
            st.lanes_used += u64::from(lanes);
            st.lane_capacity = common::LANE_WIDTH;
            st.word_steps += res.word_steps();
            st.lane_transitions += res.lane_transitions();
        },
        |mut a, b| {
            for i in 0..a.err.len() {
                a.err[i] += b.err[i];
                a.viol[i] += b.viol[i];
            }
            a.max_settle = a.max_settle.max(b.max_settle);
            a.samples += b.samples;
            a.stats.merge(&b.stats);
            a
        },
    );
    // The library publishes these counters after every curve; so does the
    // replica, so that traced and untraced runs count the same work.
    acc.stats.publish();
    let total = acc.samples as f64;
    let floats = |v: Vec<f64>| JsonValue::Array(v.into_iter().map(JsonValue::F64).collect());
    Ok(JsonValue::Object(vec![
        ("kind".into(), JsonValue::str("sweep")),
        ("untimed".into(), JsonValue::Bool(false)),
        ("critical_path".into(), JsonValue::U64(report.critical_path())),
        ("max_settle".into(), JsonValue::U64(acc.max_settle)),
        ("samples".into(), JsonValue::U64(acc.samples as u64)),
        ("ts".into(), JsonValue::Array(ts_grid.iter().map(|&t| JsonValue::U64(t)).collect())),
        ("mean_abs_error".into(), floats(acc.err.iter().map(|&e| e / total).collect())),
        ("violation_rate".into(), floats(acc.viol.iter().map(|&v| v as f64 / total).collect())),
        ("sta_skipped_points".into(), JsonValue::U64(acc.stats.sta_skipped_points)),
    ]))
}
