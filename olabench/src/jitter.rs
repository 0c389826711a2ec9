//! `jitter_event`: the paper's fig4 shape. The N=8 online and array
//! multipliers are swept under a jittered FPGA delay model, which the batch
//! engine refuses, so the event-driven simulator does all the work.

use crate::common::{self, Cfg, Outcome};
use crate::{gen, trace};
use ola_arith::online::digits_value;
use ola_arith::synth::{
    array_multiplier, online_multiplier, ArrayMultiplierCircuit, OnlineMultiplierCircuit,
};
use ola_core::empirical::{array_gate_level_curve_with, om_gate_level_curve_with, GateLevelCurve};
use ola_core::parallel::parallel_accumulate;
use ola_core::{BackendStats, InputModel, SimBackend, StaGate};
use ola_netlist::{analyze, simulate_from_zero, FpgaDelay, JitteredDelay, NetId};
use ola_redundant::Digit;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Operand width of both multipliers (the paper's N=8).
const N: usize = 8;
/// Jitter amplitude in delay units, as in `repro fig4`.
const JITTER: u64 = 15;
const TS_POINTS: u64 = 16;
/// Samples per curve. The jittered online multiplier costs about a
/// hundred times more per vector than the array multiplier, so it takes
/// fewer; both stay inside one 256-sample chunk.
const ONLINE_SAMPLES: usize = 1;
const ARRAY_SAMPLES: usize = 8;
const STREAM: usize = 2000;
/// About fifty ops per run.
const TAIL_PCT: f64 = 66.7;

struct Circuits {
    om: OnlineMultiplierCircuit,
    am: ArrayMultiplierCircuit,
    /// `(jitter seed, sampling seed)` of each op.
    seeds: Vec<(u64, u64)>,
}

fn setup(seed: u64) -> Circuits {
    let mut rng = gen::rng(seed, 2);
    let seeds = (0..STREAM).map(|_| (rng.gen::<u64>(), rng.gen::<u64>() >> 1)).collect();
    Circuits { om: online_multiplier(N, 3), am: array_multiplier(N), seeds }
}

fn label(c: &Circuits, i: usize) -> String {
    format!("jitter_event op {i} (online and array N={N}, jitter seed {})", c.seeds[i].0)
}

fn samples(online: bool, tiny: bool) -> usize {
    match (online, tiny) {
        (true, _) => ONLINE_SAMPLES,
        (false, false) => ARRAY_SAMPLES,
        (false, true) => 4,
    }
}

/// The fig4 grid: `TS_POINTS` periods up to the jittered critical path.
fn grid(rated: u64) -> Vec<u64> {
    (1..=TS_POINTS).map(|k| rated * k / TS_POINTS).collect()
}

fn render(c: &GateLevelCurve) -> Vec<u8> {
    format!(
        "{:?} {:?} {:?} {} {}",
        c.ts, c.mean_abs_error, c.violation_rate, c.critical_path, c.max_settle
    )
    .into_bytes()
}

/// Output check: no sample may err at a period at or past the critical
/// path.
fn settled_clean(c: &GateLevelCurve) -> Result<(), String> {
    for (k, &t) in c.ts.iter().enumerate() {
        if t >= c.critical_path && (c.mean_abs_error[k] != 0.0 || c.violation_rate[k] != 0.0) {
            return Err(format!(
                "error {} (violation rate {}) at Ts={t} ≥ critical path {}",
                c.mean_abs_error[k], c.violation_rate[k], c.critical_path
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &Cfg) -> Outcome {
    let (c, mut setups) = common::Setups::start(|| setup(cfg.seed));
    let timed = common::timed_ops(
        cfg,
        &mut setups,
        |i| label(&c, i),
        // Op `i` sweeps the online design, then the array design, under one
        // jitter draw: a pair of fig4 curves. An array curve alone costs a
        // fraction of an online one and would split the latencies into two
        // clusters with the median between them.
        |i| {
            let (jseed, sseed) = c.seeds[i];
            let delay = JitteredDelay::new(FpgaDelay::default(), JITTER, jseed);
            let mut out = Vec::new();
            for online in [true, false] {
                let n = samples(online, cfg.tiny);
                let curve = if cfg.traced {
                    traced_curve(&c, online, &delay, n, sseed)
                } else if online {
                    let rated = analyze(&c.om.netlist, &delay).critical_path();
                    let ts = grid(rated);
                    om_gate_level_curve_with(
                        &c.om,
                        &delay,
                        InputModel::UniformDigits,
                        &ts,
                        n,
                        sseed,
                        SimBackend::Auto,
                        StaGate::On,
                    )
                    .0
                } else {
                    let rated = analyze(&c.am.netlist, &delay).critical_path();
                    let ts = grid(rated);
                    array_gate_level_curve_with(
                        &c.am,
                        &delay,
                        &ts,
                        n,
                        sseed,
                        SimBackend::Auto,
                        StaGate::On,
                    )
                    .0
                };
                settled_clean(&curve)?;
                out.extend(render(&curve));
            }
            Ok(out)
        },
    );
    common::outcome(setups.times, TAIL_PCT, timed)
}

#[derive(Clone)]
struct Acc {
    err: Vec<f64>,
    viol: Vec<u64>,
    max_settle: u64,
    samples: usize,
    stats: BackendStats,
}

/// The library's event-engine curve, one layer call at a time: STA, then
/// per sample the event-driven simulation and the judging of every
/// swept period.
fn traced_curve(
    c: &Circuits,
    online: bool,
    delay: &JitteredDelay<FpgaDelay>,
    samples: usize,
    seed: u64,
) -> GateLevelCurve {
    let netlist = if online { &c.om.netlist } else { &c.am.netlist };
    let rated = trace::timed("netlist.sta", || analyze(netlist, delay)).critical_path();
    let ts = grid(rated);
    let wires: Vec<NetId> = if online {
        let mut w = netlist.output("zp").to_vec();
        w.extend_from_slice(netlist.output("zn"));
        w
    } else {
        netlist.output("product").to_vec()
    };
    let report = trace::timed("netlist.sta", || analyze(netlist, delay));
    let bus_arrival = report.arrival_of(&wires);
    let judged: Vec<(usize, u64)> =
        ts.iter().copied().enumerate().filter(|&(_, t)| t < bus_arrival).collect();
    let skipped = (ts.len() - judged.len()) as u64;
    let zp_len = wires.len() / 2;
    let w = c.am.width;
    let lim = 1i64 << (w - 1);
    let scale = ((2 * (w - 1)) as f64).exp2();
    let judge = |sampled: &[bool], settled: &[bool]| -> (bool, f64) {
        if online {
            let dec = |b: &[bool]| {
                let ds: Vec<Digit> = b[..zp_len]
                    .iter()
                    .zip(&b[zp_len..])
                    .map(|(&p, &n)| Digit::from_bits(p, n))
                    .collect();
                digits_value(&ds)
            };
            let (v, correct) = (dec(sampled), dec(settled));
            (v != correct, (v - correct).abs().to_f64())
        } else {
            let v = c.am.decode_product(sampled);
            let correct = c.am.decode_product(settled);
            (v != correct, (v - correct).abs() as f64 / scale)
        }
    };
    let draw = |rng: &mut ChaCha8Rng| -> Vec<bool> {
        if online {
            let x = InputModel::UniformDigits.draw(rng, c.om.n);
            let y = InputModel::UniformDigits.draw(rng, c.om.n);
            c.om.encode_inputs(&x, &y)
        } else {
            let a = rng.gen_range(-lim..lim);
            let b = rng.gen_range(-lim..lim);
            c.am.encode_inputs(a, b)
        }
    };
    let n = ts.len();
    let acc = parallel_accumulate(
        samples,
        seed,
        || Acc {
            err: vec![0.0; n],
            viol: vec![0; n],
            max_settle: 0,
            samples: 0,
            stats: BackendStats::default(),
        },
        |rng, acc| {
            let inputs = draw(rng);
            let res = trace::timed("netlist.sim", || simulate_from_zero(netlist, delay, &inputs));
            let _judge = trace::span("core.empirical.judge");
            acc.max_settle = acc.max_settle.max(res.settle_time());
            let settled = res.final_bus(&wires);
            for &(k, t) in &judged {
                let (violation, err) = judge(&res.sample_bus(&wires, t), &settled);
                if violation {
                    acc.viol[k] += 1;
                }
                acc.err[k] += err;
            }
            acc.samples += 1;
            acc.stats.backend = "event";
            acc.stats.vectors += 1;
            acc.stats.ts_points += judged.len() as u64;
            acc.stats.sta_skipped_points += skipped;
            acc.stats.event_runs += 1;
        },
        |mut a, b| {
            for k in 0..a.err.len() {
                a.err[k] += b.err[k];
                a.viol[k] += b.viol[k];
            }
            a.max_settle = a.max_settle.max(b.max_settle);
            a.samples += b.samples;
            a.stats.merge(&b.stats);
            a
        },
    );
    acc.stats.publish();
    let total = acc.samples as f64;
    GateLevelCurve {
        ts,
        mean_abs_error: acc.err.iter().map(|&e| e / total).collect(),
        violation_rate: acc.viol.iter().map(|&v| v as f64 / total).collect(),
        critical_path: report.critical_path(),
        max_settle: acc.max_settle,
        samples: acc.samples,
    }
}
