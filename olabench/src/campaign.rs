//! `fault_campaign`: single-fault campaigns over all four fault classes on
//! the online and array multipliers, under a batch-exact delay model. The
//! only workload that runs the batch engine's incremental path
//! (`run_incremental` with a `LaneFaultSet`): a clean pass and a faulty
//! overlay per lane group.

use crate::common::{self, Cfg, Outcome};
use crate::{gen, trace};
use ola_arith::synth::{
    array_multiplier, online_multiplier, ArrayMultiplierCircuit, OnlineMultiplierCircuit,
};
use ola_core::campaign::{
    array_fault_campaign_with_stats, online_fault_campaign_with_stats, CampaignConfig, FaultClass,
};
use ola_core::parallel::{parallel_accumulate_batched, parallel_map};
use ola_core::{BackendStats, InputModel, SimBackend};
use ola_netlist::batch::{LaneBlock, LaneFaultSet, LaneInputs};
use ola_netlist::fault::logic_fault_sites;
use ola_netlist::{analyze, FaultPlan, NetId, UnitDelay};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

const WIDTH: usize = 6;
const SITES: usize = 24;
/// The fault classes in op order. A transient campaign costs twice as much
/// as one of the other three classes, so the ops form two latency
/// clusters: the cheap classes (0-67% of ops) and transient (67-100%). The
/// median sits 17 points below the edge between them and the tail
/// percentile 13 points above it, so neither moves with the exact op count.
const CYCLE: [FaultClass; 6] = [
    FaultClass::StuckAt0,
    FaultClass::Transient,
    FaultClass::StuckAt1,
    FaultClass::DelayPush,
    FaultClass::Transient,
    FaultClass::StuckAt0,
];
const SAMPLES_PER_SITE: usize = 8;
const STREAM: usize = 2000;
/// About eighty ops per run.
const TAIL_PCT: f64 = 80.0;

struct Setup {
    om: OnlineMultiplierCircuit,
    am: ArrayMultiplierCircuit,
    seeds: Vec<u64>,
}

fn setup(seed: u64) -> Setup {
    let mut rng = gen::rng(seed, 4);
    let seeds = (0..STREAM).map(|_| rng.gen::<u64>()).collect();
    Setup { om: online_multiplier(WIDTH, 3), am: array_multiplier(WIDTH), seeds }
}

/// Op `i` runs class `CYCLE[i mod 6]` on the online design, then on the
/// array design.
fn class_of(i: usize) -> FaultClass {
    CYCLE[i % CYCLE.len()]
}

fn label(s: &Setup, i: usize) -> String {
    format!("fault_campaign op {i} (w{WIDTH} all classes, seed {})", s.seeds[i])
}

fn config(seed: u64, tiny: bool, backend: SimBackend) -> CampaignConfig {
    CampaignConfig {
        samples_per_site: if tiny { 2 } else { SAMPLES_PER_SITE },
        max_sites: Some(if tiny { 2 } else { SITES }),
        seed,
        backend,
        ..CampaignConfig::default()
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let (s, mut setups) = common::Setups::start(|| setup(cfg.seed));
    let mut shared = (0u64, 0u64);
    let timed = common::timed_ops(
        cfg,
        &mut setups,
        |i| label(&s, i),
        // One op covers both designs because an array campaign costs a few
        // percent of an online one: alone, its ops would form a third
        // cluster.
        |i| {
            let cc = config(s.seeds[i], cfg.tiny, SimBackend::Auto);
            let mut out = Vec::new();
            let class = class_of(i);
            {
                for online in [true, false] {
                    if cfg.traced {
                        out.extend(traced_campaign(&s, online, class, &cc, &mut shared));
                        continue;
                    }
                    let report = if online {
                        online_fault_campaign_with_stats(
                            &s.om,
                            &UnitDelay,
                            InputModel::UniformDigits,
                            class,
                            &cc,
                        )
                        .0
                    } else {
                        array_fault_campaign_with_stats(&s.am, &UnitDelay, class, &cc).0
                    };
                    if report.unsettled != 0 {
                        return Err(format!(
                            "{} unsettled samples ({} {})",
                            report.unsettled,
                            report.arch,
                            class.label()
                        ));
                    }
                    out.extend(format!("{report:?}").into_bytes());
                }
            }
            Ok(out)
        },
    );
    let mut out = common::outcome(setups.times, TAIL_PCT, timed);
    out.counts.insert(
        "netlist.batch.incremental.shared_frac".into(),
        if shared.1 > 0 { shared.0 as f64 / shared.1 as f64 } else { 0.0 },
    );

    // Output check, outside the timed phase: a mini transient campaign
    // (the class whose plans draw randomness) on each design must agree
    // between the event and batch engines.
    for online in [true, false] {
        out.attempted += 1;
        let arch = if online { "online" } else { "array" };
        let what = format!("fault_campaign check ({arch} mini campaign, event vs batch)");
        let mini = |backend| CampaignConfig {
            max_sites: Some(6),
            samples_per_site: 4,
            ..config(cfg.seed, false, backend)
        };
        let result = common::guarded(&what, || {
            let run = |backend| {
                if online {
                    online_fault_campaign_with_stats(
                        &s.om,
                        &UnitDelay,
                        InputModel::UniformDigits,
                        FaultClass::Transient,
                        &mini(backend),
                    )
                    .0
                } else {
                    array_fault_campaign_with_stats(
                        &s.am,
                        &UnitDelay,
                        FaultClass::Transient,
                        &mini(backend),
                    )
                    .0
                }
            };
            if run(SimBackend::Event) == run(SimBackend::Batch) {
                Ok(())
            } else {
                Err("event and batch engines disagree".into())
            }
        });
        if let Err(e) = result {
            out.failures.push(e);
        }
    }
    out
}

/// The per-group tallies of the traced campaign.
#[derive(Clone, Default)]
struct Acc {
    samples: u64,
    errors: u64,
    detected: u64,
    false_alarms: u64,
    shared: u64,
    nets: u64,
    stats: BackendStats,
}

/// The campaign's batch path, one layer call at a time: STA for the rated
/// period, the compile memo, then per fault site and lane group a clean
/// batch pass, the fault set, the incremental faulty pass, and the
/// campaign's judgement of main and shadow captures.
fn traced_campaign(
    s: &Setup,
    online: bool,
    class: FaultClass,
    cfg: &CampaignConfig,
    shared: &mut (u64, u64),
) -> Vec<u8> {
    let netlist = if online { &s.om.netlist } else { &s.am.netlist };
    let wires: Vec<NetId> = if online {
        netlist.output("zp").iter().chain(netlist.output("zn")).copied().collect()
    } else {
        netlist.output("product").to_vec()
    };
    let sites = trace::timed("core.campaign", || {
        let all = logic_fault_sites(netlist);
        match cfg.max_sites {
            Some(m) if m > 0 && all.len() > m => (0..m).map(|i| all[i * all.len() / m]).collect(),
            _ => all,
        }
    });
    ola_core::obs::registry().counter("ola.campaign.sites").add(sites.len() as u64);
    let period = trace::timed("netlist.sta", || analyze(netlist, &UnitDelay)).critical_path();
    let t_main = period;
    let margin = ((period as f64) * cfg.shadow_margin_frac).round() as u64;
    let t_shadow = period + margin.max(1);
    let prog = trace::timed("core.memo", || ola_core::memo::batch_program(netlist, &UnitDelay))
        .expect("multipliers compile");
    let n = s.om.n;
    let w = s.am.width;
    let lim = 1i64 << (w - 1);
    let draw = |rng: &mut ChaCha8Rng| -> Vec<bool> {
        if online {
            let x = InputModel::UniformDigits.draw(rng, n);
            let y = InputModel::UniformDigits.draw(rng, n);
            s.om.encode_inputs(&x, &y)
        } else {
            let a = rng.gen_range(-lim..lim);
            let b = rng.gen_range(-lim..lim);
            s.am.encode_inputs(a, b)
        }
    };
    let plan = |site: NetId, rng: &mut ChaCha8Rng| match class {
        FaultClass::StuckAt0 => FaultPlan::new().stuck_at(site, false),
        FaultClass::StuckAt1 => FaultPlan::new().stuck_at(site, true),
        FaultClass::Transient => {
            let at = rng.gen_range(0..period.max(1));
            FaultPlan::new().transient(site, at, cfg.transient_duration)
        }
        FaultClass::DelayPush => FaultPlan::new().delay_push(site, cfg.delay_push),
    };
    type B = LaneBlock<4>;
    let per_site: Vec<Acc> = parallel_map(&sites, |site_idx, &site| {
        let site_seed = cfg.seed ^ (site_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        parallel_accumulate_batched(
            cfg.samples_per_site,
            site_seed,
            common::LANE_WIDTH as usize,
            Acc::default,
            |rng| (draw(rng), plan(site, rng)),
            |group: &[(Vec<bool>, FaultPlan)], acc: &mut Acc| {
                let lanes = group.len() as u32;
                let vectors: Vec<Vec<bool>> = group.iter().map(|(v, _)| v.clone()).collect();
                let plans: Vec<FaultPlan> = group.iter().map(|(_, p)| p.clone()).collect();
                let prev = LaneInputs::<B>::zeros(prog.num_inputs(), lanes).expect("lanes ≤ 256");
                let new = LaneInputs::<B>::pack(&vectors).expect("full vectors");
                let clean =
                    trace::timed("netlist.batch", || prog.run(&prev, &new)).expect("valid shapes");
                let faulty = trace::timed("netlist.batch.incremental", || {
                    let faults = LaneFaultSet::<B>::compile(&plans, prog.num_nets())
                        .expect("plans target in-range nets");
                    prog.run_incremental(&clean, &prev, &new, Some(&faults))
                })
                .expect("fault set compiled against this program");
                let _judge = trace::span("core.campaign");
                acc.shared += faulty.shared_waves() as u64;
                acc.nets += prog.num_nets() as u64;
                for lane in 0..lanes {
                    let correct = clean.final_bus(&wires, lane);
                    let main = faulty.sample_bus(&wires, lane, t_main);
                    let shadow = faulty.sample_bus(&wires, lane, t_shadow);
                    acc.samples += 1;
                    if main != correct {
                        acc.errors += 1;
                        if main != shadow {
                            acc.detected += 1;
                        }
                    } else if main != shadow {
                        acc.false_alarms += 1;
                    }
                }
                let st = &mut acc.stats;
                st.backend = "batch";
                st.vectors += u64::from(lanes);
                st.ts_points += 2 * u64::from(lanes);
                st.batch_runs += 2;
                st.lanes_used += 2 * u64::from(lanes);
                st.lane_capacity = common::LANE_WIDTH;
                st.word_steps += clean.word_steps() + faulty.word_steps();
                st.lane_transitions += clean.lane_transitions() + faulty.lane_transitions();
            },
            |mut a, b| {
                a.samples += b.samples;
                a.errors += b.errors;
                a.detected += b.detected;
                a.false_alarms += b.false_alarms;
                a.shared += b.shared;
                a.nets += b.nets;
                a.stats.merge(&b.stats);
                a
            },
        )
    });
    let mut total = Acc::default();
    for a in &per_site {
        total.samples += a.samples;
        total.errors += a.errors;
        total.detected += a.detected;
        total.false_alarms += a.false_alarms;
        total.shared += a.shared;
        total.nets += a.nets;
        total.stats.merge(&a.stats);
    }
    total.stats.publish();
    shared.0 += total.shared;
    shared.1 += total.nets;
    format!(
        "samples={} errors={} detected={} false_alarms={}",
        total.samples, total.errors, total.detected, total.false_alarms
    )
    .into_bytes()
}
