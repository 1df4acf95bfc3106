//! `paper64`: the paper's 64-node lineup (TMIN, DMIN d=2, VMIN v=2,
//! BMIN) under uniform traffic and paper message sizes, at three loads,
//! two seeds per point, through `campaign_replicated_curve` on one
//! worker thread. The engine hot loop does almost all the work.

use crate::batch::{run_batch, timed};
use crate::layers::{self, EngineRun};
use crate::trace::{self_time_by_name, Tracer};
use crate::{mix, report_digest, Ctx, Outcome, SeedStream};
use minnet::routing::RouteTable;
use minnet::traffic::{Workload, WorkloadSpec, WorkloadTemplate};
use minnet::{
    campaign_replicated_curve, CampaignPolicy, CompiledExperiment, Experiment, NetworkSpec,
};

/// Offered loads and the engine regime each exercises.
const LOADS: [(f64, Band); 3] = [(0.1, Band::Low), (0.3, Band::Mid), (0.5, Band::Sat)];
/// Seeds per point: R > 1 takes the campaign's lockstep-fleet path.
const REPLICATIONS: usize = 2;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 6_000;
/// Set-ups per run, spread over the window.
const SETUPS: usize = 24;

/// Engine regime of a load: fast-forward, mixed, allocate/transmit bound.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Band {
    Low,
    Mid,
    Sat,
}

struct Unit {
    net: usize,
    load: f64,
    band: Band,
    exp: Experiment,
}

fn experiment(spec: NetworkSpec, seed: u64, warmup: u64, measure: u64) -> Experiment {
    let mut e = Experiment::paper_default(spec);
    e.sim.warmup = warmup;
    e.sim.measure = measure;
    e.sim.seed = seed;
    e
}

fn workload_spec(e: &Experiment, load: f64) -> WorkloadSpec {
    WorkloadSpec {
        offered_load: load,
        pattern: e.pattern,
        clustering: e.clustering.clone(),
        rates: e.rates.clone(),
        sizes: e.sizes,
    }
}

/// Compile every network, with layer probes in the traced run, and make
/// one warm-up run per compiled network.
fn setup(tr: &mut Tracer, nets: &[Experiment]) -> Result<Vec<CompiledExperiment>, String> {
    let mut out = Vec::new();
    for (i, e) in nets.iter().enumerate() {
        let id = i as u64;
        let c = tr.span("experiment.compile", id, |_| e.compile())?;
        if tr.is_on() {
            let g = tr.span("topology.graph_build", id, |_| e.network.build(e.geometry));
            tr.span("routing.table_build", id, |_| {
                RouteTable::build_parallel(&g, e.sim.table_build_threads as usize)
            })?;
            tr.span("traffic.template", id, |_| {
                WorkloadTemplate::compile(e.geometry, &workload_spec(e, 1.0))
            })?;
        }
        tr.span("warmup", id, |_| c.run_seeded(LOADS[1].0, e.sim.seed))?;
        out.push(c);
    }
    Ok(out)
}

/// One short point per network against the frozen reference engine.
fn reference_checks(o: &mut Outcome, nets: &[Experiment], seeds: &mut SeedStream) {
    for e in nets {
        let seed = seeds.next_u64();
        let short = experiment(e.network, seed, 500, 3_000);
        let load = LOADS[1].0;
        let fast = short.run_seeded(load, seed);
        let graph = e.network.build(e.geometry);
        let reference = Workload::compile(e.geometry, &workload_spec(&short, load)).and_then(|w| {
            let cfg = minnet::sim::EngineConfig {
                vcs: e.network.vcs(),
                seed,
                ..short.sim.clone()
            };
            minnet::sim::reference::run_simulation(&graph, &w, &cfg)
        });
        let name = e.network.name();
        match (fast, reference) {
            (Ok(f), Ok(r)) => o.check(f.bitwise_eq(&r), || {
                format!("{name}: engine differs from the reference engine at load {load}")
            }),
            (f, r) => o.check(false, || {
                format!("{name}: reference check errored: {f:?} / {r:?}")
            }),
        }
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut seeds = SeedStream::new(ctx.args.seed, "paper64");
    let nets: Vec<Experiment> = NetworkSpec::paper_lineup()
        .into_iter()
        .map(|spec| experiment(spec, seeds.next_u64(), WARMUP, MEASURE))
        .collect();
    let units: Vec<Unit> = (0..nets.len())
        .flat_map(|net| LOADS.iter().map(move |&(load, band)| (net, load, band)))
        .map(|(net, load, band)| Unit {
            net,
            load,
            band,
            exp: experiment(nets[net].network, seeds.next_u64(), WARMUP, MEASURE),
        })
        .collect();
    let nodes = u64::from(nets[0].geometry.nodes());
    let policy = CampaignPolicy::isolate();
    let mut o = Outcome::default();

    let tr = &mut ctx.tracer;
    let mut work = vec![0u64; units.len()];
    let (mut attempts, mut partial, mut failed) = (0u64, 0u64, 0u64);
    let mut direct = Vec::new();
    let mut mismatches = Vec::new();
    let batch = run_batch(
        tr,
        SETUPS,
        ctx.args.seconds,
        units.len(),
        |tr| setup(tr, &nets),
        |tr, compiled, u| {
            let unit = &units[u];
            let (points, secs) = timed(|| {
                tr.span("campaign.run", u as u64, |_| {
                    campaign_replicated_curve(&unit.exp, &[unit.load], REPLICATIONS, 1, &policy)
                })
            });
            let points = points?;
            let point = points.first().ok_or("campaign returned no point")?;
            let mut digest = 0u64;
            work[u] = 0;
            for (r, (outcome, &a)) in point.outcomes.iter().zip(&point.attempts).enumerate() {
                attempts += u64::from(a);
                partial += u64::from(outcome.is_partial());
                failed += u64::from(outcome.is_failed());
                let report = outcome
                    .ok_report()
                    .ok_or_else(|| format!("replication {r}: {}", outcome.tag()))?;
                digest = digest.rotate_left(17) ^ report_digest(report);
                work[u] += nodes * report.cycles;
                if tr.is_on() {
                    let seed = mix(unit.exp.sim.seed, (r + 1) as u64);
                    let d = tr.span("sim.run", u as u64, |_| {
                        compiled[unit.net].run_seeded(unit.load, seed)
                    })?;
                    if !d.bitwise_eq(report) {
                        mismatches.push(format!("unit {u} replication {r}: direct run differs"));
                    }
                    direct.push(EngineRun::new(u, &d, nodes));
                }
            }
            Ok((digest, secs))
        },
    )?;
    batch.report(&mut o, work.iter().sum(), tr.is_on());
    for m in mismatches {
        o.check(false, || m);
    }
    tr.span("check", 0, |_| reference_checks(&mut o, &nets, &mut seeds));
    if !tr.is_on() {
        return Ok(o);
    }

    let spans = tr.spans();
    layers::construction(&mut o, spans, batch.setups.len());
    layers::footprint(&mut o, &batch.state);
    let units = &units;
    let band = |b: Band| move |u: usize| units[u].band == b;
    layers::engine(
        &mut o,
        spans,
        &direct,
        &[
            ("sim.node_cycles_per_s.low", &band(Band::Low)),
            ("sim.node_cycles_per_s.mid", &band(Band::Mid)),
            ("sim.node_cycles_per_s.sat", &band(Band::Sat)),
            ("sim.node_cycles_per_s.table", &|_| true),
        ],
    );
    let by_name = self_time_by_name(spans);
    let campaign_s = by_name.get("campaign.run").copied().unwrap_or(0.0);
    o.set("campaign.run_s", campaign_s);
    o.set("campaign.overhead_s", campaign_s - o.metrics["sim.run_s"]);
    o.set("campaign.attempts", attempts as f64);
    o.set("campaign.points_partial", partial as f64);
    o.set("campaign.points_failed", failed as f64);
    Ok(o)
}
