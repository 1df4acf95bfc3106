//! `scale_bmin`: a 1024-node BMIN (k=4, n=5) that compiles a route
//! table and a 4096-node BMIN (k=4, n=6) above the table cap that routes
//! through the logic router, each at load 0.1 with 32-flit messages over
//! a steady-state window. Construction dominates set-up and memory; the
//! engine runs with a footprint far beyond the 64-node networks'.

use crate::batch::{run_batch, timed};
use crate::layers::{self, EngineRun};
use crate::trace::Tracer;
use crate::{report_digest, Ctx, Outcome, SeedStream};
use minnet::routing::RouteTable;
use minnet::topology::Geometry;
use minnet::traffic::{MessageSizeDist, WorkloadSpec, WorkloadTemplate};
use minnet::{CompiledExperiment, Experiment, NetworkSpec};

/// Stages of the two networks (4×4 switches): 1024 and 4096 terminals.
const STAGES: [u32; 2] = [5, 6];
const LOAD: f64 = 0.1;
const WARMUP: u64 = 300;
const MEASURE: u64 = 700;
const SETUPS: usize = 6;

fn experiment(n: u32, seed: u64) -> Experiment {
    let mut e = Experiment::paper_default(NetworkSpec::Bmin);
    e.geometry = Geometry::new(4, n);
    e.sizes = MessageSizeDist::Fixed(32);
    e.sim.warmup = WARMUP;
    e.sim.measure = MEASURE;
    e.sim.seed = seed;
    e
}

fn setup(tr: &mut Tracer, nets: &[Experiment]) -> Result<Vec<CompiledExperiment>, String> {
    let mut out = Vec::new();
    for (i, e) in nets.iter().enumerate() {
        let id = i as u64;
        let c = tr.span("experiment.compile", id, |_| e.compile())?;
        if tr.is_on() {
            let g = tr.span("topology.graph_build", id, |_| e.network.build(e.geometry));
            if c.network().routes().is_some() {
                tr.span("routing.table_build", id, |_| {
                    RouteTable::build_parallel(&g, e.sim.table_build_threads as usize)
                })?;
            }
            let spec = WorkloadSpec {
                offered_load: 1.0,
                pattern: e.pattern,
                clustering: e.clustering.clone(),
                rates: None,
                sizes: e.sizes,
            };
            tr.span("traffic.template", id, |_| {
                WorkloadTemplate::compile(e.geometry, &spec)
            })?;
        }
        tr.span("warmup", id, |_| c.run_seeded(LOAD, e.sim.seed))?;
        out.push(c);
    }
    Ok(out)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut seeds = SeedStream::new(ctx.args.seed, "scale_bmin");
    let nets: Vec<Experiment> = STAGES
        .iter()
        .map(|&n| experiment(n, seeds.next_u64()))
        .collect();
    // One timed run per network, as (network, seed): the fewer the
    // units, the more often each repeats in the window, and a 1024- or
    // 4096-node run averages over plenty of traffic on its own.
    let units: Vec<(usize, u64)> = (0..nets.len()).map(|net| (net, seeds.next_u64())).collect();
    let mut o = Outcome::default();

    let tr = &mut ctx.tracer;
    let mut work = vec![0u64; units.len()];
    let mut runs = Vec::new();
    let batch = run_batch(
        tr,
        SETUPS,
        ctx.args.seconds,
        units.len(),
        |tr| setup(tr, &nets),
        |tr, compiled, u| {
            let (net, seed) = units[u];
            let c = &compiled[net];
            let (report, secs) =
                timed(|| tr.span("sim.run", u as u64, |_| c.run_seeded(LOAD, seed)));
            let report = report?;
            let nodes = u64::from(c.graph().geometry.nodes());
            work[u] = nodes * report.cycles;
            if tr.is_on() {
                runs.push(EngineRun::new(u, &report, nodes));
            }
            Ok((report_digest(&report), secs))
        },
    )?;
    batch.report(&mut o, work.iter().sum(), tr.is_on());
    let compiled = &batch.state;
    let modes: Vec<bool> = compiled
        .iter()
        .map(|c| c.network().routes().is_some())
        .collect();
    o.check(modes == [true, false], || {
        format!("expected a table-mode and a logic-mode network, got table flags {modes:?}")
    });
    if !tr.is_on() {
        return Ok(o);
    }

    let spans = tr.spans();
    layers::construction(&mut o, spans, batch.setups.len());
    layers::footprint(&mut o, compiled);
    let table_mode = |u: usize| modes[units[u].0];
    layers::engine(
        &mut o,
        spans,
        &runs,
        &[
            ("sim.node_cycles_per_s.table", &table_mode),
            ("sim.node_cycles_per_s.logic", &|u| !table_mode(u)),
        ],
    );
    Ok(o)
}
