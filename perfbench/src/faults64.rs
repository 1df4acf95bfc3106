//! `faults64`: scenario texts generated from the seed — 64-node TMIN and
//! BMIN under permanent and transient inter-stage link faults and one
//! chaos storm, 32-flit Poisson traffic — each parsed, run and judged
//! through the scenario layer. The engine runs its faulted path: epoch
//! switching, masked tables, abort/drain and refusals.

use crate::batch::{run_batch, timed};
use crate::layers;
use crate::stats::fnv1a;
use crate::trace::{self_time_by_name, Tracer};
use crate::{mix, report_digest, Ctx, Outcome, SeedStream};
use minnet::sim::{with_pooled_state, ChaosSchedule, ChaosTarget, SimReport};
use minnet::topology::{inter_stage_channels, Fault, FaultPlan, FaultTarget, Geometry};
use minnet::{verdict_report_json, CampaignPolicy, NetworkSpec, Scenario, ScenarioSet};
use std::fmt::Write;

const LOAD: f64 = 0.2;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 15_000;
const SETUPS: usize = 16;
/// `Scenario::run` expands a chaos storm from `mix(scenario seed, "chaos")`.
const CHAOS_SALT: u64 = 0x0063_6861_6f73;

/// A generated scenario: its `.scn` text, and the explicit fault it
/// declares and whether it declares the storm, so that the set-up can
/// compile the fault plan `Scenario::run` compiles.
struct Generated {
    name: String,
    text: String,
    plan: FaultPlan,
    storm: bool,
}

/// A parsed scenario and the report of the set-up's run of its first
/// point, which the scenario's own first point must equal.
struct Prepared {
    scenario: Scenario,
    first_point: u64,
}

/// What one repetition of a scenario produced; the same every time.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    node_cycles: u64,
    aborted: u64,
    refused: u64,
    verdict_bytes: u64,
}

/// The storm's shape; the targets and onsets come from the scenario seed.
const STORM: ChaosSchedule = ChaosSchedule {
    target: ChaosTarget::Channel,
    count: 3,
    min_onset: WARMUP,
    max_onset: WARMUP + MEASURE / 3,
    duration: 600,
    cooldown: 400,
    rounds: 3,
};

fn header(name: &str, network: &str, seed: u64) -> String {
    format!(
        "name = {name}\nnetwork = {network}\nk = 4\nn = 3\npattern = uniform\n\
         sizes = fixed:32\nloads = {LOAD}\nseed = {seed}\nwarmup = {WARMUP}\nmeasure = {MEASURE}\n"
    )
}

/// Six scenarios from the seed: per network a permanent and a transient
/// link fault, a TMIN refusal check declared to fail, and a BMIN storm.
fn generate(seeds: &mut SeedStream) -> Vec<Generated> {
    let g = Geometry::new(4, 3);
    let pool = |spec: NetworkSpec| inter_stage_channels(&spec.build(g));
    let (tmin_links, bmin_links) = (pool(NetworkSpec::tmin()), pool(NetworkSpec::Bmin));
    let mut out = Vec::new();
    let mut link_fault = |network: &str, links: &[u32], transient: bool, expect: &str| {
        let seed = seeds.next_u64();
        let ch = links[seeds.below(links.len())];
        let kind = if transient { "transient" } else { "permanent" };
        let name = format!("{network}-{kind}-{}", out.len());
        let mut text = header(&name, network, seed);
        let fault = if transient {
            let onset = WARMUP + seeds.next_u64() % (MEASURE / 3);
            let repair = onset + 2_000 + seeds.next_u64() % (MEASURE / 3);
            writeln!(text, "fault = channel {ch} @ {onset}..{repair}").expect("String write");
            Fault::transient(FaultTarget::Channel(ch), onset, repair)
        } else {
            writeln!(text, "fault = channel {ch}").expect("String write");
            Fault::permanent(FaultTarget::Channel(ch))
        };
        text.push_str(expect);
        out.push(Generated {
            name,
            text,
            plan: FaultPlan::new().with(fault),
            storm: false,
        });
    };
    // A unique-path TMIN refuses the traffic whose route a permanent
    // link fault cuts; its other traffic keeps flowing.
    let degraded = "expect.sustainable = true\nexpect.delivery = 0.5\nexpect.no_stall = true\n";
    link_fault("tmin", &tmin_links, false, degraded);
    link_fault("tmin", &tmin_links, true, degraded);
    // ~1.6% of pairs cross any one TMIN link, so the window's ~2400
    // messages include refusals: declared to fail `no_refusals`.
    link_fault(
        "tmin",
        &tmin_links,
        false,
        "expect.no_refusals = true\nexpected_verdict = fail\n",
    );
    // The BMIN routes around any single inter-stage link.
    let rerouted = "expect.no_refusals = true\nexpect.delivery = 0.7\nexpect.no_stall = true\n";
    link_fault("bmin", &bmin_links, false, rerouted);
    link_fault("bmin", &bmin_links, true, rerouted);

    let seed = seeds.next_u64();
    let name = format!("bmin-storm-{}", out.len());
    let mut text = header(&name, "bmin", seed);
    writeln!(
        text,
        "chaos.target = channel\nchaos.count = {}\nchaos.min_onset = {}\nchaos.max_onset = {}\n\
         chaos.duration = {}\nchaos.cooldown = {}\nchaos.rounds = {}\n\
         expect.delivery = 0.5\nexpect.no_stall = true",
        STORM.count, STORM.min_onset, STORM.max_onset, STORM.duration, STORM.cooldown, STORM.rounds
    )
    .expect("String write");
    out.push(Generated {
        name,
        text,
        plan: FaultPlan::new(),
        storm: true,
    });
    out
}

/// Parse every scenario, and compile its network and fault plan as
/// `Scenario::run` does: the explicit faults plus the storm expanded
/// from `mix(seed, CHAOS_SALT)`. Then run the scenario's first point
/// (task seed `mix(seed, 1)`) once under those faults: the warm-up run,
/// and the reference the timed runs' first point is checked against, so
/// a fault plan that differs from the scenario's fails the run.
fn setup(tr: &mut Tracer, gen: &[Generated]) -> Result<Vec<Prepared>, String> {
    let mut out = Vec::new();
    for (i, g) in gen.iter().enumerate() {
        let id = i as u64;
        let scenario = tr.span("scenario.parse", id, |_| Scenario::parse(&g.text, &g.name))?;
        let exp = scenario.experiment();
        let c = tr.span("experiment.compile", id, |_| exp.compile())?;
        let faults = tr
            .span("sim.faults_compile", id, |_| {
                let mut plan = g.plan.clone();
                if g.storm {
                    let seed = mix(exp.sim.seed, CHAOS_SALT);
                    let storm = STORM.compile_plan(c.graph(), exp.network.vcs(), seed)?;
                    for f in storm.faults() {
                        plan.push(*f);
                    }
                }
                c.network().compile_faults(&plan)
            })
            .map_err(|e| format!("{}: {e}", g.name))?;
        let report = tr.span("warmup", id, |_| {
            let w = c.template().workload_at(LOAD)?;
            with_pooled_state(|st| {
                c.network()
                    .run_poisson_faulted(&w, Some(&faults), mix(exp.sim.seed, 1), st)
            })
            .map_err(|e| e.to_string())
        })?;
        out.push(Prepared {
            scenario,
            first_point: point_digest(report),
        });
    }
    Ok(out)
}

/// The digest of a point's report as a verdict carries it (`Scenario::run`
/// strips delivery records and traces).
fn point_digest(mut r: SimReport) -> u64 {
    r.deliveries = None;
    r.trace = None;
    report_digest(&r)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut seeds = SeedStream::new(ctx.args.seed, "faults64");
    let gen = generate(&mut seeds);
    let dir = ctx.out_dir.join(format!("faults64-{}", ctx.args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for g in &gen {
        let path = dir.join(format!("{}.scn", g.name));
        std::fs::write(&path, &g.text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut o = Outcome::default();
    let tr = &mut ctx.tracer;

    let policy = CampaignPolicy::isolate();
    let mut tally = vec![Tally::default(); gen.len()];
    let (mut attempts, mut partial, mut failed, mut not_declared) = (0u64, 0u64, 0u64, 0u64);
    let batch = run_batch(
        tr,
        SETUPS,
        ctx.args.seconds,
        gen.len(),
        |tr| setup(tr, &gen),
        |tr, prepared, u| {
            let Prepared {
                scenario: s,
                first_point,
            } = &prepared[u];
            let (result, secs) = timed(|| {
                let verdict = tr.span("scenario.run", u as u64, |_| s.run(1, &policy))?;
                let set = ScenarioSet {
                    verdicts: vec![verdict],
                    skipped: Vec::new(),
                };
                let json = tr.span("scenario.verdict", u as u64, |_| verdict_report_json(&set));
                Ok::<_, String>((set, json))
            });
            let (set, json) = result?;
            let verdict = &set.verdicts[0];
            let nodes = u64::from(s.experiment().geometry.nodes());
            let mut t = Tally {
                verdict_bytes: json.len() as u64,
                ..Tally::default()
            };
            for p in &verdict.points {
                attempts += u64::from(p.attempts);
                partial += u64::from(p.outcome.is_partial());
                failed += u64::from(p.outcome.is_failed());
                if let Some(r) = p.outcome.report() {
                    t.node_cycles += nodes * r.cycles;
                    t.aborted += r.aborted_packets;
                    t.refused += r.undeliverable_packets;
                }
            }
            tally[u] = t;
            if !verdict.as_expected() {
                not_declared += 1;
                return Err(format!(
                    "{} ended {} but declared {}",
                    verdict.scenario,
                    verdict.status.as_str(),
                    verdict.expected.as_str()
                ));
            }
            if let Some(p) = verdict.points.iter().find(|p| !p.outcome.is_ok()) {
                return Err(format!(
                    "{} point {}: {}",
                    verdict.scenario,
                    p.label,
                    p.outcome.tag()
                ));
            }
            let first = verdict.points.first().and_then(|p| p.outcome.report());
            if first.map(|r| point_digest(r.clone())) != Some(*first_point) {
                return Err(format!(
                    "{}: first point differs from the set-up's run under the same fault plan",
                    verdict.scenario
                ));
            }
            Ok((fnv1a(json.as_bytes()), secs))
        },
    )?;
    batch.report(
        &mut o,
        tally.iter().map(|t| t.node_cycles).sum(),
        tr.is_on(),
    );
    if !tr.is_on() {
        return Ok(o);
    }

    let spans = tr.spans();
    layers::construction(&mut o, spans, batch.setups.len());
    let by_name = self_time_by_name(spans);
    let t = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    o.set("scenario.run_s", t("scenario.run"));
    o.set("scenario.verdict_s", t("scenario.verdict"));
    o.set("campaign.attempts", attempts as f64);
    o.set("campaign.points_partial", partial as f64);
    o.set("campaign.points_failed", failed as f64);
    let per_pass = |f: fn(&Tally) -> u64| tally.iter().map(f).sum::<u64>() as f64;
    o.set("sim.aborted_packets", per_pass(|t| t.aborted));
    o.set("sim.refused_packets", per_pass(|t| t.refused));
    o.set("scenario.verdict_bytes", per_pass(|t| t.verdict_bytes));
    o.set("scenario.not_as_declared", not_declared as f64);
    Ok(o)
}
