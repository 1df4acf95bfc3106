//! Per-layer metrics the batch workloads share: construction, footprint
//! and engine rates from the traced run's spans.

use crate::trace::{self_time_by_name, self_times, Span};
use crate::Outcome;
use minnet::sim::SimReport;
use minnet::CompiledExperiment;

/// Per-set-up self time of the construction layers.
pub fn construction(o: &mut Outcome, spans: &[Span], setups: usize) {
    let by_name = self_time_by_name(spans);
    for (metric, span) in [
        ("experiment.compile_s", "experiment.compile"),
        ("topology.graph_build_s", "topology.graph_build"),
        ("routing.table_build_s", "routing.table_build"),
        ("traffic.template_s", "traffic.template"),
        ("scenario.parse_s", "scenario.parse"),
        ("sim.faults_compile_s", "sim.faults_compile"),
    ] {
        o.set(
            metric,
            by_name.get(span).copied().unwrap_or(0.0) / setups as f64,
        );
    }
}

/// Graph and route-table footprint of the compiled networks.
pub fn footprint(o: &mut Outcome, compiled: &[CompiledExperiment]) {
    const MB: f64 = 1024.0 * 1024.0;
    let mut graph = 0.0;
    let mut table = 0.0;
    let mut cells = 0.0;
    let mut logic = 0.0;
    for c in compiled {
        let g = c.graph();
        graph += g.approx_bytes() as f64;
        match c.network().routes() {
            Some(t) => {
                table += t.approx_bytes() as f64;
                cells += g.num_channels() as f64 * f64::from(g.geometry.nodes());
            }
            None => logic += 1.0,
        }
    }
    o.set("topology.graph_mb", graph / MB);
    o.set("routing.table_mb", table / MB);
    o.set("routing.table_cells", cells);
    o.set("routing.logic_networks", logic);
}

/// One engine run made inside a traced `sim.run` span whose id is `unit`.
pub struct EngineRun {
    unit: usize,
    node_cycles: u64,
    delivered_flits: f64,
}

impl EngineRun {
    /// Record `report`, a run of `unit` on a `nodes`-node network.
    pub fn new(unit: usize, report: &SimReport, nodes: u64) -> EngineRun {
        EngineRun {
            unit,
            node_cycles: nodes * report.cycles,
            delivered_flits: (report.accepted_flits_per_node_cycle
                * nodes as f64
                * report.measured_cycles as f64)
                .round(),
        }
    }
}

/// The engine layer: busy time and counts of the traced runs, and the
/// node-cycle rate of each class of units (`classes` pairs a metric with
/// the units it covers).
pub fn engine(
    o: &mut Outcome,
    spans: &[Span],
    runs: &[EngineRun],
    classes: &[(&'static str, &dyn Fn(usize) -> bool)],
) {
    let self_t = self_times(spans);
    let busy = |class: &dyn Fn(usize) -> bool| -> f64 {
        spans
            .iter()
            .zip(&self_t)
            .filter(|(s, _)| s.name == "sim.run" && class(s.id as usize))
            .map(|(_, t)| t)
            .sum()
    };
    let cycles = |class: &dyn Fn(usize) -> bool| -> u64 {
        runs.iter()
            .filter(|r| class(r.unit))
            .map(|r| r.node_cycles)
            .sum()
    };
    o.set("sim.run_s", busy(&|_| true));
    o.set("sim.runs", runs.len() as f64);
    o.set("sim.node_cycles", cycles(&|_| true) as f64);
    o.set(
        "sim.delivered_flits",
        runs.iter().map(|r| r.delivered_flits).sum(),
    );
    for &(metric, class) in classes {
        o.set(metric, cycles(class) as f64 / busy(class));
    }
}
