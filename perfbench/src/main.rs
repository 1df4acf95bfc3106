//! `perfbench` — the minnet benchmark.
//!
//! ```text
//! perfbench --workload <paper64|scale_bmin|faults64|service|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when any correctness check fails. See
//! `README.md` beside this crate for the metrics and workloads.

mod batch;
mod faults64;
mod layers;
mod paper64;
mod scale_bmin;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: name and unit. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("node_cycles_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run: name and unit. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.graph_build_s", "s"),
    ("topology.graph_mb", "MB"),
    ("routing.table_build_s", "s"),
    ("routing.table_mb", "MB"),
    ("routing.table_cells", "count"),
    ("routing.logic_networks", "count"),
    ("traffic.template_s", "s"),
    ("experiment.compile_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.node_cycles", "count"),
    ("sim.delivered_flits", "count"),
    ("sim.node_cycles_per_s.low", "1/s"),
    ("sim.node_cycles_per_s.mid", "1/s"),
    ("sim.node_cycles_per_s.sat", "1/s"),
    ("sim.node_cycles_per_s.table", "1/s"),
    ("sim.node_cycles_per_s.logic", "1/s"),
    ("sim.faults_compile_s", "s"),
    ("sim.aborted_packets", "count"),
    ("sim.refused_packets", "count"),
    ("campaign.run_s", "s"),
    ("campaign.overhead_s", "s"),
    ("campaign.attempts", "count"),
    ("campaign.points_partial", "count"),
    ("campaign.points_failed", "count"),
    ("scenario.parse_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.verdict_s", "s"),
    ("scenario.verdict_bytes", "bytes"),
    ("scenario.not_as_declared", "count"),
    ("service.submit_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.run_job_ms", "ms"),
    ("service.poll_overhead_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.wire_bytes", "bytes"),
    ("service.job_p50_ms", "ms"),
    ("service.job_p90_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p90_ms", "ms"),
    ("daemon.start_s", "s"),
    ("daemon.rejected", "count"),
    ("daemon.journal_bytes", "bytes"),
    ("daemon.checkpoint_bytes", "bytes"),
    ("daemon.drain_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Service latency percentiles: printed in the untraced summary (the
/// batch workloads have no jobs, so they cannot be end-to-end metrics of
/// every workload) and recorded per layer as `service.*` when traced.
const SERVICE_LATENCY: &[&str] = &["job_p50_ms", "job_p90_ms", "hit_p50_ms", "hit_p90_ms"];

const WORKLOADS: &[&str] = &["paper64", "scale_bmin", "faults64", "service"];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed units, jobs, and correctness checks.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, by run mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Service latency percentiles (ms) for the summary.
    pub latency: BTreeMap<&'static str, f64>,
    /// Extra summary lines: sample counts, span dumps.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// Parsed arguments.
    pub args: Args,
    /// Span recorder (records only in the traced run).
    pub tracer: Tracer,
    /// Scratch directory for daemon state and span dumps.
    pub out_dir: PathBuf,
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// SplitMix64 stream over the run's seed: the one source of every
/// generated input.
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for `seed`, salted so each workload draws its own inputs.
    pub fn new(seed: u64, salt: &str) -> SeedStream {
        SeedStream(seed ^ stats::fnv1a(salt.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        minnet::topology::splitmix64(&mut self.0)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The workspace's seed mixer (`mix` in `minnet::sweep`), reproduced so
/// the benchmark can issue the runs a campaign or scenario derives
/// (`mix(base, task + 1)`, the chaos storm's `mix(seed, "chaos")`)
/// directly. The checks that compare those runs catch any drift.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic digest of a simulation report (every field, floats by
/// their exact decimal form).
pub fn report_digest(r: &minnet::sim::SimReport) -> u64 {
    stats::fnv1a(format!("{r:?}").as_bytes())
}

fn run_workload(args: Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let out_dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace, epoch),
        args,
        out_dir,
    };
    let mut outcome = match ctx.args.workload.as_str() {
        "paper64" => paper64::run(&mut ctx)?,
        "scale_bmin" => scale_bmin::run(&mut ctx)?,
        "faults64" => faults64::run(&mut ctx)?,
        "service" => service::run(&mut ctx)?,
        other => unreachable!("workload {other} passed argument checks"),
    };
    let end = ctx.tracer.now();
    if ctx.args.trace {
        let spans = ctx.tracer.spans();
        outcome.set("trace.coverage", trace::top_level_coverage(spans, 0.0, end));
        let path = ctx.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            ctx.args.workload, ctx.args.seed
        ));
        ctx.tracer.write_jsonl(&path)?;
        outcome.notes.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        ));
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(outcome)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_outcome(args: &Args, o: &Outcome) -> bool {
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut metrics = Vec::new();
    let mut complete = true;
    for &(name, unit) in list {
        let value = match o.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                complete = false;
                eprintln!("metric {name} was not measured");
                f64::NAN
            }
        };
        println!("  {name:<32} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if !args.trace {
        for &name in SERVICE_LATENCY {
            match o.latency.get(name) {
                Some(v) => println!("  {name:<32} {v:>16.6} ms"),
                None => println!("  {name:<32} {:>16} ms (no jobs in this workload)", "n/a"),
            }
        }
    }
    for note in &o.notes {
        println!("  {note}");
    }
    let failed = o.failures.len() as u64;
    println!(
        "  {:<32} {:>16.6} ratio ({failed} failed of {} attempted)",
        "error_rate",
        failed as f64 / o.attempted.max(1) as f64,
        o.attempted
    );
    for f in &o.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = failed == 0 && o.attempted > 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        metrics.join(", ")
    );
    correct
}

/// Run every workload, each in its own process so that `peak_rss_mb`
/// stays per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {w}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_workload(args.clone()) {
        Ok(o) => {
            if print_outcome(&args, &o) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must name the same metrics with the same units, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value") + 1..];
                        rest[..rest.find('"').expect("value ends")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = [
            "--workload",
            "paper64",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&a).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        let bad = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(bad(&["--workload", "nope"]).is_err());
        assert!(bad(&["--workload", "paper64", "--trace", "2"]).is_err());
        assert!(bad(&["--workload", "paper64", "--seconds"]).is_err());
        assert!(bad(&["--workload", "paper64", "--bogus", "1"]).is_err());
    }

    #[test]
    fn seed_streams_repeat_and_differ_by_salt() {
        let draw = |seed, salt| {
            let mut s = SeedStream::new(seed, salt);
            (0..4).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5, "paper64"), draw(5, "paper64"));
        assert_ne!(draw(5, "paper64"), draw(5, "service"));
        assert_ne!(draw(5, "paper64"), draw(6, "paper64"));
    }
}
