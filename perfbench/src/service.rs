//! `service`: an in-process `minnetd` on loopback (2 workers, 1 thread
//! per job) driven by 2 closed-loop clients. About two-thirds of the
//! submissions are cold 64-node jobs with distinct seeds; the rest
//! resubmit one of the client's own finished specs, which the result
//! cache answers. Wire I/O, admission, journal writes and the cache
//! dominate; each job simulates little.

use crate::batch::timed;
use crate::stats::{median, percentile};
use crate::trace::{durations, Tracer};
use crate::{Ctx, Outcome, SeedStream};
use minnet::service::{run_job, JobSpec, Request, Response, ServiceClient};
use minnet::sim::RunBudget;
use minnet_daemon::{Daemon, DaemonConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

const CLIENTS: usize = 2;
/// Submissions per client per second of `--seconds`: a fixed job count,
/// so the daemon's state (and footprint) at the end does not depend on
/// host speed. About what two clients complete per second here.
const JOBS_PER_SECOND: u64 = 90;
const WARMUP: u64 = 300;
const MEASURE: u64 = 900;
/// The daemon's default budget, substituted into every spec: a cycle
/// cap (deterministic, unlike a wall-clock one) that a completed job
/// never reaches. A job it cuts shows as a `partial` point and fails
/// the run.
const BUDGET_CYCLES: u64 = 4 * (WARMUP + MEASURE);
/// Daemon starts per run. Their spread comes mostly from the listener's
/// 1 ms accept poll, so the median, not the fastest, is reported.
const SETUPS: usize = 40;
/// In-process `run_job` repetitions per client, for the byte check and
/// `service.run_job_ms`.
const RUN_JOB_CHECKS: usize = 20;
const WAIT_DEADLINE: Duration = Duration::from_secs(30);

/// One cold job: a 64-node curve of one load point.
fn cold_spec(seeds: &mut SeedStream) -> JobSpec {
    const NETWORKS: [&str; 4] = ["tmin", "dmin", "vmin", "bmin"];
    const LOADS: [f64; 2] = [0.2, 0.3];
    JobSpec {
        network: NETWORKS[seeds.below(NETWORKS.len())].into(),
        sizes: "fixed:32".into(),
        loads: vec![LOADS[seeds.below(LOADS.len())]],
        warmup: WARMUP,
        measure: MEASURE,
        seed: seeds.next_u64(),
        ..JobSpec::default()
    }
}

/// Terminals of a job's network (0 for a spec that does not validate,
/// which the daemon would have refused).
fn nodes(spec: &JobSpec) -> u64 {
    spec.to_experiment()
        .map_or(0, |e| u64::from(e.geometry.nodes()))
}

/// Σ of the `"cycles"` fields of a job's result: the cycles its points
/// simulated, as the reports give them.
fn result_cycles(result: &str) -> u64 {
    const KEY: &str = "\"cycles\":";
    result
        .match_indices(KEY)
        .map(|(at, _)| {
            let digits = &result[at + KEY.len()..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse::<u64>().unwrap_or(0)
        })
        .sum()
}

/// One client's record of the closed loop.
#[derive(Default)]
struct ClientLog {
    cold_ms: Vec<f64>,
    /// Σ cold job latency, seconds.
    cold_secs: f64,
    hit_ms: Vec<f64>,
    /// Cold specs with their result bytes, in completion order.
    done: Vec<(JobSpec, String)>,
    /// Σ nodes × cycles the cold jobs' result reports give.
    node_cycles: u64,
    wire_bytes: u64,
    attempted: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

/// Submit one job and wait for its result bytes.
fn one_job(
    client: &ServiceClient,
    name: &str,
    spec: &JobSpec,
    hit: bool,
    id: u64,
    tr: &mut Tracer,
) -> Result<(String, u64), String> {
    let request = Request::Submit {
        client: name.to_string(),
        spec: spec.clone(),
    };
    let reply = tr.span("service.submit", id, |_| client.submit(name, spec))?;
    let Response::Accepted { job_id, cached } = &reply else {
        return Err(format!("submit answered {reply:?}"));
    };
    if *cached != hit {
        return Err(format!("job {job_id}: cached={cached}, expected {hit}"));
    }
    let wait = if hit {
        "service.result"
    } else {
        "service.wait"
    };
    let result = tr.span(wait, id, |_| client.wait_result(job_id, WAIT_DEADLINE))?;
    let result_request = Request::Result {
        job_id: job_id.clone(),
    };
    let result_reply = Response::JobResult {
        job_id: job_id.clone(),
        result: result.clone(),
    };
    let bytes = [
        request.to_line(),
        reply.to_line(),
        result_request.to_line(),
        result_reply.to_line(),
    ]
    .iter()
    .map(|l| l.len() as u64 + 1)
    .sum();
    Ok((result, bytes))
}

/// A closed loop of `jobs` submissions, each waiting for the last.
fn client_loop(
    addr: &str,
    c: usize,
    seed: u64,
    salt: &str,
    jobs: u64,
    mut tr: Tracer,
) -> ClientLog {
    let client = ServiceClient::new(addr);
    let name = format!("bench-{c}");
    let mut seeds = SeedStream::new(seed, &format!("service-client-{c}{salt}"));
    let mut log = ClientLog::default();
    tr.span("client", c as u64, |tr| {
        for job in 0..jobs {
            // Every third submission resubmits one of the client's own
            // finished specs: a fixed mix, so its share never varies.
            // With none finished (its cold jobs failed, which fails the
            // run anyway) it submits a cold job instead.
            let hit_of =
                (job % 3 == 2 && !log.done.is_empty()).then(|| seeds.below(log.done.len()));
            let spec = match hit_of {
                Some(i) => log.done[i].0.clone(),
                None => cold_spec(&mut seeds),
            };
            let id = (c as u64) << 32 | job;
            log.attempted += 1;
            let (result, secs) = timed(|| {
                tr.span("job", id, |tr| {
                    one_job(&client, &name, &spec, hit_of.is_some(), id, tr)
                })
            });
            let (bytes, wire) = match result {
                Ok(r) => r,
                Err(e) => {
                    log.failures.push(format!("{name} job {job}: {e}"));
                    continue;
                }
            };
            log.wire_bytes += wire;
            match hit_of {
                Some(i) => {
                    log.hit_ms.push(secs * 1e3);
                    if bytes != log.done[i].1 {
                        log.failures
                            .push(format!("{name} job {job}: cache hit bytes differ"));
                    }
                }
                None => {
                    log.cold_ms.push(secs * 1e3);
                    if bytes.contains("\"outcome\":\"partial\"")
                        || bytes.contains("\"outcome\":\"failed\"")
                    {
                        log.failures
                            .push(format!("{name} job {job}: a point did not complete"));
                    }
                    let cycles = result_cycles(&bytes);
                    let full = (spec.warmup + spec.measure) * spec.loads.len() as u64;
                    if cycles != full {
                        log.failures.push(format!(
                            "{name} job {job}: result reports {cycles} cycles, expected {full}"
                        ));
                    }
                    log.cold_secs += secs;
                    log.node_cycles += nodes(&spec) * cycles;
                    log.done.push((spec, bytes));
                }
            }
        }
    });
    log.tracer = Some(tr);
    log
}

impl ClientLog {
    fn completed(&self) -> usize {
        self.cold_ms.len() + self.hit_ms.len()
    }
}

/// Run the clients' closed loops of `jobs` submissions each against the
/// daemon at `addr`; `salt` separates the job streams of successive
/// loops.
fn closed_loop(
    tr: &mut Tracer,
    addr: &str,
    seed: u64,
    salt: &str,
    jobs: u64,
) -> (Vec<ClientLog>, f64) {
    let (on, epoch) = (tr.is_on(), tr.epoch());
    timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || client_loop(addr, c, seed, salt, jobs, Tracer::new(on, epoch)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    })
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn start_daemon(tr: &mut Tracer, state_dir: &Path, i: usize) -> Result<Daemon, String> {
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        job_threads: 1,
        state_dir: state_dir.to_path_buf(),
        default_budget: RunBudget {
            max_cycles: BUDGET_CYCLES,
            max_wall_ms: 0,
        },
        ..DaemonConfig::default()
    };
    let daemon = tr.span("daemon.start", i as u64, |_| Daemon::start(cfg))?;
    let client = ServiceClient::new(daemon.addr().to_string());
    tr.span("service.ping", i as u64, |_| client.ping())?;
    Ok(daemon)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let state_dir: PathBuf =
        ctx.out_dir
            .join(format!("service-{}-{}", std::process::id(), ctx.args.seed));
    let out = run_in(ctx, &state_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
    out
}

fn run_in(ctx: &mut Ctx, state_dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let tr = &mut ctx.tracer;
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        // A fresh state directory: an empty cache and journal.
        if state_dir.exists() {
            std::fs::remove_dir_all(state_dir)
                .map_err(|e| format!("clearing {}: {e}", state_dir.display()))?;
        }
        let (d, secs) = timed(|| tr.span("setup", i as u64, |tr| start_daemon(tr, state_dir, i)));
        daemon = Some(d?);
        setups.push(secs);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr().to_string();

    // The traced run splits its jobs between an untraced loop on fresh
    // seeds and the traced loop, so that the tracing overhead is
    // measured in-process.
    let mut jobs = ctx.args.seconds * JOBS_PER_SECOND;
    let mut logs = Vec::new();
    let mut plain_s = None;
    if tr.is_on() {
        jobs /= 2;
        let (plain, secs) = tr.span("loop", 0, |tr| {
            tr.muted(|tr| closed_loop(tr, &addr, ctx.args.seed, "plain", jobs))
        });
        plain_s = Some(plain.iter().map(|l| l.completed()).sum::<usize>() as f64 / secs);
        logs.extend(plain);
    }
    let (mut measured, loop_s) = tr.span("loop", 1, |tr| {
        closed_loop(tr, &addr, ctx.args.seed, "", jobs)
    });
    let stats = ServiceClient::new(addr.as_str()).stats()?;
    let ((), drain_s) = timed(|| tr.span("drain", 0, |_| daemon.drain_and_wait()));
    let journal_bytes = std::fs::metadata(state_dir.join("journal.jsonl")).map_or(0, |m| m.len());
    let checkpoint_bytes = dir_bytes(&state_dir.join("jobs"));
    tr.span("shutdown", 0, |_| Daemon::shutdown(daemon));

    let mut cold = Vec::new();
    let mut hits = Vec::new();
    let (mut node_cycles, mut cold_secs, mut wire) = (0u64, 0.0, 0u64);
    for log in &mut measured {
        cold.extend_from_slice(&log.cold_ms);
        hits.extend_from_slice(&log.hit_ms);
        node_cycles += log.node_cycles;
        cold_secs += log.cold_secs;
        wire += log.wire_bytes;
        if let Some(t) = log.tracer.take() {
            tr.absorb(t);
        }
    }
    logs.extend(measured);
    let (mut all_cold, mut all_hits) = (0, 0);
    for log in &mut logs {
        o.attempted += log.attempted;
        o.failures.append(&mut log.failures);
        all_cold += log.cold_ms.len();
        all_hits += log.hit_ms.len();
    }
    o.check(stats.rejected == 0, || {
        format!("daemon rejected {} submissions", stats.rejected)
    });
    o.check(stats.cache_hits == all_hits as u64, || {
        format!(
            "daemon counted {} cache hits, clients {all_hits}",
            stats.cache_hits
        )
    });
    o.check(cold.len() >= 100 && hits.len() >= 100, || {
        format!(
            "too few samples: {} cold jobs, {} hits (need 100 each)",
            cold.len(),
            hits.len()
        )
    });

    // Outside the loop: the daemon's bytes must equal an in-process run
    // of the same spec under the budget the daemon substituted.
    let mut run_job_ms = Vec::new();
    tr.span("check", 0, |tr| {
        for log in &logs {
            for (spec, bytes) in log.done.iter().take(RUN_JOB_CHECKS) {
                let spec = JobSpec {
                    budget_cycles: BUDGET_CYCLES,
                    ..spec.clone()
                };
                let (local, secs) =
                    timed(|| tr.span("service.run_job", 0, |_| run_job(&spec, None, 1)));
                run_job_ms.push(secs * 1e3);
                o.check(local.as_ref() == Ok(bytes), || {
                    format!(
                        "seed {}: daemon result differs from in-process run_job",
                        spec.seed
                    )
                });
            }
        }
    });

    let completed = (cold.len() + hits.len()) as f64;
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(f64::NAN);
    let (job50, job90, hit50, hit90) = (p(&cold, 0.5), p(&cold, 0.9), p(&hits, 0.5), p(&hits, 0.9));
    o.notes.push(format!(
        "samples: {} cold jobs, {} hits",
        cold.len(),
        hits.len()
    ));
    for (name, v) in [
        ("job_p50_ms", job50),
        ("job_p90_ms", job90),
        ("hit_p50_ms", hit50),
        ("hit_p90_ms", hit90),
    ] {
        o.latency.insert(name, v);
    }
    if !tr.is_on() {
        o.set("setup_s", median(&setups));
        // The engine rate a client sees: hits simulate nothing, so
        // only cold jobs count, over their own submit-to-result time.
        o.set("node_cycles_per_s", node_cycles as f64 / cold_secs);
        o.set("jobs_per_s", completed / loop_s);
        return Ok(o);
    }

    let spans = tr.spans();
    let med = |name: &str| {
        let d = durations(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * 1e3
        }
    };
    let run_job_med = median(&run_job_ms);
    o.set("service.submit_ms", med("service.submit"));
    o.set("service.result_ms", med("service.result"));
    o.set("service.wait_ms", med("service.wait"));
    o.set("service.run_job_ms", run_job_med);
    o.set("service.poll_overhead_ms", job50 - run_job_med);
    o.set("service.cache_hit_ratio", hits.len() as f64 / completed);
    o.set("service.wire_bytes", wire as f64 / completed);
    o.set("service.job_p50_ms", job50);
    o.set("service.job_p90_ms", job90);
    o.set("service.hit_p50_ms", hit50);
    o.set("service.hit_p90_ms", hit90);
    o.set("daemon.start_s", med("daemon.start") / 1e3);
    o.set("daemon.rejected", stats.rejected as f64);
    // The journal and checkpoints hold both loops' jobs.
    let per_cold = |bytes: u64| bytes as f64 / all_cold.max(1) as f64;
    o.set("daemon.journal_bytes", per_cold(journal_bytes));
    o.set("daemon.checkpoint_bytes", per_cold(checkpoint_bytes));
    o.set("daemon.drain_s", drain_s);
    if let Some(plain) = plain_s {
        o.set("trace.overhead_ratio", plain / (completed / loop_s) - 1.0);
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_cycles_sums_every_point_and_skips_other_keys() {
        let result = r#"{"v":1,"points":[{"report":{"cycles":1200,"measured_cycles":900}},{"report":{"cycles":1200,"measured_cycles":900}}]}"#;
        assert_eq!(result_cycles(result), 2400);
        assert_eq!(result_cycles(r#"{"points":[]}"#), 0);
    }
}
