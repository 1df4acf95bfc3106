//! The timing loop shared by the three batch workloads: interleaved
//! passes over the units with the set-ups spread between them, each unit
//! timed by its fastest repetition.

use crate::stats::BestOf;
use crate::trace::Tracer;
use crate::Outcome;
use std::time::Instant;

/// Best-of-K timings of every unit, plus the operation tally.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per unit, the untraced repetitions.
    pub plain: Vec<BestOf>,
    /// Per unit, the traced repetitions (traced run only).
    pub traced: Vec<BestOf>,
    /// Unit calls made.
    pub attempted: u64,
    /// Why each failed call failed.
    pub failures: Vec<String>,
}

impl Timed {
    /// Σ best plain time over the units, or `None` if a unit has none.
    pub fn plain_secs(&self) -> Option<f64> {
        self.plain.iter().map(BestOf::best).sum()
    }

    /// `traced ÷ plain − 1` over the units' best times: the tracing
    /// overhead, measured on the same work in the same window.
    pub fn overhead_ratio(&self) -> Option<f64> {
        let traced: f64 = self.traced.iter().map(BestOf::best).sum::<Option<f64>>()?;
        Some(traced / self.plain_secs()? - 1.0)
    }
}

/// Time `f` on the host clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A finished batch: the last set-up's state, the fastest set-up, and
/// the unit timings.
pub struct Batch<S> {
    /// The state the last set-up built.
    pub state: S,
    /// Wall time of the fastest set-up.
    pub setup_s: f64,
    /// Wall time of every set-up, in order.
    pub setups: Vec<f64>,
    /// Unit timings.
    pub timed: Timed,
}

impl<S> Batch<S> {
    /// Count the timed calls and their failures into `o`. Untraced, set
    /// the end-to-end metrics for `node_cycles` of work per pass (left
    /// unset, so the run fails, if a unit never completed); traced, the
    /// tracing overhead.
    pub fn report(&self, o: &mut Outcome, node_cycles: u64, tracing: bool) {
        o.attempted += self.timed.attempted;
        o.failures.extend(self.timed.failures.iter().cloned());
        if tracing {
            if let Some(r) = self.timed.overhead_ratio() {
                o.set("trace.overhead_ratio", r);
            }
        } else if let Some(secs) = self.timed.plain_secs() {
            o.set("setup_s", self.setup_s);
            o.set("node_cycles_per_s", node_cycles as f64 / secs);
            o.set("jobs_per_s", self.timed.plain.len() as f64 / secs);
        }
    }
}

/// Run passes over `units` units for `seconds` (at least two passes);
/// a pass calls `run(tracer, state, u)` once per unit in order, so every
/// unit's repetitions spread over the whole window. `run` returns the
/// unit's report digest and the host time of its measured call (checks
/// and traced-only extras excluded). The window bounds the run's wall
/// time however fast the host is; the work of each unit is fixed.
///
/// Up to `setups` set-ups are spread evenly over the window, each
/// dropping the previous state before building its own, so that set-up
/// samples, like unit samples, span the window and the footprint is one
/// state's.
///
/// With tracing on, even passes are traced and odd passes muted (one
/// top-level span each), so traced and untraced repetitions of the same
/// work alternate.
pub fn run_batch<S>(
    tr: &mut Tracer,
    setups: usize,
    seconds: u64,
    units: usize,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    mut run: impl FnMut(&mut Tracer, &S, usize) -> Result<(u64, f64), String>,
) -> Result<Batch<S>, String> {
    let tracing = tr.is_on();
    let mut out = Timed {
        plain: vec![BestOf::default(); units],
        traced: vec![BestOf::default(); if tracing { units } else { 0 }],
        ..Timed::default()
    };
    let mut state = None;
    let mut times = Vec::new();
    let window = seconds as f64;
    let start = Instant::now();
    for pass in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if pass >= 2 && elapsed >= window {
            break;
        }
        let due = ((elapsed / window * setups as f64) as usize)
            .saturating_add(1)
            .min(setups);
        if state.is_none() || times.len() < due {
            drop(state.take());
            let i = times.len() as u64;
            let (s, secs) = timed(|| tr.span("setup", i, &mut setup));
            state = Some(s?);
            times.push(secs);
        }
        let st = state.as_ref().expect("set up before the first pass");
        let traced = tracing && pass % 2 == 0;
        tr.span("pass", pass as u64, |tr| {
            for u in 0..units {
                let result = if traced {
                    tr.span("unit", u as u64, |tr| run(tr, st, u))
                } else {
                    tr.muted(|tr| run(tr, st, u))
                };
                out.attempted += 1;
                match result {
                    Ok((digest, secs)) => {
                        let slot = if traced {
                            &mut out.traced[u]
                        } else {
                            &mut out.plain[u]
                        };
                        if !slot.record(secs, digest) {
                            out.failures
                                .push(format!("unit {u} pass {pass}: report digest changed"));
                        }
                    }
                    Err(e) => out.failures.push(format!("unit {u} pass {pass}: {e}")),
                }
            }
        });
    }
    if tracing {
        for (u, (p, t)) in out.plain.iter().zip(&out.traced).enumerate() {
            if p.digest().is_some() && t.digest().is_some() && p.digest() != t.digest() {
                out.attempted += 1;
                out.failures
                    .push(format!("unit {u}: traced and untraced digests differ"));
            }
        }
    }
    Ok(Batch {
        state: state.expect("at least one pass"),
        setup_s: times.iter().copied().fold(f64::INFINITY, f64::min),
        setups: times,
        timed: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two units over exactly two passes (a zero-second window): unit 1
    /// changes its digest on the second pass.
    fn two_passes(trace: bool) -> Batch<u32> {
        let mut tr = Tracer::new(trace, Instant::now());
        let mut calls = 0;
        run_batch(
            &mut tr,
            4,
            0,
            2,
            |_| Ok(7),
            |_, state, u| {
                assert_eq!(*state, 7);
                calls += 1;
                let second = calls > 2;
                let digest = if u == 1 && second { 2 } else { 1 };
                let secs = [[0.5, 0.4], [0.3, 0.1]][usize::from(second)][u];
                Ok((digest, secs))
            },
        )
        .unwrap()
    }

    #[test]
    fn a_changed_digest_fails_and_its_time_is_rejected() {
        let b = two_passes(false);
        assert_eq!(b.timed.attempted, 4);
        assert_eq!(b.timed.failures.len(), 1);
        assert_eq!(b.timed.plain[0].best(), Some(0.3));
        // The faster repetition did different work.
        assert_eq!(b.timed.plain[1].best(), Some(0.4));
        assert_eq!(b.timed.plain_secs(), Some(0.7));
        // A zero window is over at once: a set-up is due before each pass.
        assert_eq!(b.setups.len(), 2);
    }

    #[test]
    fn traced_runs_alternate_traced_and_untraced_passes() {
        let b = two_passes(true);
        assert_eq!(b.timed.traced[0].best(), Some(0.5));
        assert_eq!(b.timed.plain[0].best(), Some(0.3));
        // Unit 1's change lands in another pass kind: caught by the
        // traced-vs-untraced digest check.
        assert_eq!(b.timed.failures.len(), 1);
        assert_eq!(b.timed.attempted, 5);
        let ratio = b.timed.overhead_ratio().unwrap();
        assert!((ratio - (0.9 / 0.4 - 1.0)).abs() < 1e-12);
    }
}
