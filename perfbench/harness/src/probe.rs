//! Timing wrappers around the program's public layer interfaces.
//!
//! Nothing here changes what the program computes: the optimizer wrapper
//! forwards every call to `BayesOpt`, the app wrapper forwards every
//! `App::serve`, and the backend wrapper forwards every batch to the
//! `datamime_dist::Broker`. They only read clocks and public counters
//! around those calls.

use crate::trace::{tracer, Span};
use datamime::arena::EvalArena;
use datamime::profile::Profile;
use datamime::profiler::{profile_app_cancellable_in, ProfilingConfig};
use datamime::workload::Workload;
use datamime_apps::App;
use datamime_bayesopt::{BlackBoxOptimizer, BoConfig};
use datamime_dist::Broker;
use datamime_runtime::{Backend, CancelToken, Evaluated, FailedAttempt};
use datamime_sim::{Machine, MachineConfig};
use datamime_stats::Rng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// `BayesOpt` behind the public [`BlackBoxOptimizer`] trait, with every
/// call timed. Whether a `suggest` refits the GP hyperparameters is
/// decided from outside, by mirroring the documented rule over the
/// public `BoConfig` fields: the initial design never fits; the first
/// model-based suggestion fits; afterwards a fit is due once
/// `refit_every` observations plus pending constant-liar points have
/// accumulated since the last one.
pub struct TimedOptimizer<'a> {
    inner: Box<dyn BlackBoxOptimizer + 'a>,
    design_left: usize,
    refit_every: usize,
    fitted: bool,
    since_fit: usize,
    pending: usize,
}

impl<'a> TimedOptimizer<'a> {
    pub fn new(inner: Box<dyn BlackBoxOptimizer + 'a>, cfg: &BoConfig) -> Self {
        TimedOptimizer {
            inner,
            design_left: cfg.init_points,
            refit_every: cfg.refit_every,
            fitted: false,
            since_fit: 0,
            pending: 0,
        }
    }

    /// Advances the mirrored model by one internal suggestion; true when
    /// that suggestion refits.
    fn next_refits(&mut self) -> bool {
        if self.design_left > 0 {
            self.design_left -= 1;
            return false;
        }
        let refit = !self.fitted || self.since_fit + self.pending >= self.refit_every;
        if refit {
            self.fitted = true;
            self.since_fit = 0;
        }
        refit
    }
}

impl BlackBoxOptimizer for TimedOptimizer<'_> {
    fn suggest(&mut self) -> Vec<f64> {
        let refit = self.next_refits();
        let inner = &mut self.inner;
        tracer().span_args("bayesopt.suggest", |_| {
            (
                inner.suggest(),
                vec![("refit", f64::from(u8::from(refit))), ("k", 1.0)],
            )
        })
    }

    fn suggest_batch(&mut self, k: usize) -> Vec<Vec<f64>> {
        let mut refit = false;
        for _ in 0..k {
            refit |= self.next_refits();
            self.pending += 1;
        }
        let inner = &mut self.inner;
        tracer().span_args("bayesopt.suggest", |_| {
            (
                inner.suggest_batch(k),
                vec![("refit", f64::from(u8::from(refit))), ("k", k as f64)],
            )
        })
    }

    fn observe(&mut self, x: Vec<f64>, y: f64) {
        self.since_fit += 1;
        self.pending = self.pending.saturating_sub(1);
        let inner = &mut self.inner;
        tracer().span("bayesopt.observe", || inner.observe(x, y));
    }

    fn best(&self) -> Option<(&[f64], f64)> {
        self.inner.best()
    }

    fn history(&self) -> &[(Vec<f64>, f64)] {
        self.inner.history()
    }
}

/// One stretch of a profile run between two `build` calls.
struct Phase {
    id: u32,
    name: &'static str,
    start_ns: u64,
    serve_ns: u64,
    requests: u64,
    instructions: u64,
    busy_cycles: u64,
    llc_misses: u64,
}

/// Per-profile-call state shared by the timed `build` closure and the
/// apps it builds: the open phase, if any.
struct Probe {
    parent: u32,
    builds: Cell<u32>,
    phase: RefCell<Option<Phase>>,
}

impl Probe {
    /// Closes the open phase at `now` and records its span.
    fn close_phase(&self, now: u64) {
        if let Some(p) = self.phase.borrow_mut().take() {
            tracer().record(Span {
                id: p.id,
                parent: self.parent,
                name: p.name,
                start_ns: p.start_ns,
                end_ns: now,
                lane: 0,
                run: 0,
                args: vec![
                    ("serve_ns", p.serve_ns as f64),
                    ("requests", p.requests as f64),
                    ("instructions", p.instructions as f64),
                    ("busy_cycles", p.busy_cycles as f64),
                    ("llc_misses", p.llc_misses as f64),
                ],
            });
        }
    }
}

/// Forwards every call to the wrapped app; times `serve` and reads the
/// machine's public counters before and after it.
struct TimedApp {
    inner: Box<dyn App>,
    probe: Rc<Probe>,
}

impl App for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        let before = *machine.counters();
        let t0 = tracer().now();
        self.inner.serve(machine, rng);
        let t1 = tracer().now();
        let after = machine.counters();
        if let Some(p) = self.probe.phase.borrow_mut().as_mut() {
            p.serve_ns += t1 - t0;
            p.requests += 1;
            p.instructions += after.instructions - before.instructions;
            p.busy_cycles += after.busy_cycles - before.busy_cycles;
            p.llc_misses += after.llc_misses - before.llc_misses;
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn memory_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.memory_snapshot()
    }
}

/// Profiles `workload` through the public `profile_app_cancellable_in`
/// inside a span named `name`. The `build` closure is timed (one
/// `apps.build` span per call) and each build opens a phase span: the
/// first is `profiler.main`, later ones `profiler.curve` (one per point
/// with Restart curves, one for the whole sweep with Dynaway). Every app
/// it builds is wrapped, so `App::serve` host time and simulator counter
/// deltas are folded into the open phase.
pub fn traced_profile(
    name: &'static str,
    workload: &Workload,
    machine: &MachineConfig,
    cfg: &ProfilingConfig,
    cancel: &CancelToken,
    arena: &mut EvalArena,
) -> Profile {
    let t = tracer();
    t.span_args(name, |id| {
        let probe = Rc::new(Probe {
            parent: id,
            builds: Cell::new(0),
            phase: RefCell::new(None),
        });
        let build = || -> Box<dyn App> {
            let now = t.now();
            let first = probe.builds.get() == 0;
            probe.builds.set(probe.builds.get() + 1);
            probe.close_phase(now);
            let phase_id = t.alloc_id();
            *probe.phase.borrow_mut() = Some(Phase {
                id: phase_id,
                name: if first {
                    "profiler.main"
                } else {
                    "profiler.curve"
                },
                start_ns: now,
                serve_ns: 0,
                requests: 0,
                instructions: 0,
                busy_cycles: 0,
                llc_misses: 0,
            });
            let t0 = t.now();
            let app = workload.app.build();
            t.record(Span {
                id: t.alloc_id(),
                parent: phase_id,
                name: "apps.build",
                start_ns: t0,
                end_ns: t.now(),
                lane: 0,
                run: 0,
                args: Vec::new(),
            });
            Box::new(TimedApp {
                inner: app,
                probe: Rc::clone(&probe),
            })
        };
        let profile =
            profile_app_cancellable_in(&build, workload.load, machine, cfg, cancel, arena);
        probe.close_phase(t.now());
        let points = profile.curve().len() as f64;
        (profile, vec![("curve_points", points)])
    })
}

/// The `datamime_dist::Broker` behind the public executor [`Backend`]
/// trait, with each batch round trip timed. The span records the slowest
/// job's worker-reported stage time, so the broker's own share of the
/// round trip (framing, IPC, dispatch, commit) is the difference.
pub struct TimedBackend {
    pub broker: Broker,
}

impl Backend for TimedBackend {
    fn evaluate_batch(
        &mut self,
        jobs: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String> {
        let broker = &mut self.broker;
        tracer().span_args("dist.batch", |_| {
            let out = broker.evaluate_batch(jobs, on_attempt);
            let slowest_ms = out.as_ref().map_or(0.0, |verdicts| {
                verdicts
                    .iter()
                    .map(|v| {
                        let stages = v.stages.entries().iter();
                        stages.map(|(_, d)| d.as_secs_f64() * 1e3).sum::<f64>()
                    })
                    .fold(0.0, f64::max)
            });
            let args = vec![
                ("jobs", jobs.len() as f64),
                ("slowest_stage_ms", slowest_ms),
            ];
            (out, args)
        })
    }
}
