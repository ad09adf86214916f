//! One clone, run two ways.
//!
//! [`program_clone`] calls the program's own entry points
//! (`profile_workload` then `search_with_runtime`) and is what the
//! untraced run times. [`traced_clone`] rebuilds the same search from the
//! program's public pieces — `BayesOpt` behind `BlackBoxOptimizer`, the
//! runtime `Executor` with supervision, keyed memo, journal and resume,
//! the thread path (`run`) or the process path (`run_backend` over a
//! `datamime_dist::Broker`) — with a span around each call into a layer.
//! Its observation history must be bit-identical to the program's, which
//! the workloads check on every traced run.

use crate::probe::{traced_profile, TimedBackend, TimedOptimizer};
use crate::trace::tracer;
use datamime::arena::EvalArena;
use datamime::distproc::{dist_context, EvalSpec};
use datamime::error_model::profile_error;
use datamime::generator::DatasetGenerator;
use datamime::profile::Profile;
use datamime::profiler::profile_workload;
use datamime::search::{
    search_with_runtime, BackendChoice, ProcOptions, RuntimeOptions, SearchConfig,
};
use datamime::workload::Workload;
use datamime_bayesopt::{BayesOpt, BoConfig, PENALTY_OBJECTIVE};
use datamime_dist::{Broker, BrokerConfig};
use datamime_runtime::{
    canonical_bits, fingerprint, replay, CancelToken, Executor, JournalWriter, MetricsRegistry,
    RunMeta, RunOutcome, StageTimes, SupervisorConfig,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where evaluations run.
#[derive(Clone)]
pub enum Via {
    /// In-process worker threads.
    Thread,
    /// `datamime-worker` processes under a broker; the target profile is
    /// staged in `stage_dir` for them.
    Proc {
        worker_bin: PathBuf,
        stage_dir: PathBuf,
    },
}

/// One clone's inputs.
pub struct CloneSpec<'a> {
    pub generator: &'a (dyn DatasetGenerator + Sync),
    pub target: &'a Workload,
    pub cfg: &'a SearchConfig,
    pub batch: usize,
    pub max_retries: u32,
    pub journal: Option<PathBuf>,
    pub resume: Option<PathBuf>,
    pub via: Via,
}

/// What a clone returned.
#[derive(Debug, Clone)]
pub struct CloneResult {
    pub best_error: f64,
    /// `(unit point, error)` per observation, in order.
    pub history: Vec<(Vec<f64>, f64)>,
    pub cache_hits: usize,
    pub replayed: usize,
    /// Host seconds from the first call into the program to the outcome.
    pub secs: f64,
}

impl CloneResult {
    /// Whether two runs observed the same points with the same errors,
    /// bit for bit.
    pub fn same_history(&self, other: &CloneResult) -> bool {
        self.best_error.to_bits() == other.best_error.to_bits()
            && self.history.len() == other.history.len()
            && self.history.iter().zip(&other.history).all(|(a, b)| {
                a.1.to_bits() == b.1.to_bits()
                    && a.0.len() == b.0.len()
                    && a.0
                        .iter()
                        .zip(&b.0)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }
}

/// The program's clone: target profile, then `search_with_runtime`.
pub fn program_clone(spec: &CloneSpec) -> Result<CloneResult, String> {
    let cfg = spec.cfg;
    let t0 = Instant::now();
    let target_profile = profile_workload(spec.target, &cfg.machine, &cfg.profiling);
    let opts = RuntimeOptions {
        batch_k: spec.batch,
        workers: spec.batch,
        backend: match &spec.via {
            Via::Thread => BackendChoice::Thread,
            Via::Proc { worker_bin, .. } => BackendChoice::Process(ProcOptions {
                workers: spec.batch,
                worker_bin: Some(worker_bin.clone()),
            }),
        },
        journal: spec.journal.clone(),
        resume: spec.resume.clone(),
        max_retries: spec.max_retries,
        ..RuntimeOptions::default()
    };
    let out = search_with_runtime(spec.generator, &target_profile, cfg, &opts)
        .map_err(|e| format!("search failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(CloneResult {
        best_error: out.best_error,
        history: out
            .history
            .into_iter()
            .map(|r| (r.unit_params, r.error))
            .collect(),
        cache_hits: out.stats.cache_hits,
        replayed: out.stats.replayed,
        secs,
    })
}

/// FNV-1a, as the program folds `Debug` text into fingerprints.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The thread path's memo context: seed, machine, profiling and weights.
fn memo_context(cfg: &SearchConfig) -> u64 {
    fingerprint(&[
        cfg.seed,
        fnv(&format!("{:?}", cfg.machine)),
        fnv(&format!("{:?}", cfg.profiling)),
        fnv(&format!("{:?}", cfg.weights)),
    ])
}

fn denormalized(generator: &dyn DatasetGenerator, unit: &[f64]) -> Vec<f64> {
    let specs = generator.param_specs();
    specs
        .iter()
        .zip(unit)
        .map(|(s, &u)| s.denormalize(u))
        .collect()
}

/// An evaluation's error, memo-key bits, dataset and profile.
type Tracked = (f64, Vec<u64>, Workload, Profile);

/// The lowest-error in-process evaluation, kept so the outcome needs no
/// re-profile (the program keeps the same).
#[derive(Default)]
struct Tracker(Mutex<Option<Tracked>>);

impl Tracker {
    fn offer(&self, error: f64, key: Vec<u64>, workload: &Workload, profile: &Profile) {
        if !error.is_finite() {
            return;
        }
        let mut slot = self.0.lock().expect("tracker lock poisoned");
        if slot.as_ref().is_none_or(|b| error < b.0) {
            *slot = Some((error, key, workload.clone(), profile.clone()));
        }
    }
}

/// One evaluation: instantiate → profile → score, each in its own span.
fn traced_eval(
    spec: &CloneSpec,
    target_profile: &Profile,
    tracker: &Tracker,
    unit: &[f64],
    stages: &mut StageTimes,
    cancel: &CancelToken,
) -> f64 {
    let t = tracer();
    let cfg = spec.cfg;
    t.span("eval", || {
        let workload = t.span("generator.instantiate", || {
            stages.time("instantiate", || spec.generator.instantiate(unit))
        });
        let profile = stages.time("profile", || {
            EvalArena::with_thread_local(|arena| {
                traced_profile(
                    "profiler.eval",
                    &workload,
                    &cfg.machine,
                    &cfg.profiling,
                    cancel,
                    arena,
                )
            })
        });
        let error = t.span("error_model.score", || {
            stages.time("error", || {
                profile_error(target_profile, &profile, &cfg.weights).total
            })
        });
        if !cancel.is_cancelled() {
            let key = canonical_bits(&denormalized(spec.generator, unit));
            tracker.offer(error, key, &workload, &profile);
        }
        error
    })
}

/// Packages the outcome; re-profiles the best point when it was not
/// evaluated in this process (proc backend, or replayed from a journal).
fn finish(spec: &CloneSpec, run: RunOutcome, tracker: Tracker) -> CloneResult {
    let cfg = spec.cfg;
    let best_key = canonical_bits(&denormalized(spec.generator, &run.best_unit));
    let tracked = tracker.0.into_inner().expect("tracker lock poisoned");
    let reuse = tracked.filter(|b| b.0.to_bits() == run.best_error.to_bits() && b.1 == best_key);
    if reuse.is_none() {
        let workload = spec.generator.instantiate(&run.best_unit);
        traced_profile(
            "profiler.reprofile",
            &workload,
            &cfg.machine,
            &cfg.profiling,
            &CancelToken::new(),
            &mut EvalArena::new(),
        );
    }
    CloneResult {
        best_error: run.best_error,

        history: run.history.into_iter().map(|r| (r.unit, r.error)).collect(),
        cache_hits: run.telemetry.cache_hits(),
        replayed: run.replayed,
        secs: 0.0,
    }
}

/// Counters the traced clone reads from the program besides its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedExtras {
    /// The root `clone` span.
    pub root: u32,
    pub worker_restarts: u64,
}

/// The same clone as [`program_clone`], driven from outside through the
/// program's public layer interfaces, inside a root span named `clone`.
pub fn traced_clone(spec: &CloneSpec) -> Result<(CloneResult, TracedExtras), String> {
    let t = tracer();
    let cfg = spec.cfg;
    let t0 = Instant::now();
    let mut extras = TracedExtras::default();
    let result = t.span_args("clone", |root| {
        extras.root = root;
        let out = (|| -> Result<CloneResult, String> {
            let target_profile = traced_profile(
                "profiler.target",
                spec.target,
                &cfg.machine,
                &cfg.profiling,
                &CancelToken::new(),
                &mut EvalArena::new(),
            );
            let dims = spec.generator.dims();
            let bo = BoConfig::for_dims(dims);
            let mut optimizer =
                TimedOptimizer::new(Box::new(BayesOpt::new(bo.clone(), cfg.seed)), &bo);
            let meta = RunMeta {
                label: spec.generator.name().to_string(),
                seed: cfg.seed,
                dims,
                iterations: cfg.iterations,
                batch_k: spec.batch,
                workers: spec.batch,
                optimizer: "bayesian".to_string(),
            };
            let ctx = match &spec.via {
                Via::Thread => memo_context(cfg),
                Via::Proc { .. } => dist_context(spec.generator, cfg, &target_profile),
            };
            let specs = spec.generator.param_specs().to_vec();
            let mut exec = Executor::new(meta)
                .supervise(SupervisorConfig {
                    max_retries: spec.max_retries,
                    ..SupervisorConfig::default()
                })
                .quota(None, None)
                .memoize_keyed(
                    ctx,
                    Box::new(move |unit| {
                        specs
                            .iter()
                            .zip(unit)
                            .map(|(s, &u)| s.denormalize(u))
                            .collect()
                    }),
                );
            if let Some(path) = &spec.resume {
                exec = t.span("runtime.replay", || -> Result<Executor, String> {
                    let replayed =
                        replay(path).map_err(|e| format!("cannot replay {path:?}: {e}"))?;
                    exec.resume(replayed).map_err(|e| e.to_string())
                })?;
            }
            if let Some(path) = &spec.journal {
                let writer = JournalWriter::create(path, exec.meta())
                    .map_err(|e| format!("cannot create journal {path:?}: {e}"))?;
                exec = exec.journal(writer, false);
            }
            let tracker = Tracker::default();
            match &spec.via {
                Via::Thread => {
                    let run = t
                        .span("runtime.executor", || {
                            exec.run(&mut optimizer, &|unit, stages, cancel| {
                                traced_eval(spec, &target_profile, &tracker, unit, stages, cancel)
                            })
                        })
                        .map_err(|e| e.to_string())?;
                    Ok(t.span("runtime.finish", || finish(spec, run, tracker)))
                }
                Via::Proc {
                    worker_bin,
                    stage_dir,
                } => {
                    std::fs::create_dir_all(stage_dir)
                        .map_err(|e| format!("cannot create {stage_dir:?}: {e}"))?;
                    let target_path = stage_dir.join("target.tsv");
                    std::fs::write(&target_path, target_profile.to_tsv())
                        .map_err(|e| format!("cannot stage the target profile: {e}"))?;
                    let eval_spec = EvalSpec::from_search(spec.generator, cfg, target_path)?;
                    let metrics = Arc::new(MetricsRegistry::new());
                    let mut bcfg = BrokerConfig::new(worker_bin.clone(), spec.batch);
                    bcfg.worker_args = eval_spec.to_argv();
                    bcfg.ctx_fingerprint = ctx;
                    bcfg.seed = cfg.seed;
                    bcfg.deadline = None;
                    bcfg.max_retries = spec.max_retries;
                    bcfg.penalty = PENALTY_OBJECTIVE;
                    bcfg.metrics = Some(Arc::clone(&metrics));
                    let broker = t.span("dist.spawn", || Broker::start(bcfg))?;
                    let mut backend = TimedBackend { broker };
                    let run = t
                        .span("runtime.executor", || {
                            exec.run_backend(&mut optimizer, &mut backend)
                        })
                        .map_err(|e| e.to_string())?;
                    let out = t.span("runtime.finish", || finish(spec, run, tracker));
                    t.span("dist.shutdown", || drop(backend));
                    extras.worker_restarts = metrics.get("worker_restarts");
                    Ok(out)
                }
            }
        })();
        (out, Vec::new())
    });
    let mut result = result?;
    result.secs = t0.elapsed().as_secs_f64();
    Ok((result, extras))
}
