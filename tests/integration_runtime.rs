//! Integration of the full Datamime search with the `datamime-runtime`
//! executor: batch-one equivalence with the plain sequential loop, and
//! crash-safe journal resume on a real generator + simulated profiler.

use datamime::error_model::profile_error;
use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::profile::Profile;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;
use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig};
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "datamime-integration-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

fn fast_config(iterations: usize) -> SearchConfig {
    let mut cfg = SearchConfig::fast(iterations);
    cfg.profiling = cfg.profiling.without_curves();
    cfg
}

/// The plain sequential Datamime loop (suggest, instantiate, profile,
/// score, observe) written against the public API, with no executor,
/// memo or journal: the reference the batch-one runtime must reproduce.
fn legacy_search(
    generator: &dyn DatasetGenerator,
    target: &Profile,
    cfg: &SearchConfig,
) -> Vec<(Vec<f64>, f64)> {
    let mut bo = BayesOpt::new(BoConfig::for_dims(generator.dims()), cfg.seed);
    (0..cfg.iterations)
        .map(|_| {
            let unit = bo.suggest();
            let w = generator.instantiate(&unit);
            let p = profile_workload(&w, &cfg.machine, &cfg.profiling);
            let error = profile_error(target, &p, &cfg.weights).total;
            bo.observe(unit.clone(), error);
            (unit, error)
        })
        .collect()
}

#[test]
fn runtime_batch_one_is_bit_for_bit_the_legacy_search() {
    let cfg = fast_config(8);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let legacy = legacy_search(&KvGenerator::new(), &target, &cfg);
    let runtime = search_with_runtime(
        &KvGenerator::new(),
        &target,
        &cfg,
        &RuntimeOptions::sequential(),
    )
    .unwrap();
    let (best_unit, best_error) = legacy
        .iter()
        .fold(None::<&(Vec<f64>, f64)>, |best, p| match best {
            Some(b) if b.1 <= p.1 => Some(b),
            _ => Some(p),
        })
        .unwrap();
    assert_eq!(best_unit, &runtime.best_unit_params);
    assert_eq!(best_error.to_bits(), runtime.best_error.to_bits());
    assert_eq!(legacy.len(), runtime.history.len());
    for ((unit, error), b) in legacy.iter().zip(&runtime.history) {
        assert_eq!(unit, &b.unit_params);
        assert_eq!(error.to_bits(), b.error.to_bits());
    }
}

#[test]
fn journaled_search_resumes_to_the_same_best() {
    let cfg = fast_config(10);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);

    // Reference: one uninterrupted run.
    let reference = search_with_runtime(
        &KvGenerator::new(),
        &target,
        &cfg,
        &RuntimeOptions::sequential(),
    )
    .unwrap();

    // Journaled run, then simulate a crash by dropping everything after
    // the header and the first 6 eval events.
    let path = tmp("clone.jsonl");
    let journaled = RuntimeOptions {
        journal: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    search_with_runtime(&KvGenerator::new(), &target, &cfg, &journaled).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"header\"") || l.contains("\"eval\""))
        .take(1 + 6)
        .collect();
    fs::write(&path, kept.join("\n") + "\n").unwrap();

    // Resume in place (journal defaults to the resume path in the CLI;
    // here we pass both explicitly) and land on the reference outcome.
    let resumed_opts = RuntimeOptions {
        journal: Some(path.clone()),
        resume: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    let resumed = search_with_runtime(&KvGenerator::new(), &target, &cfg, &resumed_opts).unwrap();
    assert_eq!(resumed.history.len(), 10);
    assert_eq!(resumed.best_unit_params, reference.best_unit_params);
    assert_eq!(
        resumed.best_error.to_bits(),
        reference.best_error.to_bits(),
        "resumed search must reach the reference best error"
    );

    // The journal now holds the complete run.
    let full = datamime_runtime::replay(&path).unwrap();
    assert!(full.complete);
    assert_eq!(full.evals.len(), 10);
    let _ = fs::remove_file(&path);
}
