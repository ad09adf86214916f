//! Integration tests of the Datamime search against real workloads.

use datamime::error_model::MetricWeights;
use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::metrics::DistMetric;
use datamime::profile::Profile;
use datamime::profiler::profile_workload;
use datamime::search::{
    search_with_runtime, OptimizerKind, RuntimeOptions, SearchConfig, SearchOutcome,
};
use datamime::workload::{AppConfig, Workload};

/// The sequential search (`batch_k = 1`); no option that can fail is set.
fn sequential(
    generator: &(dyn DatasetGenerator + Sync),
    target: &Profile,
    cfg: &SearchConfig,
) -> SearchOutcome {
    search_with_runtime(generator, target, cfg, &RuntimeOptions::sequential()).unwrap()
}

fn small_target() -> Workload {
    let mut w = Workload::mem_fb();
    if let AppConfig::Kv(c) = &mut w.app {
        c.n_keys = 15_000;
        // Keep the target inside the generator's reach (the generator
        // models single-key requests) so discrimination is measurable.
        c.multiget_fraction = 0.0;
    }
    w
}

#[test]
fn search_beats_the_median_random_point() {
    let mut cfg = SearchConfig::fast(16);
    cfg.profiling = cfg.profiling.without_curves();
    let target = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
    let outcome = sequential(&KvGenerator::new(), &target, &cfg);

    // The best point must improve substantially over the typical evaluated
    // point (i.e. the search actually discriminates).
    let mut errors: Vec<f64> = outcome.history.iter().map(|r| r.error).collect();
    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = errors[errors.len() / 2];
    assert!(
        outcome.best_error < median * 0.8,
        "best {} vs median {median}",
        outcome.best_error
    );
}

#[test]
fn running_min_is_monotone_and_ends_at_best() {
    let mut cfg = SearchConfig::fast(10);
    cfg.profiling = cfg.profiling.without_curves();
    let target = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
    let outcome = sequential(&KvGenerator::new(), &target, &cfg);
    let mins = outcome.running_min();
    for w in mins.windows(2) {
        assert!(w[1] <= w[0]);
    }
    assert_eq!(*mins.last().unwrap(), outcome.best_error);
}

#[test]
fn weighting_ipc_tightens_the_ipc_match() {
    // Sec. V-C: re-running the search with higher IPC weight gives a
    // closer IPC at the possible expense of other metrics.
    let mut base = SearchConfig::fast(14);
    base.profiling = base.profiling.without_curves();
    let target = profile_workload(&small_target(), &base.machine, &base.profiling);
    let t_ipc = target.mean(DistMetric::Ipc);

    let mut weighted = base.clone();
    weighted.weights = MetricWeights::equal().with_dist_weight(DistMetric::Ipc, 8.0);

    let plain = sequential(&KvGenerator::new(), &target, &base);
    let ipc_focused = sequential(&KvGenerator::new(), &target, &weighted);
    let err = |o: &SearchOutcome| (o.best_profile.mean(DistMetric::Ipc) - t_ipc).abs() / t_ipc;
    // The IPC-weighted search must achieve a competitive-or-better IPC.
    assert!(
        err(&ipc_focused) <= err(&plain) + 0.05,
        "weighted {} vs plain {}",
        err(&ipc_focused),
        err(&plain)
    );
}

#[test]
fn bayesian_matches_or_beats_random_at_equal_budget() {
    let mut cfg = SearchConfig::fast(14);
    cfg.profiling = cfg.profiling.without_curves();
    let target = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);

    let bo = sequential(&KvGenerator::new(), &target, &cfg);
    let mut rnd_cfg = cfg.clone();
    rnd_cfg.optimizer = OptimizerKind::Random;
    let rnd = sequential(&KvGenerator::new(), &target, &rnd_cfg);
    assert!(
        bo.best_error <= rnd.best_error * 1.25,
        "BO {} should not lose badly to random {}",
        bo.best_error,
        rnd.best_error
    );
}

#[test]
fn best_workload_parameters_are_in_range() {
    let mut cfg = SearchConfig::fast(8);
    cfg.profiling = cfg.profiling.without_curves();
    let target = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
    let generator = KvGenerator::new();
    let outcome = sequential(&generator, &target, &cfg);
    for ((name, value), spec) in generator
        .describe(&outcome.best_unit_params)
        .into_iter()
        .zip(generator.param_specs())
    {
        assert!(
            value >= spec.lo - 1e-9 && value <= spec.hi + 1e-9,
            "{name} = {value} outside [{}, {}]",
            spec.lo,
            spec.hi
        );
    }
}
