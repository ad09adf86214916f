//! Compressibility-aware dataset generation — the extension the paper
//! sketches in Sec. III-D.
//!
//! Value-dependent techniques (cache/memory compression) need datasets
//! whose *contents* are as compressible as the target's, but mimicking
//! values directly would leak proprietary data. The paper's proposed
//! technique-specific fix: profile only the *compression ratio* of the
//! target's memory snapshots, and give the dataset generator a knob that
//! reproduces it. This module implements that loop:
//!
//! - [`workload_compression_ratio`] measures a workload's snapshot
//!   compression ratio (via the application's sampled value contents);
//! - [`KvGeneratorCompressible`] extends the Table-III memcached generator
//!   with a `value_redundancy` parameter;
//! - [`Objective::CompressionRatio`](crate::search::Objective) makes
//!   [`search_with_runtime`](crate::search::search_with_runtime) add the
//!   ratio mismatch to the EMD objective.

use crate::generator::{DatasetGenerator, KvGenerator, ParamSpec};
use crate::workload::{AppConfig, Workload};
use datamime_stats::compress::estimate_compression_ratio;

/// Measures the compression ratio of a workload's memory snapshot, or
/// `None` if its application does not model value contents.
///
/// Only the scalar ratio leaves this function — never the snapshot itself —
/// matching the paper's privacy argument.
pub fn workload_compression_ratio(workload: &Workload) -> Option<f64> {
    let app = workload.app.build();
    app.memory_snapshot()
        .map(|s| estimate_compression_ratio(&s))
}

/// The Table-III memcached generator extended with a `value_redundancy`
/// parameter controlling content compressibility.
#[derive(Debug, Clone)]
pub struct KvGeneratorCompressible {
    inner: KvGenerator,
    specs: Vec<ParamSpec>,
}

impl KvGeneratorCompressible {
    /// Creates the extended generator.
    pub fn new() -> Self {
        let inner = KvGenerator::new();
        let mut specs = inner.param_specs().to_vec();
        specs.push(ParamSpec::linear("value_redundancy", 0.0, 1.0));
        KvGeneratorCompressible { inner, specs }
    }
}

impl Default for KvGeneratorCompressible {
    fn default() -> Self {
        KvGeneratorCompressible::new()
    }
}

impl DatasetGenerator for KvGeneratorCompressible {
    fn name(&self) -> &str {
        "memcached-compressible"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        assert_eq!(
            unit.len(),
            self.specs.len(),
            "parameter vector dimension mismatch"
        );
        let mut w = self.inner.instantiate(&unit[..unit.len() - 1]);
        let redundancy = self
            .specs
            .last()
            .expect("has specs")
            .denormalize(unit[unit.len() - 1]);
        if let AppConfig::Kv(cfg) = &mut w.app {
            cfg.value_redundancy = Some(redundancy);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_workload;
    use crate::search::{search_with_runtime, Objective, RuntimeOptions, SearchConfig};
    use datamime_apps::KvConfig;

    fn compressible_target(redundancy: f64) -> Workload {
        let mut w = Workload::mem_fb();
        w.app = AppConfig::Kv(KvConfig {
            n_keys: 10_000,
            value_redundancy: Some(redundancy),
            ..KvConfig::facebook_like()
        });
        w
    }

    #[test]
    fn ratio_measurement_tracks_redundancy() {
        let lo = workload_compression_ratio(&compressible_target(0.1)).unwrap();
        let hi = workload_compression_ratio(&compressible_target(0.9)).unwrap();
        assert!(
            hi < lo,
            "more redundancy must compress better: {hi} vs {lo}"
        );
    }

    #[test]
    fn workloads_without_content_report_none() {
        assert!(workload_compression_ratio(&Workload::mem_fb()).is_none());
        assert!(workload_compression_ratio(&Workload::silo_bidding()).is_none());
    }

    #[test]
    fn extended_generator_has_extra_dimension() {
        let g = KvGeneratorCompressible::new();
        assert_eq!(g.dims(), 7);
        let w = g.instantiate(&[0.5; 7]);
        assert!(workload_compression_ratio(&w).is_some());
    }

    #[test]
    fn search_matches_target_compressibility() {
        let target = compressible_target(0.85);
        let target_ratio = workload_compression_ratio(&target).unwrap();
        let mut cfg = SearchConfig::fast(12);
        cfg.profiling = cfg.profiling.without_curves();
        // Focus entirely on compressibility to keep the test cheap.
        cfg.weights = crate::error_model::MetricWeights::only(crate::metrics::DistMetric::Ipc)
            .with_dist_weight(crate::metrics::DistMetric::Ipc, 0.1);
        cfg.objective = Objective::CompressionRatio {
            target_ratio,
            weight: 4.0,
        };
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let outcome = search_with_runtime(
            &KvGeneratorCompressible::new(),
            &target_profile,
            &cfg,
            &RuntimeOptions::sequential(),
        )
        .unwrap();
        let got = workload_compression_ratio(&outcome.best_workload).unwrap();
        assert!(
            (got - target_ratio).abs() < 0.15,
            "target ratio {target_ratio:.3}, achieved {got:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0, 1]")]
    fn invalid_ratio_panics() {
        let mut cfg = SearchConfig::fast(1);
        cfg.objective = Objective::CompressionRatio {
            target_ratio: 0.0,
            weight: 1.0,
        };
        let target = compressible_target(0.5);
        let p = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let _ = search_with_runtime(
            &KvGeneratorCompressible::new(),
            &p,
            &cfg,
            &RuntimeOptions::sequential(),
        );
    }
}
