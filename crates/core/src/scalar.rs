//! Scalar-target search: make a generator hit an arbitrary value of a
//! single metric (paper Sec. V-E, Fig. 11).
//!
//! Instead of matching a full target profile, the objective is the
//! relative distance between one metric's mean and a requested value
//! ([`Objective::Scalar`]). The achievable range of each generator is
//! measured by sweeping the requested value and recording what the search
//! actually reaches.

use crate::generator::DatasetGenerator;
use crate::metrics::DistMetric;
use crate::profile::Profile;
use crate::search::{search_with_runtime, Objective, RuntimeOptions, SearchConfig};
use datamime_runtime::ExecError;
use datamime_sim::MetricSample;

/// Result of one scalar-target search.
#[derive(Debug, Clone)]
pub struct ScalarOutcome {
    /// The requested metric value.
    pub requested: f64,
    /// The metric value the best dataset actually achieves.
    pub achieved: f64,
    /// Best unit-hypercube parameters.
    pub best_unit_params: Vec<f64>,
}

/// A stand-in target profile: the scalar objective never reads it.
fn unused_target() -> Profile {
    Profile::from_samples(&[MetricSample::default()], Vec::new()).expect("one finite sample")
}

/// Sweeps `n_points` evenly spaced target values in `[lo, hi]` (Fig. 11's
/// 15-point sweeps) and returns one outcome per point.
///
/// Each point is its own [`search_with_runtime`] run of `cfg` with
/// [`Objective::Scalar`] set to the point's target and the seed XORed
/// with `index << 32`. `opts` applies to every point, so it should name
/// no journal: the points' run labels differ, and a journal written by
/// one point cannot be resumed by another.
///
/// # Errors
///
/// As [`search_with_runtime`].
///
/// # Panics
///
/// Panics if the range is empty, `n_points < 2`, or `cfg.iterations == 0`.
pub fn scalar_sweep(
    generator: &(dyn DatasetGenerator + Sync),
    metric: DistMetric,
    lo: f64,
    hi: f64,
    n_points: usize,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
) -> Result<Vec<ScalarOutcome>, ExecError> {
    assert!(lo < hi && n_points >= 2, "invalid sweep range");
    let unused_target = unused_target();
    (0..n_points)
        .map(|i| {
            let target = lo + (hi - lo) * i as f64 / (n_points - 1) as f64;
            let cfg = SearchConfig {
                seed: cfg.seed ^ ((i as u64) << 32),
                objective: Objective::Scalar { metric, target },
                ..cfg.clone()
            };
            let outcome = search_with_runtime(generator, &unused_target, &cfg, opts)?;
            Ok(ScalarOutcome {
                requested: target,
                achieved: outcome.best_profile.mean(metric),
                best_unit_params: outcome.best_unit_params,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::KvGenerator;

    /// The Fig. 11 search configuration: fast profiling without curves.
    fn scalar_cfg(iterations: usize, metric: DistMetric, target: f64) -> SearchConfig {
        let mut cfg = SearchConfig::fast(iterations);
        cfg.profiling = cfg.profiling.without_curves();
        cfg.seed = 0x5CA1A7;
        cfg.objective = Objective::Scalar { metric, target };
        cfg
    }

    fn achieved(cfg: &SearchConfig) -> f64 {
        let outcome = search_with_runtime(
            &KvGenerator::new(),
            &unused_target(),
            cfg,
            &RuntimeOptions::sequential(),
        )
        .unwrap();
        outcome.best_profile.mean(DistMetric::Ipc)
    }

    #[test]
    fn scalar_search_approaches_reachable_target() {
        let achieved = achieved(&scalar_cfg(12, DistMetric::Ipc, 1.0));
        assert!(
            (achieved - 1.0).abs() < 0.25,
            "requested 1.0, achieved {achieved}"
        );
    }

    #[test]
    fn unreachable_target_saturates() {
        // No memcached dataset reaches IPC 50; the search should end at the
        // generator's ceiling, far below the request.
        let achieved = achieved(&scalar_cfg(6, DistMetric::Ipc, 50.0));
        assert!(achieved < 5.0, "achieved {achieved}");
    }

    #[test]
    #[should_panic(expected = "invalid sweep range")]
    fn bad_sweep_panics() {
        let cfg = scalar_cfg(1, DistMetric::Ipc, 1.0);
        let _ = scalar_sweep(
            &KvGenerator::new(),
            DistMetric::Ipc,
            1.0,
            1.0,
            2,
            &cfg,
            &RuntimeOptions::sequential(),
        );
    }
}
