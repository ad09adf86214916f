//! Quickstart: synthesize a dataset that makes memcached mimic a
//! production-like target workload.
//!
//! Run with `cargo run --release --example quickstart`. This is a scaled
//! down search (few iterations, fast profiling) that finishes in well
//! under a minute; see `memcached_clone.rs` for a full-fidelity run.

use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::metrics::DistMetric;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;

fn main() {
    // 1. The "production" workload: memcached with a Facebook-like dataset
    //    (Gaussian keys, generalized-Pareto values, 97% GETs).
    let target = Workload::mem_fb();
    let cfg = SearchConfig::fast(20);

    println!(
        "profiling target `{}` on {} ...",
        target.name, cfg.machine.name
    );
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
    println!("  target: {}", target_profile.summary());

    // 2. Search the memcached dataset-generator space (Table III: QPS,
    //    GET/SET ratio, key/value size distributions) for a synthetic
    //    dataset whose profile matches.
    let generator = KvGenerator::new();
    println!(
        "searching {} dataset parameters for {} iterations ...",
        generator.dims(),
        cfg.iterations
    );
    let opts = RuntimeOptions::sequential();
    let outcome = search_with_runtime(&generator, &target_profile, &cfg, &opts)
        .expect("journal-less search cannot fail");

    println!("  best total EMD error: {:.4}", outcome.best_error);
    println!("  synthesized dataset parameters:");
    for (name, value) in generator.describe(&outcome.best_unit_params) {
        println!("    {name:>18} = {value:.2}");
    }

    // 3. Compare the headline metrics.
    println!("\n{:>16}  {:>8}  {:>9}", "metric", "target", "datamime");
    for m in [
        DistMetric::Ipc,
        DistMetric::ICacheMpki,
        DistMetric::LlcMpki,
        DistMetric::BranchMpki,
        DistMetric::CpuUtilization,
    ] {
        println!(
            "{:>16}  {:>8.3}  {:>9.3}",
            m.key(),
            target_profile.mean(m),
            outcome.best_profile.mean(m)
        );
    }
}
