//! Clone a production-like memcached workload (`mem-fb`) and validate the
//! result across microarchitectures, reproducing the paper's headline
//! Fig. 1 experiment end to end:
//!
//! 1. profile the target on Broadwell;
//! 2. run the Datamime search;
//! 3. re-profile target and benchmark on Zen 2 to check that the match
//!    carries across machines;
//! 4. print the comparison next to the unrepresentative public dataset.
//!
//! Run with `cargo run --release --example memcached_clone`.
//! Set `DATAMIME_ITERS` to raise the search length (default 40).

use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::metrics::DistMetric;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;
use datamime_sim::MachineConfig;

fn main() {
    let iters: usize = std::env::var("DATAMIME_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let cfg = SearchConfig::fast(iters);

    let target = Workload::mem_fb();
    let public = Workload::mem_public();

    println!("== step 1: profile the production target on broadwell ==");
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
    let public_profile = profile_workload(&public, &cfg.machine, &cfg.profiling);

    println!("== step 2: datamime search ({iters} iterations) ==");
    let generator = KvGenerator::new();
    let opts = RuntimeOptions::sequential();
    let outcome = search_with_runtime(&generator, &target_profile, &cfg, &opts)
        .expect("journal-less search cannot fail");
    println!("best error {:.4}; parameters:", outcome.best_error);
    for (name, value) in generator.describe(&outcome.best_unit_params) {
        println!("  {name:>18} = {value:.2}");
    }

    println!("\n== step 3: cross-microarchitecture validation on zen2 ==");
    let zen2 = MachineConfig::zen2();
    let target_zen2 = profile_workload(&target, &zen2, &cfg.profiling);
    let bench_zen2 = profile_workload(&outcome.best_workload, &zen2, &cfg.profiling);

    println!("\n== results (cf. paper Fig. 1) ==");
    println!(
        "{:>24}  {:>8}  {:>8}  {:>9}",
        "metric", "target", "public", "datamime"
    );
    for m in [DistMetric::Ipc, DistMetric::ICacheMpki, DistMetric::LlcMpki] {
        println!(
            "{:>24}  {:>8.3}  {:>8.3}  {:>9.3}",
            format!("broadwell {}", m.key()),
            target_profile.mean(m),
            public_profile.mean(m),
            outcome.best_profile.mean(m)
        );
    }
    println!(
        "{:>24}  {:>8.3}  {:>8}  {:>9.3}",
        "zen2 ipc",
        target_zen2.mean(DistMetric::Ipc),
        "-",
        bench_zen2.mean(DistMetric::Ipc)
    );

    let ipc_err =
        (outcome.best_profile.mean(DistMetric::Ipc) - target_profile.mean(DistMetric::Ipc)).abs()
            / target_profile.mean(DistMetric::Ipc);
    println!("\nIPC relative error on broadwell: {:.1}%", ipc_err * 100.0);
}
