//! The Sec. V-C case study: clone a workload **with a different program**.
//!
//! The target is `masstree` (a cache-crafted key-value store we do not
//! have a generator for); Datamime uses the *memcached* program and its
//! dataset generator instead, because the two are functionally similar.
//! The paper shows this matches end-to-end metrics (IPC, LLC MPKI) even
//! though code-bound metrics (ICache, branches) cannot match.
//!
//! Run with `cargo run --release --example cross_program`.
//! Set `DATAMIME_ITERS` to change the search length (default 30).

use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::metrics::DistMetric;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;

fn main() {
    let iters: usize = std::env::var("DATAMIME_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let cfg = SearchConfig::fast(iters);

    let target = Workload::masstree_ycsb();
    println!(
        "profiling target `{}` (program: {}) ...",
        target.name,
        target.app.program()
    );
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

    // Deliberate program mismatch: clone masstree with memcached.
    let generator = KvGenerator::new();
    println!(
        "cloning with program `{}` ({iters} iterations) ...",
        generator.name()
    );
    let opts = RuntimeOptions::sequential();
    let outcome = search_with_runtime(&generator, &target_profile, &cfg, &opts)
        .expect("journal-less search cannot fail");

    println!("\nbest error {:.4}", outcome.best_error);
    println!(
        "{:>16}  {:>10}  {:>22}",
        "metric", "masstree", "datamime w/ memcached"
    );
    for m in [
        DistMetric::Ipc,
        DistMetric::LlcMpki,
        DistMetric::CpuUtilization,
        DistMetric::BranchMpki,
        DistMetric::ICacheMpki,
        DistMetric::L1dMpki,
        DistMetric::MemoryBandwidth,
    ] {
        println!(
            "{:>16}  {:>10.3}  {:>22.3}",
            m.key(),
            target_profile.mean(m),
            outcome.best_profile.mean(m)
        );
    }
    println!(
        "\nAs in Table IV: end-to-end metrics (IPC, LLC MPKI, utilization) track the\n\
         target, while code-bound metrics (ICache, branch MPKI) reflect memcached's\n\
         code rather than masstree's — the expected limit of cross-program cloning."
    );
}
