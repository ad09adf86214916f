//! Clone the `xapian` search-engine target workload, demonstrating a
//! generator whose parameters shape *structured* data (Sec. III-B): query
//! skew, a term-frequency cap, and the average document length.
//!
//! Run with `cargo run --release --example search_engine_clone`.
//! Set `DATAMIME_ITERS` to change the search length (default 30).

use datamime::error_model::{profile_error, MetricWeights};
use datamime::generator::{DatasetGenerator, XapianGenerator};
use datamime::metrics::{CurveMetric, DistMetric};
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;

fn main() {
    let iters: usize = std::env::var("DATAMIME_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let cfg = SearchConfig::fast(iters);

    let target = Workload::xapian_wiki();
    println!(
        "profiling `{}` (Wikipedia-like index, Zipfian queries) ...",
        target.name
    );
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

    let generator = XapianGenerator::new();
    println!(
        "searching the StackOverflow-corpus generator ({} params) for {iters} iterations ...",
        generator.dims()
    );
    let opts = RuntimeOptions::sequential();
    let outcome = search_with_runtime(&generator, &target_profile, &cfg, &opts)
        .expect("journal-less search cannot fail");

    println!(
        "\nbest error {:.4}; synthesized dataset:",
        outcome.best_error
    );
    for (name, value) in generator.describe(&outcome.best_unit_params) {
        println!("  {name:>16} = {value:.3}");
    }

    let breakdown = profile_error(
        &target_profile,
        &outcome.best_profile,
        &MetricWeights::equal(),
    );
    println!("\nper-metric normalized EMD: {}", breakdown.summary());

    println!("\n{:>14}  {:>8}  {:>9}", "metric", "target", "datamime");
    for m in [
        DistMetric::Ipc,
        DistMetric::L1dMpki,
        DistMetric::LlcMpki,
        DistMetric::BranchMpki,
    ] {
        println!(
            "{:>14}  {:>8.3}  {:>9.3}",
            m.key(),
            target_profile.mean(m),
            outcome.best_profile.mean(m)
        );
    }

    // Cache-sensitivity curves (the Fig. 7 comparison for xapian).
    let t_curve = target_profile.curve_values(CurveMetric::LlcMpkiCurve);
    let b_curve = outcome.best_profile.curve_values(CurveMetric::LlcMpkiCurve);
    if !t_curve.is_empty() {
        println!("\nLLC MPKI vs cache size (target / datamime):");
        for ((p, t), b) in target_profile.curve().iter().zip(&t_curve).zip(&b_curve) {
            println!("  {:>3} MB: {t:.2} / {b:.2}", p.cache_bytes >> 20);
        }
    }
}
