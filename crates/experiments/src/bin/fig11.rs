//! Fig. 11: the range of performance profiles each dataset generator can
//! produce. For IPC and LLC MPKI, sweep a range of requested target values
//! and report what a single-metric Datamime search actually achieves
//! (points on y = x are reachable).

#![forbid(unsafe_code)]
use datamime::generator::{
    DatasetGenerator, DnnGenerator, KvGenerator, SiloGenerator, XapianGenerator,
};
use datamime::metrics::DistMetric;
use datamime::scalar::scalar_sweep;
use datamime::search::SearchConfig;
use datamime_experiments::{row, Report, Settings};

fn main() {
    let s = Settings::from_env();
    let mut r = Report::new("fig11");
    let points: usize = std::env::var("DATAMIME_SWEEP_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8); // the paper uses 15
    let mut cfg = SearchConfig::fast((s.iters / 2).max(6));
    cfg.profiling = s.profiling.clone().without_curves();
    cfg.seed = 0x5CA1A7;
    let opts = s.runtime_options();

    let gens: Vec<Box<dyn DatasetGenerator + Sync>> = vec![
        Box::new(KvGenerator::new()),
        Box::new(SiloGenerator::new()),
        Box::new(XapianGenerator::new()),
        Box::new(DnnGenerator::new()),
    ];

    for (metric, lo, hi) in [
        (DistMetric::Ipc, 0.3, 3.0),
        (DistMetric::LlcMpki, 0.0, 30.0),
    ] {
        r.line(format!("-- target metric: {} --", metric.key()));
        for g in &gens {
            eprintln!("== {} / {} ==", g.name(), metric.key());
            let outcomes = scalar_sweep(g.as_ref(), metric, lo, hi, points, &cfg, &opts)
                .expect("journal-less sweep cannot fail");
            let req: Vec<f64> = outcomes.iter().map(|o| o.requested).collect();
            let ach: Vec<f64> = outcomes.iter().map(|o| o.achieved).collect();
            r.line(format!("  [{}]", g.name()));
            r.line(row("  requested", &req));
            r.line(row("  achieved", &ach));
            let reachable_lo = ach.iter().cloned().fold(f64::INFINITY, f64::min);
            let reachable_hi = ach.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            r.line(format!(
                "  achievable range: {reachable_lo:.2} .. {reachable_hi:.2}"
            ));
        }
        r.line(String::new());
    }
    r.finish();
}
