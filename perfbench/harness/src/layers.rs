//! Per-layer metrics and the self-time table, computed from the spans of
//! a traced run.

use crate::report::{median, quantile, Report};
use crate::trace::{arg_sum, self_times, total, Span};

const MS: f64 = 1e6;

/// The layer a span's self time belongs to, for the self-time table.
fn layer_of(name: &str) -> &'static str {
    match name {
        "profiler.main" | "profiler.curve" => "loadgen (driver loop)",
        "apps.serve" => "apps+sim (App::serve)",
        "apps.build" => "apps (dataset build)",
        "bayesopt.suggest" | "bayesopt.observe" => "bayesopt",
        "generator.instantiate" => "core::generator",
        "error_model.score" => "core::error_model/stats",
        "profiler.target" | "profiler.eval" | "profiler.reprofile" => "core::profiler",
        "dist.batch" | "dist.spawn" | "dist.shutdown" => "dist",
        "clone" | "makespan" => "trace.unattributed",
        n if n.starts_with("runtime.") || n == "eval" => "runtime",
        n if n.starts_with("serve.") => "serve (client view)",
        _ => "other",
    }
}

/// Fills every span-derived per-layer metric from `spans`.
pub fn fill(report: &mut Report, spans: &[Span]) {
    let ms = |name: &str| total(spans, name).0 as f64 / MS;
    let durs = |name: &str, pred: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && pred(s))
            .map(|s| s.dur_ns() as f64 / MS)
            .collect()
    };

    report.set("bayesopt.suggest_ms", ms("bayesopt.suggest"));
    report.set(
        "bayesopt.suggest_calls",
        total(spans, "bayesopt.suggest").1 as f64,
    );
    report.set("bayesopt.observe_ms", ms("bayesopt.observe"));
    let refits = durs("bayesopt.suggest", &|s| s.arg("refit") > 0.0);
    let plain = durs("bayesopt.suggest", &|s| s.arg("refit") == 0.0);
    report.set("bayesopt.refit_suggest_ms", refits.iter().sum());
    report.set("bayesopt.refit_p50_ms", median(&refits));
    report.set("bayesopt.plain_p50_ms", median(&plain));

    report.set("generator.instantiate_ms", ms("generator.instantiate"));
    report.set("profiler.target_ms", ms("profiler.target"));
    let evals = durs("profiler.eval", &|_| true);
    report.set("profiler.eval_ms", evals.iter().sum());
    report.set("profiler.eval_p50_ms", median(&evals));
    // A p90 needs at least ten samples beyond it.
    report.set(
        "profiler.eval_p90_ms",
        if evals.len() >= 100 {
            quantile(&evals, 0.9)
        } else {
            0.0
        },
    );

    let main_ms = ms("profiler.main");
    let curve_ms = ms("profiler.curve");
    report.set("profiler.main_ms", main_ms);
    report.set("profiler.curve_ms", curve_ms);
    let points: f64 = ["profiler.target", "profiler.eval", "profiler.reprofile"]
        .iter()
        .map(|n| arg_sum(spans, n, "curve_points"))
        .sum();
    report.set("profiler.curve_points", points);

    let build_ms = ms("apps.build");
    report.set("apps.build_ms", build_ms);
    report.set("apps.builds", total(spans, "apps.build").1 as f64);
    let phase_sum =
        |key: &str| arg_sum(spans, "profiler.main", key) + arg_sum(spans, "profiler.curve", key);
    let serve_ms = phase_sum("serve_ns") / MS;
    let instructions = phase_sum("instructions");
    report.set("apps.serve_ms", serve_ms);
    report.set("apps.requests", phase_sum("requests"));
    report.set("sim.instructions", instructions);
    report.set("sim.busy_cycles", phase_sum("busy_cycles"));
    report.set("sim.llc_misses", phase_sum("llc_misses"));
    report.set(
        "sim.host_ns_per_kinstr",
        if instructions > 0.0 {
            serve_ms * MS / (instructions / 1e3)
        } else {
            0.0
        },
    );
    report.set("loadgen.self_ms", main_ms + curve_ms - build_ms - serve_ms);
    report.set("error_model.score_ms", ms("error_model.score"));

    // Executor wall time minus its child spans (suggest, observe, eval,
    // broker round trips): memo, journal appends, supervisor and sinks.
    let runtime_self: u64 = spans
        .iter()
        .filter(|s| s.name == "runtime.executor")
        .map(|s| {
            self_times(spans, s.id)
                .get("runtime.executor")
                .copied()
                .unwrap_or(0)
        })
        .sum();
    report.set("runtime.self_ms", runtime_self as f64 / MS);
    report.set("runtime.replay_ms", ms("runtime.replay"));
    // From the last observation of each clone until its outcome returns.
    let finish: f64 = spans
        .iter()
        .filter(|s| s.name == "clone")
        .map(|root| {
            let last_observe = spans
                .iter()
                .filter(|s| s.name == "bayesopt.observe" && s.run == root.run)
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(root.start_ns);
            root.end_ns.saturating_sub(last_observe) as f64 / MS
        })
        .sum();
    report.set("runtime.finish_ms", finish);

    let batches: Vec<&Span> = spans.iter().filter(|s| s.name == "dist.batch").collect();
    report.set("dist.batch_roundtrip_ms", ms("dist.batch"));
    report.set(
        "dist.overhead_ms",
        batches
            .iter()
            .map(|s| s.dur_ns() as f64 / MS - s.arg("slowest_stage_ms"))
            .sum(),
    );
    report.set("dist.spawn_ms", ms("dist.spawn"));
}

/// Prints the self-time table of the subtree under `root` and returns
/// the root's own self time (the part no child span covers). The rows
/// add up to the root's duration.
pub fn print_self_table(spans: &[Span], root: u32, title: &str) -> f64 {
    let Some(root_span) = spans.iter().find(|s| s.id == root) else {
        return 0.0;
    };
    let table = self_times(spans, root);
    let mut rows: Vec<(&str, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let whole = root_span.dur_ns() as f64 / MS;
    println!("self time on the blocking path of {title} ({whole:.1} ms traced):");
    let mut sum = 0.0;
    let mut unattributed = 0.0;
    for (name, ns) in rows {
        let v = ns as f64 / MS;
        sum += v;
        let label = if name == root_span.name {
            unattributed = v;
            "trace.unattributed"
        } else {
            name
        };
        println!(
            "  {label:<24} {:<26} {v:>12.3} ms {:>6.2}%",
            layer_of(name),
            100.0 * v / whole.max(1e-9)
        );
    }
    println!(
        "  {:<51} {sum:>12.3} ms (rows sum; traced clone_s {whole:.3} ms)",
        "total"
    );
    unattributed
}
