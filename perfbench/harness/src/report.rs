//! Result bookkeeping: metrics, cross-checks, the behaviour checksum,
//! and the one-line JSON result.

use datamime_runtime::json::Json;
use std::path::Path;

/// Every gated end-to-end metric, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("clone_s", "s"),
    ("eval_ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bayesopt.suggest_ms", "ms"),
    ("bayesopt.suggest_calls", "count"),
    ("bayesopt.observe_ms", "ms"),
    ("bayesopt.refit_suggest_ms", "ms"),
    ("bayesopt.refit_p50_ms", "ms"),
    ("bayesopt.plain_p50_ms", "ms"),
    ("generator.instantiate_ms", "ms"),
    ("profiler.target_ms", "ms"),
    ("profiler.eval_ms", "ms"),
    ("profiler.eval_p50_ms", "ms"),
    ("profiler.eval_p90_ms", "ms"),
    ("profiler.main_ms", "ms"),
    ("profiler.curve_ms", "ms"),
    ("profiler.curve_points", "count"),
    ("apps.build_ms", "ms"),
    ("apps.builds", "count"),
    ("apps.serve_ms", "ms"),
    ("apps.requests", "count"),
    ("sim.instructions", "count"),
    ("sim.busy_cycles", "count"),
    ("sim.llc_misses", "count"),
    ("sim.host_ns_per_kinstr", "ns"),
    ("loadgen.self_ms", "ms"),
    ("error_model.score_ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("runtime.memo_hit_ratio", "ratio"),
    ("runtime.journal_bytes", "bytes"),
    ("runtime.replay_ms", "ms"),
    ("runtime.finish_ms", "ms"),
    ("dist.batch_roundtrip_ms", "ms"),
    ("dist.overhead_ms", "ms"),
    ("dist.spawn_ms", "ms"),
    ("dist.worker_restarts", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.job_s", "s"),
    ("serve.makespan_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations: observations plus cross-checks.
    pub attempted: u64,
    /// Faulted observations, refused daemon calls and failed checks.
    pub failed: u64,
    /// Observations attempted and how many of them faulted.
    pub evals: u64,
    pub faults: u64,
    /// Cross-check failures; any makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        // An empty float sum is -0.0; report it as 0.
        let value = value + 0.0;
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Counts `evals` observations of which `faults` faulted.
    pub fn observed(&mut self, evals: usize, faults: usize) {
        self.evals += evals as u64;
        self.faults += faults as u64;
        self.attempted += evals as u64;
        self.failed += faults as u64;
    }

    /// Faulted evaluations over attempted ones, as the share that
    /// succeeded (so it is never 0 on a healthy run).
    pub fn ok_ratio(&self) -> f64 {
        if self.evals == 0 {
            return 0.0;
        }
        (self.evals - self.faults) as f64 / self.evals as f64
    }

    /// Records a cross-check; a failed one is also a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// Prints the metrics by name with units, the mismatches, and finally
    /// the result line: `{"correct", "attempted", "failed", "metrics"}`
    /// over the metric set of the mode (`END_TO_END` or `PER_LAYER`).
    pub fn print(&self, traced: bool) {
        let set = if traced { PER_LAYER } else { END_TO_END };
        for m in &self.mismatches {
            println!("MISMATCH: {m}");
        }
        if !traced {
            // Printed by name but left out of the result line. best_error
            // is exact for a seed but moves with the load seed by more
            // than any regression bound could allow (0.75-0.98 on
            // clone_fast, seeds 11-14), so the behaviour checksum guards
            // it instead. eval_fail_ratio reads 0 on a healthy run; the
            // result line carries its complement, eval_ok_ratio.
            let best = self.get("best_error");
            println!(
                "{:>28} = {best:<14.6} EMD (not in the result line)",
                "best_error"
            );
            let fail = 1.0 - self.ok_ratio();
            println!(
                "{:>28} = {fail:<14.6} ratio (not in the result line)",
                "eval_fail_ratio"
            );
        }
        let mut fields = Vec::new();
        for (name, unit) in set {
            let v = self.get(name);
            println!("{name:>28} = {v:<14.6} {unit}");
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(v)
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
    }
}

/// A finite number in shortest round-trip form (JSON has no NaN/Inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// FNV-1a over 64-bit words: the behaviour checksum.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// What a run journal says about itself.
#[derive(Debug, Default)]
pub struct JournalFacts {
    /// `(index, error)` of every `eval`, `cache_hit` and `fault` record.
    pub observations: Vec<(usize, f64)>,
    pub faults: usize,
    /// Stage milliseconds of each `eval` record, by stage name.
    pub stage_ms: Vec<Vec<(String, f64)>>,
    /// `best_error` of the `done` record, if the run finished.
    pub done_best: Option<f64>,
    pub bytes: u64,
}

pub fn read_journal(path: &Path) -> Result<JournalFacts, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut facts = JournalFacts {
        bytes: text.len() as u64,
        ..JournalFacts::default()
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{path:?}: bad journal line: {e:?}"))?;
        let event = rec.get("event").and_then(Json::as_str).unwrap_or("");
        let error = rec.get("error").and_then(Json::as_f64);
        let index = rec.get("index").and_then(Json::as_usize);
        match event {
            "eval" | "cache_hit" | "fault" => {
                if let (Some(i), Some(e)) = (index, error) {
                    facts.observations.push((i, e));
                }
                if event == "fault" {
                    facts.faults += 1;
                }
                if event == "eval" {
                    facts.stage_ms.push(stage_ms(&rec));
                }
            }
            "done" => facts.done_best = rec.get("best_error").and_then(Json::as_f64),
            _ => {}
        }
    }
    Ok(facts)
}

fn stage_ms(rec: &Json) -> Vec<(String, f64)> {
    match rec.get("stage_ms") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|ms| (k.clone(), ms)))
            .collect(),
        _ => Vec::new(),
    }
}

impl JournalFacts {
    /// The stage's milliseconds over every `eval` record.
    pub fn stage(&self, name: &str) -> Vec<f64> {
        self.stage_ms
            .iter()
            .filter_map(|s| s.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
            .collect()
    }
}
