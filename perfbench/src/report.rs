//! The result line, latency samples, set-up timing and process-level
//! measurements shared by every workload.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Error type of a workload run: a message naming what broke.
pub type BenchResult<T> = Result<T, String>;

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one run prints as its last line.
pub struct Outcome {
    /// Every checked answer matched its oracle.
    pub correct: bool,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed (a wrong answer is not a failure: it
    /// clears `correct`).
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records a metric; a non-finite value (a ratio over an empty
    /// set) is reported as 0 with a note on standard error.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
            0.0
        };
        self.metrics.push(Metric { name, value, unit });
    }

    /// Clears `correct` and says why on standard error.
    pub fn mismatch(&mut self, what: impl AsRef<str>) {
        if self.correct {
            eprintln!("perfbench: WRONG ANSWER: {}", what.as_ref());
        }
        self.correct = false;
    }

    /// The JSON result line: exactly the metrics of [`END_TO_END`]
    /// (untraced run) or [`PER_LAYER`] (traced run), in that order.
    ///
    /// Every end-to-end metric must have been recorded with a positive
    /// value. A per-layer metric of a layer the workload does not reach
    /// reads 0. A recorded metric outside the list (an operator class
    /// the list does not name) goes to standard error only.
    pub fn to_json(&self, trace: bool) -> BenchResult<String> {
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for m in &self.metrics {
            if !listed.iter().any(|(name, _)| *name == m.name) {
                eprintln!(
                    "perfbench: unlisted metric {} = {} {}",
                    m.name, m.value, m.unit
                );
            }
        }
        let mut metrics = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let value = match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit != unit => {
                    return Err(format!(
                        "metric {name} recorded in {}, listed in {unit}",
                        m.unit
                    ))
                }
                Some(m) if trace || m.value > 0.0 => m.value,
                Some(m) => return Err(format!("end-to-end metric {name} reads {}", m.value)),
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("qps", "ops/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("model_cost", "pages"),
    ("setup_s", "s"),
];

/// The per-layer metrics of `BENCHMARK.json`, with their units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.plans_considered", "count"),
    ("optimizer.us_per_plan", "us"),
    ("optimizer.nested_invocations", "count"),
    ("optimizer.fingerprint_us", "us"),
    ("optimizer.cost_ratio", "ratio"),
    ("optimizer.rows_q_error.Distinct", "ratio"),
    ("optimizer.rows_q_error.Filter", "ratio"),
    ("optimizer.rows_q_error.HashAggregate", "ratio"),
    ("optimizer.rows_q_error.HashJoin", "ratio"),
    ("optimizer.rows_q_error.Project", "ratio"),
    ("optimizer.rows_q_error.SemiHashJoin", "ratio"),
    ("optimizer.rows_q_error.SeqScan", "ratio"),
    ("optimizer.rows_q_error.TempScan", "ratio"),
    ("optimizer.rows_q_error.WithTemp", "ratio"),
    ("runtime.cache_hit_rate", "ratio"),
    ("runtime.queue_wait_ms", "ms"),
    ("exec.execute_ms", "ms"),
    ("exec.ns_per_tuple_op", "ns"),
    ("exec.tuple_ops", "count"),
    ("exec.page_ios", "pages"),
    ("exec.op.BloomProbe.ns_per_row", "ns"),
    ("exec.op.Distinct.ns_per_row", "ns"),
    ("exec.op.Filter.ns_per_row", "ns"),
    ("exec.op.HashAggregate.ns_per_row", "ns"),
    ("exec.op.HashJoin.ns_per_row", "ns"),
    ("exec.op.Project.ns_per_row", "ns"),
    ("exec.op.SemiHashJoin.ns_per_row", "ns"),
    ("exec.op.SeqScan.ns_per_row", "ns"),
    ("exec.op.TempScan.ns_per_row", "ns"),
    ("exec.op.WithTemp.ns_per_row", "ns"),
    ("storage.build_ms", "ms"),
    ("store.mutate_ms", "ms"),
    ("store.fsyncs_per_commit", "count"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.pool_hit_rate", "ratio"),
    ("store.physical_reads_per_query", "count"),
    ("net.mutate_ms", "ms"),
    ("net.encode_reply_us", "us"),
    ("net.decode_reply_us", "us"),
    ("net.reply_wait_ms", "ms"),
    ("net.bytes_per_op", "bytes"),
    ("dist.execute_ms", "ms"),
    ("dist.messages", "count"),
    ("dist.bytes", "bytes"),
    ("dist.bytes_predicted_ratio", "ratio"),
];

/// Quantile `q` (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio that reads 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed per run. One set-up takes 0.06–0.15 s; the median of
/// five moved by a third between runs on a shared host, so each run
/// repeats the set-up more often.
pub const SETUPS: usize = 15;

/// Runs `setup` `times` times, tearing down every instance but the
/// last, and returns the median set-up time in seconds together with
/// the instance to measure. One set-up is a handful of milliseconds of
/// table building and thread start-up, so a single timing is at the
/// mercy of the scheduler; the median of several is what repeats.
pub fn timed_setups<S>(
    times: usize,
    mut setup: impl FnMut() -> BenchResult<S>,
    mut teardown: impl FnMut(S),
) -> BenchResult<(f64, S)> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        let s = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    eprintln!("perfbench: set-ups took {secs:.4?} s");
    Ok((median(&secs), kept.expect("at least one set-up ran")))
}

/// Calls `round` until `run_for` has passed, always finishing the round
/// in progress, so every run attempts whole rounds of the same
/// operations. Returns the largest resident set size seen after a
/// round, in MiB: the memory the workload holds while it serves, apart
/// from the transient peaks of the repeated set-ups.
pub fn run_rounds(
    run_for: Duration,
    mut round: impl FnMut() -> BenchResult<()>,
) -> BenchResult<f64> {
    let deadline = Instant::now() + run_for;
    let mut peak_rss_mb: f64 = 0.0;
    loop {
        round()?;
        peak_rss_mb = peak_rss_mb.max(rss_mb());
        if Instant::now() >= deadline {
            return Ok(peak_rss_mb);
        }
    }
}

/// A directory inside the checkout for files a run writes (data
/// directories, span dumps): under `$CARGO_TARGET_DIR` when the build
/// directory is set, else under `perfbench/target`.
pub fn work_dir(sub: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-run").join(sub)
}

/// Latency samples of one operation kind, in milliseconds.
#[derive(Default)]
pub struct Latencies {
    pub ms: Vec<f64>,
    /// Sum of the samples in seconds.
    pub busy_s: f64,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(ms(d));
        self.busy_s += d.as_secs_f64();
    }
}

/// The metrics every workload reports from its latency samples:
/// `qps` (operations per second of caller-observed service time),
/// `p50_ms` and `p90_ms` of `reads`, then `model_cost` and `setup_s`.
/// The peak resident set size goes to standard error only: on
/// `dist-3shard`, where every exchange starts a fresh server handler
/// thread, it falls on either of two levels about 20% apart from run to
/// run (which malloc arenas the threads touched), too unsteady to gate.
pub fn end_to_end(
    out: &mut Outcome,
    ops: u64,
    busy_s: f64,
    reads: &Latencies,
    model_cost: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) {
    out.metric("qps", ratio(ops as f64, busy_s), "ops/s");
    out.metric("p50_ms", quantile(&reads.ms, 0.5), "ms");
    out.metric("p90_ms", quantile(&reads.ms, 0.9), "ms");
    let beyond = reads.ms.len() / 10;
    eprintln!(
        "perfbench: {} latency samples, {beyond} beyond p90",
        reads.ms.len()
    );
    out.metric("model_cost", model_cost, "pages");
    out.metric("setup_s", setup_s, "s");
    eprintln!("perfbench: peak resident set {peak_rss_mb:.1} MiB");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`,
    /// read by plain text scanning of the file's one-object-per-line
    /// layout.
    fn manifest_list(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} list"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |line: &str, f: &str| {
            let at = line
                .find(&format!("\"{f}\": \""))
                .map(|i| i + f.len() + 5)?;
            let rest = &line[at..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest_list("end_to_end"), owned(&END_TO_END));
        assert_eq!(manifest_list("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_holds_exactly_the_listed_metrics() {
        let mut out = Outcome::new();
        out.attempted = 3;
        for (name, unit) in END_TO_END {
            out.metric(name, 1.5, unit);
        }
        out.metric("exec.op.Sort.ns_per_row", 2.0, "ns");
        let line = out.to_json(false).unwrap();
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(!line.contains("Sort"));

        // A traced run reports every per-layer metric, 0 where the
        // workload does not reach the layer.
        let traced = out.to_json(true).unwrap();
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"dist.bytes\": {\"value\": 0, \"unit\": \"bytes\"}"));
    }

    #[test]
    fn missing_or_zero_end_to_end_metric_is_an_error() {
        let mut out = Outcome::new();
        for (name, unit) in &END_TO_END[1..] {
            out.metric(*name, 1.0, unit);
        }
        assert!(out.to_json(false).unwrap_err().contains("qps"));
        out.metric("qps", 0.0, "ops/s");
        assert!(out.to_json(false).unwrap_err().contains("qps"));
    }
}
