//! Metric tables, order statistics and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` at the repo root: every run prints every metric of
//! one table (end-to-end with `--trace 0`, per-layer with `--trace 1`),
//! and `tests/quick.rs` fails if the tables and the JSON file disagree.
//!
//! A timing is reported as its **fastest repetition** ([`Repeated`]), not
//! its median. On the shared 2-core reference host interference only
//! ever adds time and arrives in bursts of a fraction of a second up to a
//! minute: over ten minutes of 45 ms repetitions the median of a 10 s
//! window ranged over 54 % and the fastest repetition of a 20 s window
//! over 6 % (README, "Why the fastest repetition"). The median is printed
//! beside it so a run's interference level stays visible.

use cwc_obs::json::{write_f64, write_str};

/// One metric definition: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable identifier.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening (fraction of the baseline median) before a
    /// change counts as a regression. 0 for per-layer metrics, which
    /// carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// End-to-end metrics: what a user of the coordinator sees. Every
/// workload reports every one of them and none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("batch_wall_s", "s", false, 0.25),
    e2e("chunks_per_s", "1/s", true, 0.25),
    e2e("payload_mb_per_s", "MB/s", true, 0.25),
    e2e("makespan_ratio", "ratio", false, 0.05),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Per-layer metrics, from the traced run. Every traced run fills the
/// whole sheet: a workload brings its own live batch, fleet instance and
/// scheduling problem where it has one and the reference ones
/// (`workloads::reference`) where it has not, so no layer's cost is ever
/// missing from a report.
pub const PER_LAYER: &[MetricDef] = &[
    // net: frame codec
    layer("net.codec.encode_ns_per_frame", "ns", false),
    layer("net.codec.decode_ns_per_frame", "ns", false),
    layer("net.codec.encode_mb_per_s", "MB/s", true),
    layer("net.codec.decode_mb_per_s", "MB/s", true),
    layer("net.codec.share", "ratio", false),
    // net: reactor (Conn + Poller + TimerWheel)
    layer("net.reactor.pingpong_us_p50", "us", false),
    layer("net.reactor.pingpong_us_p99", "us", false),
    layer("net.reactor.bulk_mb_per_s", "MB/s", true),
    layer("net.reactor.blocked_flushes", "count", false),
    layer("net.reactor.timer_ns_per_op", "ns", false),
    layer("net.reactor.share", "ratio", false),
    // coord: the sans-IO kernel, replayed from the traced run's script
    layer("coord.kernel.steps", "count", false),
    layer("coord.kernel.commands", "count", false),
    layer("coord.kernel.step_us_p50", "us", false),
    layer("coord.kernel.step_us_tail", "us", false),
    layer("coord.kernel.step_tail_pct", "%", false),
    layer("coord.kernel.replay_s", "s", false),
    layer("coord.kernel.share", "ratio", false),
    layer("coord.kernel.start_ms", "ms", false),
    layer("coord.kernel.drain_ms", "ms", false),
    // live: the TCP driver around the kernel
    layer("live.loop_iter_us_p50", "us", false),
    layer("live.loop_iter_us_p99", "us", false),
    layer("live.loop_iters", "count", false),
    layer("live.setup_ms", "ms", false),
    layer("live.retries", "count", false),
    layer("live.migrated", "count", false),
    layer("live.keepalives_acked", "count", false),
    layer("live.turnaround_p50_us", "us", false),
    layer("live.turnaround_tail_us", "us", false),
    layer("live.turnaround_tail_pct", "%", true),
    layer("live.turnaround_samples", "count", true),
    layer("live.us_per_chunk", "us", false),
    layer("live.us_per_chunk_quarter", "us", false),
    layer("live.residual_share", "ratio", false),
    // core: greedy CBP scheduler
    layer("core.problem.build_ms", "ms", false),
    layer("core.greedy.sched_wall_s", "s", false),
    layer("core.greedy.pack_calls", "count", false),
    layer("core.greedy.binsearch_iters", "count", false),
    layer("core.greedy.ms_per_pack", "ms", false),
    layer("core.resched.cold_ms", "ms", false),
    layer("core.resched.warm_ms", "ms", false),
    layer("core.resched.warm_pack_calls", "count", false),
    layer("core.partition.split_ms", "ms", false),
    layer("core.relaxation.lp_ms", "ms", false),
    // shard: plan + split + per-shard pack + merge, and the FleetEngine
    layer("shard.sched_wall_s", "s", false),
    layer("shard.makespan_ratio", "ratio", false),
    layer("shard.plan_ms", "ms", false),
    layer("shard.pack_ms", "ms", false),
    layer("shard.merge_ms", "ms", false),
    layer("shard.max_shard_cells", "count", false),
    layer("shard.assignments", "count", false),
    layer("shard.pool_steals", "count", true),
    layer("shard.fleet_run_s", "s", false),
    layer("shard.fleet_makespan_s", "sim_s", false),
    layer("shard.stolen_chunks", "count", false),
    layer("shard.steal_rounds", "count", false),
    // engine + sim: the discrete-event driver
    layer("engine.sim_makespan_s", "sim_s", false),
    layer("engine.segments", "count", false),
    layer("engine.rescheduled_items", "count", false),
    layer("engine.us_per_segment", "us", false),
    layer("engine.sched_pack_calls", "count", false),
    layer("sim.queue_ns_per_event", "ns", false),
    // obs: the price of visibility
    layer("obs.trace_overhead_frac", "ratio", false),
    layer("obs.events_recorded", "count", false),
    layer("obs.spans_recorded", "count", false),
];

/// A measured value with its definition's unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name (must appear in one of the tables).
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Oracle checks attempted (jobs, schedules, bounds).
    pub attempted: u64,
    /// Oracle checks that failed.
    pub failed: u64,
    /// Metrics of the requested table.
    pub metrics: Vec<Measured>,
    /// Human-readable first few oracle failures.
    pub failures: Vec<String>,
    /// Timed rounds behind every reported timing.
    pub reps: usize,
    /// Sample counts behind reported percentiles: `(metric, samples)`.
    pub samples: Vec<(&'static str, usize)>,
    /// Per timing taken over repetitions: `(metric, fastest, median,
    /// slowest)`; the metric's value is the fastest.
    pub spreads: Vec<(&'static str, f64, f64, f64)>,
}

impl RunResult {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Measured { name, value }),
        }
    }

    /// Sets a timing to its fastest repetition and keeps the spread over
    /// repetitions for the report.
    pub fn set_timing(&mut self, name: &'static str, timing: &Repeated) {
        let (fastest, mid, slowest) = (timing.fastest(), timing.median(), timing.slowest());
        self.set(name, fastest);
        self.spreads.push((name, fastest, mid, slowest));
    }

    /// Records one oracle check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Whether every oracle check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics of `table` in table order, or the name of the first
    /// one that was not measured or is not finite. End-to-end metrics
    /// (`must_be_positive`) may never be 0 either; a per-layer count or
    /// share may.
    pub fn complete(
        &self,
        table: &[MetricDef],
        must_be_positive: bool,
    ) -> Result<Vec<f64>, String> {
        table
            .iter()
            .map(|def| {
                let found = self.metrics.iter().find(|m| m.name == def.name);
                match found {
                    Some(m) if m.value.is_finite() && (!must_be_positive || m.value > 0.0) => {
                        Ok(m.value)
                    }
                    Some(m) => Err(format!(
                        "metric {} has unusable value {}",
                        def.name, m.value
                    )),
                    None => Err(format!("metric {} was not measured", def.name)),
                }
            })
            .collect()
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, table: &[MetricDef], values: &[f64]) -> String {
        let mut out = String::from("{\"correct\": ");
        out.push_str(if self.correct() { "true" } else { "false" });
        out.push_str(&format!(
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        ));
        for (i, (def, v)) in table.iter().zip(values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str(&mut out, def.name);
            out.push_str(": {\"value\": ");
            write_f64(&mut out, *v);
            out.push_str(", \"unit\": ");
            write_str(&mut out, def.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Timings of the same units of work over several rounds: `rounds[r][k]`
/// is unit `k` (one variation of the workload's instance) in round `r`.
#[derive(Debug, Clone, Default)]
pub struct Repeated {
    rounds: Vec<Vec<f64>>,
}

impl FromIterator<Vec<f64>> for Repeated {
    /// From rounds: each one timing per unit, in unit order.
    fn from_iter<I: IntoIterator<Item = Vec<f64>>>(rounds: I) -> Self {
        Repeated {
            rounds: rounds.into_iter().collect(),
        }
    }
}

impl Repeated {
    /// Sum over units of `pick` applied to that unit's timings.
    fn sum_of(&self, pick: impl Fn(&[f64]) -> f64) -> f64 {
        let units = self.rounds.first().map_or(0, Vec::len);
        (0..units)
            .map(|k| pick(&self.rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
            .sum()
    }

    /// Each unit's fastest round, summed: what the work costs when
    /// nothing interferes.
    pub fn fastest(&self) -> f64 {
        self.sum_of(|v| fastest(v.iter().copied()))
    }

    /// Each unit's median round, summed.
    pub fn median(&self) -> f64 {
        self.sum_of(median)
    }

    /// Each unit's slowest round, summed.
    pub fn slowest(&self) -> f64 {
        self.sum_of(|v| v.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }
}

/// The smallest of `values`; infinite when there are none.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of a sample (mean of the middle pair for even sizes). Panics
/// on an empty sample: a workload that timed nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sample, `p` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest percentile (up to p99) a sample supports: at least ten
/// samples must lie beyond it. Falls back to the median. Returns
/// `(p, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    for p in [0.99, 0.95, 0.9] {
        if (values.len() as f64) * (1.0 - p) >= 10.0 {
            return (p, percentile(values, p));
        }
    }
    (0.5, percentile(values, 0.5))
}

/// `(min, median, max)` of a sample.
pub fn spread(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where this run happened: enough to tell two hosts' numbers apart.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".to_owned(), |n| n.to_string()),
        ),
        ("cpu_model", cpu_model),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_owned(),
        ),
        ("rustc", command("rustc", &["-V"])),
        ("git_sha", command("git", &["rev-parse", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        // 1000 samples leave exactly 10 beyond p99; 999 do not.
        assert_eq!(tail(&v), (0.99, 990.0));
        assert_eq!(tail(&v[..999]).0, 0.95);
        assert_eq!(tail(&v[..50]).0, 0.5);
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::default();
        r.check(true, String::new);
        for def in END_TO_END {
            r.set(def.name, 1.5);
        }
        let values = r.complete(END_TO_END, true).unwrap();
        let parsed = cwc_obs::json::parse(&r.result_line(END_TO_END, &values)).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1.get("value").and_then(|v| v.as_f64()),
            Some(1.5)
        );
    }

    #[test]
    fn a_zero_or_missing_metric_is_refused_except_a_zero_layer_count() {
        let mut r = RunResult::default();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            r.set(def.name, 0.0);
        }
        assert!(r.complete(END_TO_END, true).is_err());
        assert!(r.complete(PER_LAYER, false).is_ok());
        r.metrics.pop();
        assert!(r.complete(PER_LAYER, false).is_err());
    }

    #[test]
    fn a_timing_is_each_units_fastest_round_summed() {
        let t: Repeated = [vec![3.0, 10.0], vec![1.0, 30.0], vec![2.0, 20.0]]
            .into_iter()
            .collect();
        assert_eq!((t.fastest(), t.median(), t.slowest()), (11.0, 22.0, 33.0));
        let mut r = RunResult::default();
        r.set_timing("batch_wall_s", &t);
        assert_eq!(r.metrics[0].value, 11.0);
        assert_eq!(r.spreads, [("batch_wall_s", 11.0, 22.0, 33.0)]);
    }
}
