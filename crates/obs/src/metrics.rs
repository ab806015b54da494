//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! The hot path is lock-free: a [`Counter`] handle is one `Arc<AtomicU64>`,
//! and histogram recording touches only atomics. Name lookup takes a
//! read-lock on a `BTreeMap`; callers that care should resolve a handle once
//! and reuse it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::json;

/// Lock-free counter handle; cheap to clone.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Fixed-bucket histogram over `f64` observations.
///
/// Buckets are defined by ascending upper bounds; an implicit overflow
/// bucket catches everything above the last bound. Recording is atomic
/// adds only, so concurrent observers never block each other.
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Exponential bounds: `first, first*factor, ...`, `n` bounds total.
    pub fn exponential(first: f64, factor: f64, n: usize) -> Self {
        assert!(first > 0.0 && factor > 1.0 && n >= 1);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Default bucketing: 48 powers of two starting at 0.001, covering
    /// microsecond spans up to multi-hour runs in any of the units the
    /// stack reports (us, ms, KB, KB/s).
    pub fn default_buckets() -> Self {
        Histogram::exponential(0.001, 2.0, 48)
    }

    /// Index of the bucket an observation falls into (first bound >= v,
    /// else the overflow bucket).
    fn bucket_index(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[self.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |cur| cur + v);
        atomic_f64_update(&self.min_bits, |cur| cur.min(v));
        atomic_f64_update(&self.max_bits, |cur| cur.max(v));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `p`-th percentile (0..=100) by linear interpolation
    /// within the containing bucket. Returns `None` with no observations.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        Some(quantile_from_buckets(&self.buckets(), total, min, max, p))
    }

    /// Snapshot of the summary statistics.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let (min, max, mean) = if count == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
                self.sum() / count as f64,
            )
        };
        let mut summary = HistogramSummary {
            count,
            sum: self.sum(),
            min,
            max,
            mean,
            p50: 0.0,
            p90: 0.0,
            p95: 0.0,
            p99: 0.0,
            buckets: self.buckets(),
        };
        summary.p50 = summary.quantile(50.0).unwrap_or(0.0);
        summary.p90 = summary.quantile(90.0).unwrap_or(0.0);
        summary.p95 = summary.quantile(95.0).unwrap_or(0.0);
        summary.p99 = summary.quantile(99.0).unwrap_or(0.0);
        summary
    }

    /// (upper bound, count) pairs for the non-overflow buckets, plus the
    /// overflow count last with bound `f64::INFINITY`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .zip(self.counts.iter())
            .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
            .collect();
        out.push((
            f64::INFINITY,
            self.counts[self.bounds.len()].load(Ordering::Relaxed),
        ));
        out
    }
}

fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Shared quantile estimator over captured `(upper bound, count)` buckets
/// (the last entry's bound is `f64::INFINITY` for the overflow bucket):
/// linear interpolation within the containing bucket, clamped to the
/// observed `[min, max]`.
fn quantile_from_buckets(buckets: &[(f64, u64)], total: u64, min: f64, max: f64, p: f64) -> f64 {
    let rank = ((p / 100.0) * total as f64).ceil().clamp(1.0, total as f64);
    let mut cum = 0u64;
    for (i, &(bound, c)) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if (next as f64) >= rank {
            let lo = if i == 0 {
                min.min(0.0)
            } else {
                buckets[i - 1].0
            };
            let hi = if bound.is_finite() { bound } else { max };
            let frac = (rank - cum as f64) / c as f64;
            return (lo + (hi - lo) * frac).clamp(min, max);
        }
        cum = next;
    }
    max
}

/// Point-in-time summary of a [`Histogram`], carrying its bucket counts so
/// arbitrary quantiles can still be estimated after the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// `(upper bound, count)` pairs captured at snapshot time; the last
    /// entry is the overflow bucket with bound `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Estimates the `p`-th percentile (0..=100) by linear interpolation
    /// within the snapshot's buckets. Returns `None` with no observations.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(quantile_from_buckets(
            &self.buckets,
            self.count,
            self.min,
            self.max,
            p,
        ))
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Shared, cheaply clonable registry of named metrics.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = read(&self.inner.counters).len();
        let g = read(&self.inner.gauges).len();
        let h = read(&self.inner.histograms).len();
        write!(
            f,
            "MetricsRegistry {{ counters: {c}, gauges: {g}, histograms: {h} }}"
        )
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating if needed) a counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = read(&self.inner.counters).get(name) {
            return c.clone();
        }
        write(&self.inner.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adds `n` to the counter `name`, a literal: a name that varies (per
    /// phone, say) resolves its [`Counter`] once with
    /// [`MetricsRegistry::counter`] instead of being formatted per write.
    pub fn add(&self, name: &'static str, n: u64) {
        self.counter(name).add(n);
    }

    /// Adds one to the counter `name` (a literal, as for
    /// [`MetricsRegistry::add`]).
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        read(&self.inner.counters).get(name).map_or(0, Counter::get)
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        if let Some(g) = read(&self.inner.gauges).get(name) {
            g.store(v.to_bits(), Ordering::Relaxed);
            return;
        }
        write(&self.inner.gauges)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        read(&self.inner.gauges)
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// Resolves (creating with [`Histogram::default_buckets`] if needed) the
    /// histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = read(&self.inner.histograms).get(name) {
            return h.clone();
        }
        write(&self.inner.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::default_buckets()))
            .clone()
    }

    /// Records one observation into histogram `name`, a literal: a name
    /// that varies resolves its [`Histogram`] once with
    /// [`MetricsRegistry::histogram`].
    pub fn observe(&self, name: &'static str, v: f64) {
        self.histogram(name).record(v);
    }

    /// All counters whose name starts with `prefix`, sorted by name.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        read(&self.inner.counters)
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Point-in-time snapshot of everything, sorted by name.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: read(&self.inner.counters)
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: read(&self.inner.gauges)
                .iter()
                .map(|(k, g)| (k.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
                .collect(),
            histograms: read(&self.inner.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// Snapshot of a [`MetricsRegistry`], ready for rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// (name, value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// (name, summary), sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsReport {
    /// Whether the report contains no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders an aligned plain-text table (the end-of-run report).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<width$}  {v:.3}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let width = self
                .histograms
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, s) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<width$}  n={} mean={:.3} min={:.3} p50={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3}\n",
                    s.count, s.mean, s.min, s.p50, s.p90, s.p95, s.p99, s.max
                ));
            }
        }
        out
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push_str(":{\"count\":");
            out.push_str(&s.count.to_string());
            for (label, v) in [
                ("sum", s.sum),
                ("min", s.min),
                ("max", s.max),
                ("mean", s.mean),
                ("p50", s.p50),
                ("p90", s.p90),
                ("p95", s.p95),
                ("p99", s.p99),
            ] {
                out.push_str(&format!(",\"{label}\":"));
                json::write_f64(&mut out, v);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate_and_share() {
        let m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        let handle = m.counter("a");
        handle.inc();
        assert_eq!(m.counter_value("a"), 6);
        assert_eq!(m.counter_value("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge_value("g"), None);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", -2.25);
        assert_eq!(m.gauge_value("g"), Some(-2.25));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        // Satellite test: bucket boundary behaviour. Bounds 1, 2, 4:
        // values <= 1 land in bucket 0, (1, 2] in bucket 1, (2, 4] in
        // bucket 2, > 4 in the overflow bucket.
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 2.1, 4.0, 4.1, 100.0] {
            h.record(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 2)); // 0.5, 1.0
        assert_eq!(buckets[1], (2.0, 2)); // 1.5, 2.0
        assert_eq!(buckets[2], (4.0, 2)); // 2.1, 4.0
        assert_eq!(buckets[3].1, 2); // 4.1, 100.0
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn percentile_summaries_bracket_the_data() {
        // Satellite test: percentile summaries. 1..=1000 uniformly into
        // power-of-two buckets: the interpolated estimates must stay within
        // one bucket of the exact percentiles.
        let h = Histogram::default_buckets();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // Exact p50 = 500, containing bucket (262.144, 524.288].
        assert!(s.p50 > 262.1 && s.p50 <= 524.3, "p50={}", s.p50);
        // Exact p95 = 950, containing bucket (524.288, ...], capped at max.
        assert!(s.p95 > 524.2 && s.p95 <= 1000.0, "p95={}", s.p95);
        assert!(s.p99 >= s.p95, "p99={} p95={}", s.p99, s.p95);
        assert!(s.p99 <= 1000.0);
    }

    #[test]
    fn summary_quantile_helper_matches_the_live_histogram() {
        let h = Histogram::default_buckets();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let s = h.summary();
        // The precomputed fields are exactly what the helper reports.
        assert_eq!(s.quantile(50.0), Some(s.p50));
        assert_eq!(s.quantile(90.0), Some(s.p90));
        assert_eq!(s.quantile(95.0), Some(s.p95));
        assert_eq!(s.quantile(99.0), Some(s.p99));
        // Arbitrary quantiles agree with the live histogram after the
        // snapshot — the buckets travelled with the summary.
        for p in [10.0, 25.0, 75.0, 99.9] {
            assert_eq!(s.quantile(p), h.percentile(p), "p{p}");
        }
        // Monotone and bracketed by the exact values' buckets.
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p90 > 524.2 && s.p90 <= 1000.0, "p90={}", s.p90);
        // An empty summary estimates nothing.
        let empty = Histogram::default_buckets().summary();
        assert_eq!(empty.quantile(50.0), None);
        assert_eq!(empty.p90, 0.0);
    }

    #[test]
    fn percentile_of_single_value_is_that_value() {
        let h = Histogram::default_buckets();
        h.record(42.0);
        let s = h.summary();
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::default_buckets();
        assert_eq!(h.percentile(50.0), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn concurrent_counting_loses_nothing() {
        let m = MetricsRegistry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        m.inc("hits");
                        m.observe("lat", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter_value("hits"), 8000);
        assert_eq!(m.histogram("lat").count(), 8000);
        assert_eq!(m.histogram("lat").sum(), 8000.0);
    }

    #[test]
    fn report_is_sorted_and_renders() {
        let m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("mid", 3.0);
        m.observe("h", 5.0);
        let r = m.report();
        assert_eq!(r.counters[0].0, "a.first");
        assert_eq!(r.counters[1].0, "z.last");
        let text = r.render_text();
        assert!(text.contains("a.first"));
        assert!(text.contains("counters:"));
        assert!(text.contains("histograms:"));
        let parsed = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("a.first")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(parsed.get("histograms").unwrap().get("h").is_some());
    }

    #[test]
    fn counters_with_prefix_filters() {
        let m = MetricsRegistry::new();
        m.add("net.kb.phone-0", 10);
        m.add("net.kb.phone-1", 20);
        m.inc("engine.other");
        let kb = m.counters_with_prefix("net.kb.");
        assert_eq!(kb.len(), 2);
        assert_eq!(kb[0], ("net.kb.phone-0".to_string(), 10));
    }
}
