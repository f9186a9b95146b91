//! Process-wide metrics registry: counters, gauges, and fixed-bucket
//! log2 histograms, registered by static name and snapshot-able without
//! stopping writers.
//!
//! Design notes:
//! - Handles are `&'static` (leaked on first registration) so hot
//!   paths cache them in `OnceLock`s and bump with one relaxed atomic
//!   op — no map lookup, no lock.
//! - A counter is one cache-line-aligned atomic: it is bumped once per
//!   case, VM run, store append or server operation, never from a hot
//!   loop, so per-thread shards buy nothing.
//! - Histograms bucket values by `64 - leading_zeros`, giving exact
//!   powers of two as bucket bounds. Bucket merge is element-wise
//!   addition, which makes aggregation associative and commutative —
//!   the property the trace analyzer's determinism tests pin down.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotonic counter. One cache line each, so counters that different
/// threads bump at once (a served daemon's connection threads, the
/// driver's case threads) never share a line.
#[repr(align(64))]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed gauge (queue depths, in-flight requests).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, up to bucket 64 which tops out at
/// `u64::MAX`.
pub const BUCKETS: usize = 65;

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket, used as the `le` label in the
/// text exposition.
fn bucket_max(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

fn bucket_of_le(le: u64) -> usize {
    if le == 0 {
        0
    } else {
        64 - le.leading_zeros() as usize
    }
}

/// Fixed-bucket log2 histogram. `observe` is one relaxed `fetch_add`
/// on the bucket plus two on count/sum; cheap enough for per-probe
/// latencies, too hot for per-instruction work (the VM batches).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a histogram. Merging is element-wise
/// addition, so any grouping of partial snapshots folds to the same
/// aggregate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }

    fn saturating_sub(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0.0..=1.0): the
    /// inclusive max of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_max(i);
            }
        }
        bucket_max(BUCKETS - 1)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; tests construct their own to keep assertions
/// independent of whatever else the test process did.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fetch) a counter by name. Registering the same
    /// name twice returns the same handle; a name already bound to a
    /// different metric type panics — that is a programming error.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut m = lock_ignore_poison(&self.metrics);
        match m
            .entry(name)
            .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut m = lock_ignore_poison(&self.metrics);
        match m
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut m = lock_ignore_poison(&self.metrics);
        match m
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Point-in-time copy of every registered metric. Writers keep
    /// writing; relaxed loads mean a snapshot taken mid-burst can be
    /// off by in-flight increments, never torn.
    pub fn snapshot(&self) -> Snapshot {
        let m = lock_ignore_poison(&self.metrics);
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.to_string(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.to_string(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.to_string(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// The process-wide registry used by all instrumented crates.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Point-in-time copy of a registry, renderable as Prometheus-style
/// text exposition and parseable back (the round-trip the CI smoke
/// and the served `METRICS` op rely on).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counters and histograms since `earlier`; gauges keep their
    /// current value (a delta of a level makes no sense).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            if let Some(e) = earlier.counters.get(name) {
                *v = v.saturating_sub(*e);
            }
        }
        for (name, h) in out.histograms.iter_mut() {
            if let Some(e) = earlier.histograms.get(name) {
                *h = h.saturating_sub(e);
            }
        }
        out
    }

    /// Prometheus-style text exposition: `# TYPE` headers, `name
    /// value` samples, histograms as cumulative `_bucket{le="..."}`
    /// plus `_sum`/`_count`. Deterministic (BTreeMap order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cum += b;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_max(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// Parse text produced by [`Snapshot::render`]. Returns `None` on
    /// any malformed line, so the CI smoke catches exposition drift.
    pub fn parse(text: &str) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        let mut kind: BTreeMap<String, String> = BTreeMap::new();
        // Cumulative-bucket accumulator per histogram.
        let mut last_cum: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next()?.to_string();
                let ty = it.next()?.to_string();
                if ty == "histogram" {
                    snap.histograms
                        .insert(name.clone(), HistogramSnapshot::default());
                }
                kind.insert(name, ty);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (sample, value) = line.rsplit_once(' ')?;
            if let Some((name, label)) = sample.split_once("_bucket{le=\"") {
                let le = label.strip_suffix("\"}")?;
                let hist = snap.histograms.get_mut(name)?;
                let cum: u64 = value.parse().ok()?;
                if le == "+Inf" {
                    if cum != hist.count {
                        return None;
                    }
                    continue;
                }
                let prev = last_cum.get(name).copied().unwrap_or(0);
                let in_bucket = cum.checked_sub(prev)?;
                hist.buckets[bucket_of_le(le.parse().ok()?)] = in_bucket;
                hist.count += in_bucket;
                last_cum.insert(name.to_string(), cum);
                continue;
            }
            if let Some(name) = sample.strip_suffix("_sum") {
                if let Some(hist) = snap.histograms.get_mut(name) {
                    hist.sum = value.parse().ok()?;
                    continue;
                }
            }
            if let Some(name) = sample.strip_suffix("_count") {
                if let Some(hist) = snap.histograms.get_mut(name) {
                    if hist.count != value.parse().ok()? {
                        return None;
                    }
                    continue;
                }
            }
            match kind.get(sample).map(String::as_str) {
                Some("counter") => {
                    snap.counters
                        .insert(sample.to_string(), value.parse().ok()?);
                }
                Some("gauge") => {
                    snap.gauges.insert(sample.to_string(), value.parse().ok()?);
                }
                _ => return None,
            }
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_up() {
        let r = Registry::new();
        let c = r.counter("test_counter");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name returns the same handle.
        r.counter("test_counter").inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn counter_is_thread_safe() {
        let r = Registry::new();
        let c = r.counter("mt_counter");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_inc_dec_set() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_clash_panics() {
        let r = Registry::new();
        r.counter("clash");
        r.gauge("clash");
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_max(i)), i, "bucket_max inverts");
            assert_eq!(bucket_of_le(bucket_max(i)), i, "le mapping inverts");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        // p50 of {1,2,3,4,100,1000} lands in the [2,4) bucket.
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(s.quantile(0.0), 1);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut c = HistogramSnapshot::default();
        let mut all = HistogramSnapshot::default();
        // Deterministic pseudo-random values via the shared splitmix64.
        let mut g = crate::rng::Gen::new(0x9e3779b97f4a7c15);
        for i in 0..300 {
            let v = g.next_u64() % 100_000;
            [&mut a, &mut b, &mut c][i % 3].observe(v);
            all.observe(v);
        }
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), all);
    }

    #[test]
    fn snapshot_render_parse_roundtrip() {
        let r = Registry::new();
        r.counter("oraql_test_total").add(7);
        r.gauge("oraql_test_depth").set(-3);
        let h = r.histogram("oraql_test_micros");
        for v in [0u64, 1, 5, 5, 900, 1 << 40] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let text = snap.render();
        let parsed = Snapshot::parse(&text).expect("exposition parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("not a metric line at all, no value").is_none());
        assert!(Snapshot::parse("unregistered_name 5").is_none());
        // Inconsistent +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 2\n";
        assert!(Snapshot::parse(bad).is_none());
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter("d_total");
        let g = r.gauge("d_gauge");
        let h = r.histogram("d_hist");
        c.add(10);
        g.set(4);
        h.observe(100);
        let first = r.snapshot();
        c.add(5);
        g.set(9);
        h.observe(200);
        let d = r.snapshot().delta(&first);
        assert_eq!(d.counters["d_total"], 5);
        assert_eq!(d.gauges["d_gauge"], 9);
        assert_eq!(d.histograms["d_hist"].count, 1);
        assert_eq!(d.histograms["d_hist"].sum, 200);
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("oraql_obs_selftest_total").inc();
        let snap = global().snapshot();
        assert!(snap.counters["oraql_obs_selftest_total"] >= 1);
    }
}
