//! A registry of named metrics with Prometheus-style text exposition, and
//! the one reader of that exposition.
//!
//! Naming convention: `fj_<subsystem>_<metric>`, lowercase, underscores —
//! e.g. `fj_cache_trie_hits`, `fj_sched_tasks_spawned`,
//! `fj_serve_requests_served`. Names are validated at registration
//! (`[a-zA-Z_][a-zA-Z0-9_]*`). A cell is owned by the subsystem that bumps
//! it and **bound** under its name once ([`MetricsRegistry::bind_counter`],
//! [`MetricsRegistry::bind_gauge`]); [`MetricsRegistry::counter`] and its
//! siblings create a cell the registry hands out. Either way a name stands
//! for exactly one cell (registering it again returns the same cell, or
//! panics on another kind or another cell), so a series can never be
//! exported twice with conflicting values.
//!
//! Rendering emits plain `name value` lines sorted by name — no `# TYPE` /
//! `# HELP` comments — which keeps the exposition line-per-series and
//! trivially diffable. Histograms render as cumulative
//! `name_bucket{le="..."}` series plus `name_sum` / `name_count`, the
//! standard Prometheus histogram shape.
//!
//! [`MetricsSnapshot`] is the reader: a series → value map that
//! [`MetricsRegistry::snapshot`] takes in process and
//! [`MetricsSnapshot::parse`] takes from exposition text off the wire —
//! the same map either way, with one [`MetricsSnapshot::delta`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that is set, not accumulated. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below `LINEAR_MAX` get one bucket each; above it, each power of
/// two is split into [`SUBBUCKETS`] linear sub-buckets.
const LINEAR_MAX: u64 = 4;
const SUBBUCKETS: usize = 4;
/// Highest octave tracked: the top bucket's upper bound is ~2^40 (12.7 days
/// of microseconds), far beyond any service time; larger observations
/// saturate into it.
const OCTAVES: usize = 38;
const NUM_BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBBUCKETS;

/// Bucket index of a value (saturating at the top bucket).
fn bucket_of(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let octave = value.ilog2() as usize; // >= 2 because value >= LINEAR_MAX = 4
    let sub = ((value >> (octave - 2)) & 0b11) as usize;
    (LINEAR_MAX as usize + (octave - 2) * SUBBUCKETS + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, reported as the quantile estimate.
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket < LINEAR_MAX as usize {
        return bucket as u64;
    }
    let rest = bucket - LINEAR_MAX as usize;
    let octave = rest / SUBBUCKETS + 2;
    let sub = (rest % SUBBUCKETS) as u64;
    ((SUBBUCKETS as u64 + sub + 1) << (octave - 2)) - 1
}

/// The upper bound of the first bucket whose cumulative count reaches the
/// rank-`ceil(q·total)` observation, over `(upper bound, cumulative count)`
/// pairs in increasing bound order; 0 with no observations.
fn quantile_of(cumulative: impl IntoIterator<Item = (u64, u64)>, total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut last = 0;
    for (bound, count) in cumulative {
        if count >= rank {
            return bound;
        }
        last = bound;
    }
    last
}

#[derive(Debug)]
struct HistogramCore {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket, lock-free histogram — the workspace's one histogram.
/// Buckets are log-linear (4 sub-buckets per power of two, like a
/// 2-significant-bit HDR histogram): recording is one relaxed atomic
/// increment per cell, memory is a fixed ~1.2 KiB regardless of traffic,
/// and any quantile is reproducible from the rendered buckets with <= 25%
/// relative error. Cloning shares the underlying buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as `(inclusive upper bound, cumulative count)`
    /// pairs in increasing bound order.
    fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut running = 0u64;
        self.0.counts.iter().enumerate().filter_map(move |(i, c)| {
            let count = c.load(Ordering::Relaxed);
            running += count;
            (count > 0).then(|| (bucket_upper_bound(i), running))
        })
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q·n)` observation; 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_of(self.cumulative(), self.count(), q)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. See the module docs for the naming scheme
/// and exposition format.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell registered under `name`: `fresh` if the name was free.
    fn register(&self, name: &str, fresh: Metric) -> Metric {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        let mut inner = self.inner.lock().expect("no poisoned metrics registry");
        inner.entry(name.to_string()).or_insert(fresh).clone()
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name, or is already registered
    /// as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Register (or fetch) a gauge. Panics like [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Register (or fetch) a histogram. Panics like
    /// [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Export a counter its subsystem owns under `name`.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already stands for another cell.
    pub fn bind_counter(&self, name: &str, cell: &Counter) {
        match self.register(name, Metric::Counter(cell.clone())) {
            Metric::Counter(c) if Arc::ptr_eq(&c.0, &cell.0) => {}
            _ => panic!("metric {name:?} is already registered to another cell"),
        }
    }

    /// Export a gauge its subsystem owns under `name`. Panics like
    /// [`MetricsRegistry::bind_counter`].
    pub fn bind_gauge(&self, name: &str, cell: &Gauge) {
        match self.register(name, Metric::Gauge(cell.clone())) {
            Metric::Gauge(g) if Arc::ptr_eq(&g.0, &cell.0) => {}
            _ => panic!("metric {name:?} is already registered to another cell"),
        }
    }

    /// Every series with its current value, sorted by metric name — what
    /// both [`MetricsRegistry::render`] and [`MetricsRegistry::snapshot`]
    /// are made of.
    fn for_each_series(&self, mut emit: impl FnMut(&str, u64)) {
        let inner = self.inner.lock().expect("no poisoned metrics registry");
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => emit(name, c.get()),
                Metric::Gauge(g) => emit(name, g.get()),
                Metric::Histogram(h) => {
                    for (bound, cumulative) in h.cumulative() {
                        emit(&format!("{name}_bucket{{le=\"{bound}\"}}"), cumulative);
                    }
                    emit(&format!("{name}_bucket{{le=\"+Inf\"}}"), h.count());
                    emit(&format!("{name}_sum"), h.sum());
                    emit(&format!("{name}_count"), h.count());
                }
            }
        }
    }

    /// Render every registered metric as Prometheus-style text, one series
    /// per line, sorted by metric name (deterministic output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.for_each_series(|series, value| {
            writeln!(out, "{series} {value}").expect("write to string");
        });
        out
    }

    /// Read every series: the map [`MetricsSnapshot::parse`] makes of
    /// [`MetricsRegistry::render`]'s text, without the text.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut series = BTreeMap::new();
        self.for_each_series(|name, value| {
            series.insert(name.to_string(), value);
        });
        MetricsSnapshot(series)
    }
}

/// A point-in-time reading of an exposition: series (name plus labels, as
/// rendered) → value. In-process readers take it from the registry, wire
/// readers parse it from a `Metrics` frame; both read counters by series
/// name and windows through [`MetricsSnapshot::delta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot(BTreeMap<String, u64>);

impl MetricsSnapshot {
    /// Read exposition text: every `series value` line with an unsigned
    /// integer value; comment lines (`#`, the slow-query log) and anything
    /// else are skipped.
    pub fn parse(text: &str) -> Self {
        let lines = text.lines().filter(|line| !line.starts_with('#'));
        MetricsSnapshot(
            lines
                .filter_map(|line| {
                    let (series, value) = line.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// The value of one series; 0 when the exposition does not carry it.
    pub fn get(&self, series: &str) -> u64 {
        self.0.get(series).copied().unwrap_or(0)
    }

    /// Every series name, sorted.
    pub fn series(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// What happened since `earlier`: every series of `self` less its value
    /// then (saturating). Right for counters and histogram series; read a
    /// gauge from the later snapshot itself.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let less = |(series, value): (&String, &u64)| {
            (series.clone(), value.saturating_sub(earlier.get(series)))
        };
        MetricsSnapshot(self.0.iter().map(less).collect())
    }

    /// The `q`-quantile of the histogram family `name` (its `_bucket` and
    /// `_count` series), as [`Histogram::quantile`] reports it.
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(u64, u64)> = (self.0.range(prefix.clone()..))
            .map_while(|(series, &count)| Some((series.strip_prefix(&prefix)?, count)))
            .filter_map(|(le, count)| Some((le.strip_suffix("\"}")?.parse().ok()?, count)))
            .collect();
        buckets.sort_unstable();
        quantile_of(buckets, self.get(&format!("{name}_count")), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("fj_test_ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same cell.
        reg.counter("fj_test_ops").inc();
        assert_eq!(c.get(), 6);
        reg.gauge("fj_test_depth").set(17);
        let text = reg.render();
        assert!(text.contains("fj_test_ops 6\n"));
        assert!(text.contains("fj_test_depth 17\n"));
        // Sorted by name: depth before ops.
        let depth = text.find("fj_test_depth").unwrap();
        let ops = text.find("fj_test_ops").unwrap();
        assert!(depth < ops);
    }

    #[test]
    fn bound_cells_are_the_owners_cells() {
        let reg = MetricsRegistry::new();
        let (hits, resident) = (Counter::default(), Gauge::default());
        hits.add(3);
        reg.bind_counter("fj_test_hits", &hits);
        reg.bind_gauge("fj_test_resident", &resident);
        // Binding the same cell again is a no-op; the owner keeps bumping it.
        reg.bind_counter("fj_test_hits", &hits);
        hits.inc();
        resident.set(9);
        assert_eq!(reg.render(), "fj_test_hits 4\nfj_test_resident 9\n");
    }

    #[test]
    #[should_panic(expected = "another cell")]
    fn a_name_stands_for_one_cell() {
        let reg = MetricsRegistry::new();
        reg.bind_counter("fj_test_hits", &Counter::default());
        reg.bind_counter("fj_test_hits", &Counter::default());
    }

    #[test]
    fn buckets_are_monotone_and_cover_the_range() {
        let mut last = 0;
        for value in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 12345, 1 << 20, u64::MAX] {
            let b = bucket_of(value);
            assert!(b >= last || value < LINEAR_MAX, "bucket index regressed at {value}");
            assert!(b < NUM_BUCKETS);
            assert!(
                bucket_upper_bound(b) >= value.min(bucket_upper_bound(NUM_BUCKETS - 1)),
                "value {value} above its bucket's upper bound"
            );
            last = b;
        }
        // Upper bounds strictly increase bucket to bucket.
        for b in 1..NUM_BUCKETS {
            assert!(bucket_upper_bound(b) > bucket_upper_bound(b - 1));
        }
    }

    #[test]
    fn quantiles_track_known_distributions_within_bucket_error() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for value in 1..=1000u64 {
            h.observe(value);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Log-linear buckets with 4 sub-buckets guarantee <= 25% error.
        assert!((375..=625).contains(&p50), "p50 {p50} outside [375, 625]");
        assert!((742..=1237).contains(&p99), "p99 {p99} outside [742, 1237]");
        assert!(p99 >= p50);
        assert!(h.quantile(1.0) >= p99);
    }

    #[test]
    fn extreme_values_saturate_into_the_top_bucket() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), bucket_upper_bound(NUM_BUCKETS - 1));
    }

    #[test]
    fn histogram_renders_its_non_empty_buckets_cumulatively() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("fj_test_latency");
        for value in [1u64, 1, 10, 10, 100, 5000] {
            h.observe(value);
        }
        assert_eq!((h.count(), h.sum()), (6, 5122));
        let text = reg.render();
        assert!(text.starts_with("fj_test_latency_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("fj_test_latency_bucket{le=\"+Inf\"} 6\n"), "{text}");
        assert!(text.contains("fj_test_latency_sum 5122\n"), "{text}");
        assert!(text.ends_with("fj_test_latency_count 6\n"), "{text}");
        // Non-empty buckets only, cumulative counts never decreasing, +Inf last.
        let buckets: Vec<u64> = (text.lines().filter(|l| l.contains("_bucket")))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets, [2, 4, 5, 6, 6]);
    }

    /// The one reader: a snapshot of the registry is the parse of its text,
    /// a window is one `delta`, and a quantile read back from the rendered
    /// buckets is the live histogram's.
    #[test]
    fn snapshot_reads_the_registry_and_its_text_alike() {
        let reg = MetricsRegistry::new();
        let (ops, depth, latency) =
            (reg.counter("fj_test_ops"), reg.gauge("fj_test_depth"), reg.histogram("fj_test_us"));
        ops.add(5);
        depth.set(7);
        for value in 1..=200u64 {
            latency.observe(value);
        }
        let before = reg.snapshot();
        let text = format!("# slow_query handle=1\n{}fj_info{{v=\"1\"}} 1\nnoise\n", reg.render());
        let parsed = MetricsSnapshot::parse(&text);
        assert_eq!(parsed.get("fj_info{v=\"1\"}"), 1);
        assert!(before.series().all(|s| parsed.get(s) == before.get(s)), "{text}");
        assert_eq!(parsed.series().count(), before.series().count() + 1);
        assert_eq!((before.get("fj_test_ops"), before.get("fj_test_absent")), (5, 0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(before.quantile("fj_test_us", q), latency.quantile(q), "q = {q}");
        }
        assert_eq!(before.quantile("fj_test_ops", 0.5), 0, "not a histogram");

        ops.add(3);
        depth.set(2);
        for _ in 0..100 {
            latency.observe(10_000);
        }
        let window = reg.snapshot().delta(&before);
        assert_eq!(window.get("fj_test_ops"), 3);
        assert_eq!(window.get("fj_test_depth"), 0, "a gauge that fell saturates");
        assert_eq!(window.get("fj_test_us_count"), 100);
        assert!(window.quantile("fj_test_us", 0.5) >= 10_000, "the window saw only slow ones");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("fj_test_x");
        reg.gauge("fj_test_x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("9starts-with-digit");
    }

    #[test]
    fn updates_are_shared_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("fj_test_parallel");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
