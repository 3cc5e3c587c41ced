//! The metric registry and span guard.
//!
//! A [`Registry`] maps `(name, sorted label set)` keys to shared instrument
//! handles. Lookups take a read lock on the fast path (the instrument already
//! exists) and a write lock only on first registration; recording through a
//! returned handle touches no lock at all. The registry deliberately uses
//! `std::sync::RwLock` rather than `parking_lot` so the telemetry crate stays
//! outside the workspace lock-order analysis surface and has zero
//! dependencies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{default_latency_bounds_ns, Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Sample, Snapshot, Value};

/// A metric identity: name plus a canonically sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Self { name: name.to_string(), labels }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A concurrent registry of named metrics.
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// `Arc`-shared: callers should look a handle up once and keep it, not
/// re-resolve per event. Registering the same `(name, labels)` twice returns
/// the same underlying instrument. Registering a name under a *different*
/// instrument kind never panics — it returns a detached instrument that
/// records into the void, so a naming collision degrades to lost data rather
/// than a crash (telemetry must never take the hot path down).
pub struct Registry {
    metrics: RwLock<HashMap<MetricKey, Metric>>,
    clock: RwLock<Arc<dyn Clock>>,
    clock_epoch: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = read_lock(&self.metrics).len();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// Read-lock helper that survives poisoning: a panicked writer can only have
/// been mid-`insert` on an unrelated key, and lost telemetry beats a
/// propagated panic.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Create an empty registry with a [`MonotonicClock`].
    pub fn new() -> Self {
        Self {
            metrics: RwLock::new(HashMap::new()),
            clock: RwLock::new(Arc::new(MonotonicClock::new())),
            clock_epoch: AtomicU64::new(0),
        }
    }

    /// The process-wide registry that workspace instrumentation records into.
    ///
    /// All `Context`s in a process share it, so the introspection object's
    /// snapshot is a *per-process* view (see DESIGN.md §7).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Replace the clock used by [`span`](Registry::span).
    ///
    /// `netsim` installs its `VirtualClock` here so span durations are
    /// simulated-time deterministic.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *write_lock(&self.clock) = clock;
        self.clock_epoch.fetch_add(1, Ordering::Release);
    }

    /// The currently installed clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        read_lock(&self.clock).clone()
    }

    /// Current time from the installed clock, without cloning it — the
    /// cheap read the trace recorder uses on every span open/close.
    pub fn now_ns(&self) -> u64 {
        read_lock(&self.clock).now_ns()
    }

    /// Bumped on every [`set_clock`](Registry::set_clock); lets per-thread
    /// clock caches detect a swap with one relaxed load instead of taking
    /// the clock read lock on every timestamp.
    pub fn clock_epoch(&self) -> u64 {
        self.clock_epoch.load(Ordering::Acquire)
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        if let Some(Metric::Counter(c)) = read_lock(&self.metrics).get(&key) {
            return c.clone();
        }
        let mut map = write_lock(&self.metrics);
        match map.entry(key).or_insert_with(|| Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c.clone(),
            // Kind collision: hand back a detached instrument, never panic.
            _ => Arc::new(Counter::new()),
        }
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        if let Some(Metric::Gauge(g)) = read_lock(&self.metrics).get(&key) {
            return g.clone();
        }
        let mut map = write_lock(&self.metrics);
        match map.entry(key).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g.clone(),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Get or register the histogram `name{labels}` with the default latency
    /// bounds (see [`default_latency_bounds_ns`]).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_with_bounds(name, labels, &default_latency_bounds_ns())
    }

    /// Get or register the histogram `name{labels}` with explicit bounds.
    ///
    /// Bounds only matter on first registration; later calls return the
    /// existing instrument regardless of the bounds argument.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        if let Some(Metric::Histogram(h)) = read_lock(&self.metrics).get(&key) {
            return h.clone();
        }
        let mut map = write_lock(&self.metrics);
        match map.entry(key).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds)))) {
            Metric::Histogram(h) => h.clone(),
            _ => Arc::new(Histogram::new(bounds)),
        }
    }

    /// Start a span that records its duration into the histogram
    /// `name{labels}` when finished or dropped.
    pub fn span(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        Span::start(self.histogram(name, labels), self.clock())
    }

    /// A point-in-time copy of every registered metric.
    ///
    /// Each instrument is read once; counters and histogram buckets are
    /// internally consistent per instrument (a histogram's count equals the
    /// sum of its snapshotted buckets by construction), while cross-metric
    /// skew is bounded by the duration of the snapshot loop.
    pub fn snapshot(&self) -> Snapshot {
        let map = read_lock(&self.metrics);
        let mut samples: Vec<Sample> = map
            .iter()
            .map(|(key, metric)| Sample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Gauge(g) => Value::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let buckets = h.bucket_counts();
                        let count = buckets.iter().sum();
                        Value::Histogram(HistogramSnapshot {
                            bounds: h.bounds().to_vec(),
                            buckets,
                            sum: h.sum(),
                            count,
                            exemplar: h.exemplar(),
                        })
                    }
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// A drop-guard timing span.
///
/// Created by [`Registry::span`]; observes the elapsed clock time into its
/// histogram exactly once, either at [`finish`](Span::finish) or on drop.
pub struct Span {
    hist: Option<Arc<Histogram>>,
    clock: Arc<dyn Clock>,
    start_ns: u64,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("start_ns", &self.start_ns)
            .field("elapsed_ns", &self.elapsed_ns())
            .finish()
    }
}

impl Span {
    /// Start a span against an explicit histogram and clock.
    pub fn start(hist: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        let start_ns = clock.now_ns();
        Self { hist: Some(hist), clock, start_ns }
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Finish now and return the recorded duration in nanoseconds.
    pub fn finish(mut self) -> u64 {
        let elapsed = self.elapsed_ns();
        if let Some(h) = self.hist.take() {
            h.observe_in_trace(elapsed);
        }
        elapsed
    }

    /// Abandon the span without recording anything.
    pub fn cancel(mut self) {
        self.hist = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.observe_in_trace(self.clock.now_ns().saturating_sub(self.start_ns));
        }
    }
}

/// Global-registry shorthand for [`Registry::counter`].
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    Registry::global().counter(name, labels)
}

/// Global-registry shorthand for [`Registry::gauge`].
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    Registry::global().gauge(name, labels)
}

/// Global-registry shorthand for [`Registry::histogram`].
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    Registry::global().histogram(name, labels)
}

/// Global-registry shorthand for [`Registry::span`].
pub fn span(name: &str, labels: &[(&str, &str)]) -> Span {
    Registry::global().span(name, labels)
}

/// One-shot observation of a duration already measured by the caller
/// (exemplar-linked to the installed trace, like a [`Span`]).
pub fn observe_ns(name: &str, labels: &[(&str, &str)], ns: u64) {
    Registry::global().histogram(name, labels).observe_in_trace(ns);
}

// Counter-bump without holding a handle: cheap enough for cold paths
// (rebinds, tombstone hops) where callers have nowhere to cache the Arc.
/// Global-registry shorthand: bump `name{labels}` by one.
pub fn inc(name: &str, labels: &[(&str, &str)]) {
    Registry::global().counter(name, labels).inc();
}

/// Global-registry shorthand: add `delta` to `name{labels}`.
pub fn add(name: &str, labels: &[(&str, &str)], delta: u64) {
    Registry::global().counter(name, labels).add(delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::thread;

    #[test]
    fn same_key_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("hits", &[("proto", "tcp")]);
        let b = r.counter("hits", &[("proto", "tcp")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        // label order is canonicalized
        let c = r.counter("multi", &[("a", "1"), ("b", "2")]);
        let d = r.counter("multi", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn different_labels_are_distinct() {
        let r = Registry::new();
        let a = r.counter("hits", &[("proto", "tcp")]);
        let b = r.counter("hits", &[("proto", "shm")]);
        a.add(3);
        assert_eq!(b.get(), 0);
        assert_eq!(r.snapshot().counter_total("hits"), 3);
    }

    #[test]
    fn kind_collision_returns_detached_instrument() {
        let r = Registry::new();
        let c = r.counter("thing", &[]);
        c.inc();
        // Same name as a gauge: detached, does not clobber, does not panic.
        let g = r.gauge("thing", &[]);
        g.set(99);
        assert_eq!(r.snapshot().counter("thing", &[]), Some(1));
        assert_eq!(r.snapshot().gauge("thing", &[]), None);
    }

    #[test]
    fn span_with_manual_clock_is_deterministic() {
        let r = Registry::new();
        let clock = Arc::new(ManualClock::new());
        r.set_clock(clock.clone());
        let span = r.span("op_ns", &[("op", "test")]);
        clock.advance(1234);
        assert_eq!(span.finish(), 1234);
        let snap = r.snapshot();
        let h = snap.histogram("op_ns", &[("op", "test")]).expect("histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1234);
    }

    #[test]
    fn span_records_on_drop_and_cancel_suppresses() {
        let r = Registry::new();
        let clock = Arc::new(ManualClock::new());
        r.set_clock(clock.clone());
        {
            let _span = r.span("drop_ns", &[]);
            clock.advance(10);
        }
        r.span("drop_ns", &[]).cancel();
        let snap = r.snapshot();
        let h = snap.histogram("drop_ns", &[]).expect("histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 10);
    }

    #[test]
    fn snapshot_consistent_under_concurrent_writers() {
        let r = Arc::new(Registry::new());
        let hist = r.histogram_with_bounds("load_ns", &[], &[10, 100, 1000]);
        let counter = r.counter("load_total", &[]);
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 5_000;
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let hist = hist.clone();
                let counter = counter.clone();
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        hist.observe((w as u64 * 7 + i) % 2000);
                        counter.inc();
                    }
                })
            })
            .collect();
        // Snapshot while writers are live: count must equal the bucket sum
        // (both derived from the same per-bucket loads), and repeated
        // snapshots must be monotone.
        let mut last_count = 0u64;
        for _ in 0..50 {
            let snap = r.snapshot();
            let h = snap.histogram("load_ns", &[]).expect("histogram");
            assert_eq!(h.count, h.buckets.iter().sum::<u64>());
            assert!(h.count >= last_count);
            last_count = h.count;
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        let snap = r.snapshot();
        let h = snap.histogram("load_ns", &[]).expect("histogram");
        let total = (WRITERS as u64) * PER_WRITER;
        assert_eq!(h.count, total);
        assert_eq!(snap.counter("load_total", &[]), Some(total));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a: *const Registry = Registry::global();
        let b: *const Registry = Registry::global();
        assert_eq!(a, b);
        inc("telemetry_selftest_total", &[]);
        add("telemetry_selftest_total", &[], 2);
        assert!(
            Registry::global().snapshot().counter_total("telemetry_selftest_total") >= 3
        );
    }
}
