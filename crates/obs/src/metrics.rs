//! A process-local metrics registry with deterministic Prometheus
//! text exposition.
//!
//! Metrics are registered by `(name, sorted label pairs)` and come in
//! three kinds: monotonic [`Counter`]s, free-standing [`Gauge`]s, and
//! log-bucketed [`Histogram`]s with **fixed** bucket boundaries (so the
//! exposition is byte-deterministic for a given sequence of
//! observations). Handles are `Arc`s around atomics — recording is
//! lock-free; only registration and rendering take the registry lock.
//!
//! [`Registry::render`] emits Prometheus text exposition: families
//! sorted by name, series sorted by label values, label values escaped
//! (`\\`, `\"`, `\n`), histograms as cumulative `_bucket{le=...}`
//! series plus `_sum` and `_count`. [`Registry::render_json`] emits the
//! same data as a single JSON object for file dumps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram boundaries: log-spaced 1–2.5–5 per decade, in
/// seconds, from 1ms to 60s. Observations above the last bound land in
/// the implicit `+Inf` bucket.
pub const DURATION_BUCKETS: &[f64] =
    &[0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0];

/// A monotonic counter: only [`inc`](Counter::inc) and
/// [`add`](Counter::add) move it. Clones share one atomic, so the handle
/// a component increments is also the value its snapshots read — the
/// registry is the only store, never a copy refreshed at render time.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    /// Strictly increasing, finite upper bounds; the `+Inf` bucket is
    /// implicit as `counts[bounds.len()]`.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A histogram with fixed bucket boundaries.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| value > b);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // f64 addition via CAS on the bit pattern.
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let mut cumulative = Vec::with_capacity(inner.counts.len());
        let mut acc = 0u64;
        for c in &inner.counts {
            acc += c.load(Ordering::Relaxed);
            cumulative.push(acc);
        }
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            cumulative,
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`]. `cumulative[i]` counts
/// observations `<= bounds[i]`; the final element is the `+Inf` bucket
/// and equals `count`.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub cumulative: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` in `[0, 1]`) the way Prometheus's
    /// `histogram_quantile` does: find the bucket holding rank
    /// `⌈q·total⌉` and interpolate linearly between its bounds (the
    /// first bucket starts at 0). A rank in the `+Inf` bucket reads the
    /// last finite bound; an empty histogram reads 0. `total` is the
    /// `+Inf` cumulative count, not [`count`](Self::count), so one
    /// snapshot stays self-consistent while observations race it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.cumulative.last().copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let b = self.cumulative.partition_point(|&c| c < rank);
        let Some(&upper) = self.bounds.get(b) else {
            return self.bounds.last().copied().unwrap_or(0.0);
        };
        let (lower, below) = match b {
            0 if upper <= 0.0 => return upper,
            0 => (0.0, 0),
            _ => (self.bounds[b - 1], self.cumulative[b - 1]),
        };
        let in_bucket = (self.cumulative[b] - below) as f64;
        // `min`: rounding in `lower + (upper - lower)` must not carry the
        // top rank of a bucket past its bound into the next one.
        (lower + (upper - lower) * ((rank - below) as f64 / in_bucket)).min(upper)
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

type LabelSet = Vec<(String, String)>;

#[derive(Default)]
struct RegistryInner {
    /// name → (series by sorted label set). All series of a family
    /// share one kind, checked at registration.
    families: BTreeMap<String, BTreeMap<LabelSet, Handle>>,
}

/// A clonable registry of metrics. See the module docs.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry").field("families", &inner.families.len()).finish()
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

/// Escape a label value for the Prometheus text format.
fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Format an f64 the way Prometheus expects (`+Inf` for infinity).
fn format_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_series_name(out: &mut String, name: &str, labels: &LabelSet, extra: Option<(&str, &str)>) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value(out, v);
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value(out, v);
            out.push('"');
        }
        out.push('}');
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let key = sorted_labels(labels);
        let mut inner = self.lock();
        let family = inner.families.entry(name.to_string()).or_default();
        if let Some(existing) = family.get(&key) {
            return existing.clone();
        }
        let handle = make();
        if let Some((_, sibling)) = family.iter().next() {
            assert_eq!(
                sibling.kind(),
                handle.kind(),
                "metric family {name} registered with conflicting kinds"
            );
        }
        family.insert(key, handle.clone());
        handle
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Handle::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Handle::Counter(c) => c,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Handle::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Handle::Gauge(g) => g,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}` with the default
    /// [`DURATION_BUCKETS`] boundaries.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, DURATION_BUCKETS)
    }

    /// Get or create a histogram with explicit bucket boundaries
    /// (must be strictly increasing and finite).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be strictly increasing and finite"
        );
        match self.register(name, labels, || {
            Handle::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            })))
        }) {
            Handle::Histogram(h) => h,
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Render the whole registry in Prometheus text-exposition format.
    /// Deterministic: families sorted by name, series by label set.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(1024);
        for (name, family) in &inner.families {
            let kind = match family.values().next() {
                Some(handle) => handle.kind(),
                None => continue,
            };
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for (labels, handle) in family {
                match handle {
                    Handle::Counter(c) => {
                        write_series_name(&mut out, name, labels, None);
                        out.push(' ');
                        out.push_str(&c.get().to_string());
                        out.push('\n');
                    }
                    Handle::Gauge(g) => {
                        write_series_name(&mut out, name, labels, None);
                        out.push(' ');
                        out.push_str(&g.get().to_string());
                        out.push('\n');
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        for (i, bound) in snap.bounds.iter().enumerate() {
                            let bucket = format!("{name}_bucket");
                            write_series_name(
                                &mut out,
                                &bucket,
                                labels,
                                Some(("le", &format_f64(*bound))),
                            );
                            out.push(' ');
                            out.push_str(&snap.cumulative[i].to_string());
                            out.push('\n');
                        }
                        let bucket = format!("{name}_bucket");
                        write_series_name(&mut out, &bucket, labels, Some(("le", "+Inf")));
                        out.push(' ');
                        out.push_str(&snap.count.to_string());
                        out.push('\n');
                        write_series_name(&mut out, &format!("{name}_sum"), labels, None);
                        out.push(' ');
                        out.push_str(&format_f64(snap.sum));
                        out.push('\n');
                        write_series_name(&mut out, &format!("{name}_count"), labels, None);
                        out.push(' ');
                        out.push_str(&snap.count.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Render the registry as one JSON object:
    /// `{"counters":{"name{k=\"v\"}":n,...},"gauges":{...},`
    /// `"histograms":{"name{...}":{"sum":s,"count":n,"buckets":[[le,cum],...]}}}`.
    pub fn render_json(&self) -> String {
        use crate::log::json_escape_into;
        let inner = self.lock();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, family) in &inner.families {
            for (labels, handle) in family {
                let mut series = String::new();
                write_series_name(&mut series, name, labels, None);
                let (buf, value) = match handle {
                    Handle::Counter(c) => (&mut counters, c.get().to_string()),
                    Handle::Gauge(g) => (&mut gauges, g.get().to_string()),
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut v = format!(
                            "{{\"sum\":{},\"count\":{},\"buckets\":[",
                            if snap.sum.is_finite() { snap.sum } else { 0.0 },
                            snap.count
                        );
                        for (i, bound) in snap.bounds.iter().enumerate() {
                            if i > 0 {
                                v.push(',');
                            }
                            v.push_str(&format!("[{},{}]", bound, snap.cumulative[i]));
                        }
                        v.push_str("]}");
                        (&mut histograms, v)
                    }
                };
                if !buf.is_empty() {
                    buf.push(',');
                }
                buf.push('"');
                json_escape_into(buf, &series);
                buf.push_str("\":");
                buf.push_str(&value);
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_and_gauges_render_sorted_and_deduped() {
        let reg = Registry::new();
        let a = reg.counter("jobs_total", &[("outcome", "ok")]);
        let b = reg.counter("jobs_total", &[("outcome", "failed")]);
        let a2 = reg.counter("jobs_total", &[("outcome", "ok")]);
        a.add(3);
        a2.inc();
        b.inc();
        let g = reg.gauge("depth", &[]);
        g.set(7);
        let text = reg.render();
        let expected = "# TYPE depth gauge\n\
                        depth 7\n\
                        # TYPE jobs_total counter\n\
                        jobs_total{outcome=\"failed\"} 1\n\
                        jobs_total{outcome=\"ok\"} 4\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_adds_up() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative, vec![1, 3, 4, 5]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 56.05).abs() < 1e-9, "{}", snap.sum);
        let text = reg.render();
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5\n"), "{text}");
        assert!(text.contains("lat_count 5\n"), "{text}");
    }

    #[test]
    fn boundary_value_lands_in_its_bucket() {
        let reg = Registry::new();
        let h = reg.histogram_with("h", &[], &[1.0, 2.0]);
        h.observe(1.0); // le="1" is inclusive, Prometheus-style
        h.observe(2.0);
        let snap = h.snapshot();
        assert_eq!(snap.cumulative, vec![1, 2, 2]);
    }

    #[test]
    fn quantile_top_rank_reads_its_bucket_bound_despite_rounding() {
        // 0.7 + (3.804 - 0.7) rounds to 3.8040000000000003 in f64.
        let reg = Registry::new();
        let h = reg.histogram_with("h", &[], &[0.7, 3.804]);
        h.observe(1.0);
        assert_eq!(h.snapshot().quantile(1.0), 3.804);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("c", &[("path", "a\\b\"c\nd")]).inc();
        let text = reg.render();
        assert!(text.contains("c{path=\"a\\\\b\\\"c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn label_order_is_normalized() {
        let reg = Registry::new();
        let a = reg.counter("c", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("c", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series regardless of label order");
        assert!(reg.render().contains("c{a=\"1\",b=\"2\"} 2\n"));
    }

    #[test]
    fn render_json_carries_all_kinds() {
        let reg = Registry::new();
        reg.counter("c", &[]).add(2);
        reg.gauge("g", &[("x", "y")]).set(9);
        reg.histogram_with("h", &[], &[1.0]).observe(0.5);
        let json = reg.render_json();
        assert!(json.contains("\"counters\":{\"c\":2}"), "{json}");
        assert!(json.contains("\"g{x=\\\"y\\\"}\":9"), "{json}");
        assert!(json.contains("\"h\":{\"sum\":0.5,\"count\":1,\"buckets\":[[1,1]]}"), "{json}");
    }

    /// Map arbitrary bytes to a label value exercising the escapes.
    fn label_value(bytes: &[u8]) -> String {
        bytes
            .iter()
            .map(|&b| match b % 7 {
                0 => '\\',
                1 => '"',
                2 => '\n',
                3 => 'a',
                4 => 'Z',
                5 => '7',
                _ => ' ',
            })
            .collect()
    }

    /// Undo Prometheus label-value escaping.
    fn unescape(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => out.push('\\'),
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Label escaping round-trips: the rendered series line contains
        // no raw newline inside the quoted value, and unescaping
        // recovers the original value byte-for-byte.
        #[test]
        fn prop_label_escaping_round_trips(bytes in prop::collection::vec(0u8..255, 0..24)) {
            let value = label_value(&bytes);
            let reg = Registry::new();
            reg.counter("m", &[("l", value.as_str())]).inc();
            let text = reg.render();
            let line = text.lines().find(|l| l.starts_with("m{")).unwrap();
            prop_assert!(line.ends_with("} 1"), "{line}");
            let inner = &line["m{l=\"".len()..line.len() - "\"} 1".len()];
            prop_assert!(!inner.contains('\n'));
            prop_assert_eq!(unescape(inner), value);
        }

        // Histogram invariants: cumulative bucket counts are
        // monotonically non-decreasing, the +Inf bucket equals _count,
        // and _sum equals the sum of observations.
        #[test]
        fn prop_histogram_buckets_monotone_and_consistent(
            obs in prop::collection::vec(0.0f64..100.0, 1..64),
        ) {
            let reg = Registry::new();
            let h = reg.histogram_with("h", &[], &[0.5, 1.0, 5.0, 25.0, 80.0]);
            let mut expect_sum = 0.0;
            for &v in &obs {
                h.observe(v);
                expect_sum += v;
            }
            let snap = h.snapshot();
            prop_assert!(snap.cumulative.windows(2).all(|w| w[0] <= w[1]), "{:?}", snap);
            prop_assert_eq!(*snap.cumulative.last().unwrap(), obs.len() as u64);
            prop_assert_eq!(snap.count, obs.len() as u64);
            prop_assert!((snap.sum - expect_sum).abs() < 1e-6 * (1.0 + expect_sum.abs()));

            // And the rendered text agrees with the snapshot.
            let text = reg.render();
            let inf_line = format!("h_bucket{{le=\"+Inf\"}} {}", obs.len());
            let count_line = format!("h_count {}", obs.len());
            prop_assert!(text.contains(&inf_line), "{text}");
            prop_assert!(text.contains(&count_line), "{text}");
        }

        // `quantile` lands in the bucket of the exact nearest-rank
        // sample and is monotone in q; an empty histogram reads 0 and a
        // rank in the +Inf bucket reads the last finite bound.
        #[test]
        fn prop_quantile_lands_in_the_nearest_rank_bucket(
            obs in prop::collection::vec(0.0f64..100.0, 0..64),
        ) {
            let bounds = [0.5, 1.0, 5.0, 25.0, 80.0];
            let reg = Registry::new();
            let h = reg.histogram_with("h", &[], &bounds);
            for &v in &obs {
                h.observe(v);
            }
            let snap = h.snapshot();
            let bucket = |v: f64| bounds.partition_point(|&b| v > b);
            let mut sorted = obs.clone();
            sorted.sort_by(f64::total_cmp);
            let mut previous = 0.0;
            for q in [0.5, 0.95, 0.99] {
                let estimate = snap.quantile(q);
                if sorted.is_empty() {
                    prop_assert_eq!(estimate, 0.0);
                    continue;
                }
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                if bucket(exact) == bounds.len() {
                    prop_assert_eq!(estimate, 80.0, "q={} exact={}", q, exact);
                } else {
                    prop_assert_eq!(
                        bucket(estimate),
                        bucket(exact),
                        "q={} estimate={} exact={}",
                        q,
                        estimate,
                        exact
                    );
                }
                prop_assert!(estimate >= previous, "q={} {} < {}", q, estimate, previous);
                previous = estimate;
            }
        }

        // Rendering is deterministic: two registries fed the same
        // operations produce identical text.
        #[test]
        fn prop_render_is_deterministic(
            ops in prop::collection::vec((0u8..3, 0u8..4, 0u64..1000), 0..32),
        ) {
            let build = || {
                let reg = Registry::new();
                for &(kind, series, value) in &ops {
                    let label = series.to_string();
                    let labels = [("s", label.as_str())];
                    match kind {
                        0 => reg.counter("c", &labels).add(value),
                        1 => reg.gauge("g", &labels).set(value),
                        _ => reg.histogram("h", &labels).observe(value as f64 / 100.0),
                    }
                }
                reg.render()
            };
            prop_assert_eq!(build(), build());
        }
    }
}
