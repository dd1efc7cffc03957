//! A unified registry of named simulation statistics.
//!
//! Components report through [`StatSource::report`] into a
//! [`StatsRegistry`], which distinguishes three kinds of series:
//!
//! * **counters** — monotonically non-decreasing `u64` event counts
//!   (MACs executed, packets delivered, stall cycles). Diffing two
//!   snapshots subtracts them and asserts monotonicity.
//! * **metrics** — accumulating `f64` quantities (energy in joules).
//!   Diffing subtracts.
//! * **gauges** — instantaneous `f64` levels (cache high-water, link
//!   occupancy). Diffing keeps the newer value.
//! * **histograms** — exact integer sample distributions ([`Histogram`]):
//!   every recorded value is kept as a `value -> count` bucket, so
//!   percentiles are exact (nearest-rank, no interpolation) and merging
//!   two histograms is order-independent down to the bit. Diffing
//!   subtracts bucket-wise and asserts monotonicity, like counters.
//!
//! Keys are dotted paths (`pe3.mac_ops`, `noc.delivered`); the
//! [`ScopedStats`] adapter prefixes everything a component reports so the
//! component itself only names its local series.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An exact sample distribution over `u64` values.
///
/// Samples are stored as a `value -> count` multiset, so no precision is
/// lost to bucketing: [`Histogram::percentile`] returns a value that was
/// actually recorded, and [`Histogram::merge`] is exactly
/// order-independent — merging per-shard histograms in any order yields
/// the same bits as recording every sample into one histogram. That is
/// the property the serving layer's serial-vs-parallel determinism
/// contract rests on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n > 0 {
            *self.buckets.entry(value).or_insert(0) += n;
            self.count += n;
        }
    }

    /// Adds every sample of `other` into `self` (bucket-wise addition —
    /// exact and independent of merge order).
    pub fn merge(&mut self, other: &Histogram) {
        for (&value, &n) in &other.buckets {
            *self.buckets.entry(value).or_insert(0) += n;
        }
        self.count += other.count;
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Largest recorded value, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// Arithmetic mean of the samples, `None` when empty. Accumulated in
    /// ascending value order, so the result is deterministic.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .map(|(&v, &n)| v as f64 * n as f64)
            .sum();
        Some(sum / self.count as f64)
    }

    /// Exact nearest-rank percentile: the smallest recorded value whose
    /// cumulative count reaches `ceil(q * count)` (`q` clamped to
    /// `[0, 1]`; `q = 0` gives the minimum). `None` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&value, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Iterates `(value, count)` buckets in ascending value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &n)| (v, n))
    }

    /// Bucket-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics if any bucket shrank — histogram totals are monotonic by
    /// the same contract as counters.
    #[must_use]
    pub fn diff(&self, earlier: &Histogram, key: &str) -> Histogram {
        let mut out = Histogram::new();
        for (&value, &now) in &self.buckets {
            let before = earlier.buckets.get(&value).copied().unwrap_or(0);
            assert!(
                now >= before,
                "histogram {key} bucket {value} decreased: {before} -> {now} \
                 (histograms are monotonic)"
            );
            out.record_n(value, now - before);
        }
        for (&value, &before) in &earlier.buckets {
            assert!(
                self.buckets.contains_key(&value),
                "histogram {key} bucket {value} decreased: {before} -> 0 \
                 (histograms are monotonic)"
            );
        }
        out
    }

    /// Compact one-line summary (`count/min/mean/p50/p90/p99/max`), used
    /// by dumps and difference reports.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "count=0".to_string();
        }
        format!(
            "count={} min={} mean={:.2} p50={} p90={} p99={} max={}",
            self.count,
            self.min().unwrap(),
            self.mean().unwrap(),
            self.percentile(0.50).unwrap(),
            self.percentile(0.90).unwrap(),
            self.percentile(0.99).unwrap(),
            self.max().unwrap(),
        )
    }

    /// The derived columns exported per histogram, in export order.
    const EXPORT_COLS: [&'static str; 7] = ["count", "min", "mean", "p50", "p90", "p99", "max"];

    /// Values matching [`Histogram::EXPORT_COLS`], rendered for export.
    /// An empty histogram exports `0` everywhere so columns stay aligned.
    fn export_values(&self) -> [String; 7] {
        if self.count == 0 {
            return std::array::from_fn(|_| "0".to_string());
        }
        [
            self.count.to_string(),
            self.min().unwrap().to_string(),
            format!("{:.6}", self.mean().unwrap()),
            self.percentile(0.50).unwrap().to_string(),
            self.percentile(0.90).unwrap().to_string(),
            self.percentile(0.99).unwrap().to_string(),
            self.max().unwrap().to_string(),
        ]
    }
}

/// Quotes a CSV field per RFC 4180 when it contains a comma, quote, CR or
/// LF (internal quotes double); returns it untouched otherwise.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Escapes a string for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A component that can publish its statistics into a registry.
pub trait StatSource {
    /// Writes this component's current totals into `stats`.
    ///
    /// Implementations should report *running totals*, not deltas; the
    /// registry's snapshot/diff machinery derives per-phase numbers.
    fn report(&self, stats: &mut ScopedStats<'_>);
}

/// Named statistics, collected uniformly from every component.
///
/// `BTreeMap`s keep iteration (and therefore export) order deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsRegistry {
    counters: BTreeMap<String, u64>,
    metrics: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects a fresh snapshot from a set of sources.
    ///
    /// Each `(prefix, source)` pair reports under `prefix.`; an empty
    /// prefix reports at top level.
    pub fn collect<'a>(sources: impl IntoIterator<Item = (&'a str, &'a dyn StatSource)>) -> Self {
        let mut reg = StatsRegistry::new();
        for (prefix, source) in sources {
            source.report(&mut reg.scoped(prefix));
        }
        reg
    }

    /// A recording view that prefixes every key with `prefix.`.
    pub fn scoped<'a>(&'a mut self, prefix: &'a str) -> ScopedStats<'a> {
        ScopedStats {
            registry: self,
            prefix,
        }
    }

    /// Value of one counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Value of one metric (0.0 when absent).
    pub fn metric(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
    }

    /// Value of one gauge (0.0 when absent).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// One histogram by key (`None` when absent).
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Sum of every counter whose key ends with `suffix`
    /// (e.g. `.mac_ops` totals the series across all PEs).
    pub fn sum_suffix(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates metrics in key order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.metrics.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// 64-bit FNV-1a fold of every key and value, in key order: counters,
    /// then metrics and gauges (as `f64` bits), then every histogram
    /// bucket. Two registries that differ anywhere differ here, up to
    /// hash collision — one number to pin a whole run's statistics by.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for (k, v) in &self.counters {
            fold(k.as_bytes());
            fold(&v.to_le_bytes());
        }
        for (k, v) in self.metrics.iter().chain(&self.gauges) {
            fold(k.as_bytes());
            fold(&v.to_bits().to_le_bytes());
        }
        for (k, hist) in &self.histograms {
            fold(k.as_bytes());
            for (value, count) in hist.buckets() {
                fold(&value.to_le_bytes());
                fold(&count.to_le_bytes());
            }
        }
        h
    }

    /// Per-phase difference `self - earlier`.
    ///
    /// Counters and metrics subtract; gauges keep the value in `self`.
    /// A key absent from `earlier` is treated as 0 there.
    ///
    /// # Panics
    ///
    /// Panics if any counter decreased between the snapshots — counters
    /// are monotonic by contract, so a decrease is a component bug.
    pub fn diff(&self, earlier: &StatsRegistry) -> StatsRegistry {
        let mut out = StatsRegistry::new();
        for (key, &now) in &self.counters {
            let before = earlier.counter(key);
            assert!(
                now >= before,
                "counter {key} decreased: {before} -> {now} (counters are monotonic)"
            );
            out.counters.insert(key.clone(), now - before);
        }
        for (key, &now) in &self.metrics {
            out.metrics.insert(key.clone(), now - earlier.metric(key));
        }
        out.gauges = self.gauges.clone();
        static EMPTY: Histogram = Histogram {
            buckets: BTreeMap::new(),
            count: 0,
        };
        for (key, now) in &self.histograms {
            let before = earlier.histograms.get(key).unwrap_or(&EMPTY);
            out.histograms.insert(key.clone(), now.diff(before, key));
        }
        out
    }

    /// The first series (in deterministic key order: counters, then
    /// metrics, then gauges) on which `self` and `other` disagree,
    /// rendered as a human-readable `key: left vs right` line — the
    /// message differential tests print instead of two full registry
    /// dumps. `None` when the registries are equal.
    pub fn first_difference(&self, other: &StatsRegistry) -> Option<String> {
        fn scan<V: PartialEq + std::fmt::Display>(
            kind: &str,
            a: &BTreeMap<String, V>,
            b: &BTreeMap<String, V>,
        ) -> Option<String> {
            for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
                match (a.get(key), b.get(key)) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => return Some(format!("{kind} {key}: {x} vs {y}")),
                    (Some(x), None) => return Some(format!("{kind} {key}: {x} vs <absent>")),
                    (None, Some(y)) => return Some(format!("{kind} {key}: <absent> vs {y}")),
                    (None, None) => unreachable!(),
                }
            }
            None
        }
        fn scan_hist(
            a: &BTreeMap<String, Histogram>,
            b: &BTreeMap<String, Histogram>,
        ) -> Option<String> {
            for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
                match (a.get(key), b.get(key)) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => {
                        return Some(format!(
                            "histogram {key}: [{}] vs [{}]",
                            x.summary(),
                            y.summary()
                        ))
                    }
                    (Some(x), None) => {
                        return Some(format!("histogram {key}: [{}] vs <absent>", x.summary()))
                    }
                    (None, Some(y)) => {
                        return Some(format!("histogram {key}: <absent> vs [{}]", y.summary()))
                    }
                    (None, None) => unreachable!(),
                }
            }
            None
        }
        scan("counter", &self.counters, &other.counters)
            .or_else(|| scan("metric", &self.metrics, &other.metrics))
            .or_else(|| scan("gauge", &self.gauges, &other.gauges))
            .or_else(|| scan_hist(&self.histograms, &other.histograms))
    }

    /// Renders every series as `key = value` lines, one per series —
    /// the uniform replacement for hand-formatted per-crate debug dumps.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "{k} = {v:.6e}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} = {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "{k} = [{}]", h.summary());
        }
        out
    }

    /// Exports as two-line CSV: a header row of keys and a row of values
    /// — counters first, then metrics, then gauges, then histograms
    /// (each histogram as derived `key.count`/`key.min`/`key.mean`/
    /// `key.p50`/`key.p90`/`key.p99`/`key.max` columns), each in key
    /// order. Header fields containing commas, quotes or newlines are
    /// quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut header = String::new();
        let mut values = String::new();
        let mut sep = "";
        for (k, v) in &self.counters {
            let _ = write!(header, "{sep}{}", csv_field(k));
            let _ = write!(values, "{sep}{v}");
            sep = ",";
        }
        for (k, v) in &self.metrics {
            let _ = write!(header, "{sep}{}", csv_field(k));
            let _ = write!(values, "{sep}{v:.9e}");
            sep = ",";
        }
        for (k, v) in &self.gauges {
            let _ = write!(header, "{sep}{}", csv_field(k));
            let _ = write!(values, "{sep}{v}");
            sep = ",";
        }
        for (k, h) in &self.histograms {
            for (col, val) in Histogram::EXPORT_COLS.iter().zip(h.export_values()) {
                let _ = write!(header, "{sep}{}", csv_field(&format!("{k}.{col}")));
                let _ = write!(values, "{sep}{val}");
                sep = ",";
            }
        }
        format!("{header}\n{values}\n")
    }

    /// Exports as a flat JSON object (keys sorted and escaped, counters
    /// as integers, histograms as derived summary fields).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut sep = "";
        for (k, v) in &self.counters {
            let _ = write!(out, "{sep}\"{}\":{v}", json_escape(k));
            sep = ",";
        }
        for (k, v) in &self.metrics {
            let _ = write!(out, "{sep}\"{}\":{v:e}", json_escape(k));
            sep = ",";
        }
        for (k, v) in &self.gauges {
            let _ = write!(out, "{sep}\"{}\":{v}", json_escape(k));
            sep = ",";
        }
        for (k, h) in &self.histograms {
            for (col, val) in Histogram::EXPORT_COLS.iter().zip(h.export_values()) {
                let _ = write!(out, "{sep}\"{}\":{val}", json_escape(&format!("{k}.{col}")));
                sep = ",";
            }
        }
        out.push('}');
        out
    }
}

/// A view of a [`StatsRegistry`] that prefixes recorded keys.
///
/// Handed to [`StatSource::report`] so components name series locally
/// (`mac_ops`) while the registry stores them globally (`pe3.mac_ops`).
pub struct ScopedStats<'a> {
    registry: &'a mut StatsRegistry,
    prefix: &'a str,
}

impl ScopedStats<'_> {
    fn key(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// Records a monotonic event count.
    pub fn counter(&mut self, name: &str, value: u64) {
        let key = self.key(name);
        self.registry.counters.insert(key, value);
    }

    /// Records an accumulating float quantity (e.g. joules).
    pub fn metric(&mut self, name: &str, value: f64) {
        let key = self.key(name);
        self.registry.metrics.insert(key, value);
    }

    /// Records an instantaneous level (e.g. an occupancy or high-water).
    pub fn gauge(&mut self, name: &str, value: f64) {
        let key = self.key(name);
        self.registry.gauges.insert(key, value);
    }

    /// Records a sample distribution (the component's running multiset —
    /// like counters, totals, not deltas).
    pub fn histogram(&mut self, name: &str, hist: &Histogram) {
        let key = self.key(name);
        self.registry.histograms.insert(key, hist.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        ops: u64,
        energy: f64,
    }

    impl StatSource for Fake {
        fn report(&self, stats: &mut ScopedStats<'_>) {
            stats.counter("ops", self.ops);
            stats.metric("energy_j", self.energy);
            stats.gauge("level", self.ops as f64 / 2.0);
        }
    }

    #[test]
    fn collect_prefixes_and_reads_back() {
        let a = Fake {
            ops: 10,
            energy: 1.5,
        };
        let b = Fake {
            ops: 32,
            energy: 0.5,
        };
        let reg =
            StatsRegistry::collect([("a", &a as &dyn StatSource), ("b", &b as &dyn StatSource)]);
        assert_eq!(reg.counter("a.ops"), 10);
        assert_eq!(reg.counter("b.ops"), 32);
        assert_eq!(reg.sum_suffix(".ops"), 42);
        assert_eq!(reg.metric("a.energy_j"), 1.5);
        assert_eq!(reg.gauge("b.level"), 16.0);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn diff_subtracts_counters_and_metrics_keeps_gauges() {
        let before = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 10,
                energy: 1.0,
            } as &dyn StatSource,
        )]);
        let after = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 25,
                energy: 4.0,
            } as &dyn StatSource,
        )]);
        let delta = after.diff(&before);
        assert_eq!(delta.counter("x.ops"), 15);
        assert!((delta.metric("x.energy_j") - 3.0).abs() < 1e-12);
        // Gauges are instantaneous: the diff carries the newer level.
        assert_eq!(delta.gauge("x.level"), 12.5);
    }

    #[test]
    fn digest_folds_every_key_and_value() {
        // The FNV-1a offset basis: nothing folded.
        assert_eq!(StatsRegistry::new().digest(), 0xcbf2_9ce4_8422_2325);
        let fake = Fake {
            ops: 10,
            energy: 1.5,
        };
        let base = StatsRegistry::collect([("x", &fake as &dyn StatSource)]);
        assert_eq!(base.digest(), base.clone().digest());
        let mut hist = Histogram::new();
        hist.record_n(4, 3);
        let variants = [
            StatsRegistry::collect([("y", &fake as &dyn StatSource)]),
            StatsRegistry::collect([(
                "x",
                &Fake {
                    ops: 11,
                    energy: 1.5,
                } as &dyn StatSource,
            )]),
            StatsRegistry::collect([(
                "x",
                &Fake {
                    ops: 10,
                    energy: 1.5 + f64::EPSILON,
                } as &dyn StatSource,
            )]),
            {
                let mut r = base.clone();
                r.scoped("x").histogram("h", &hist);
                r
            },
        ];
        for v in &variants {
            assert_ne!(v.digest(), base.digest(), "{:?}", v.first_difference(&base));
        }
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn diff_rejects_decreasing_counter() {
        let before = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 10,
                energy: 0.0,
            } as &dyn StatSource,
        )]);
        let after = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 9,
                energy: 0.0,
            } as &dyn StatSource,
        )]);
        let _ = after.diff(&before);
    }

    #[test]
    fn first_difference_pinpoints_the_diverging_series() {
        let a = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 7,
                energy: 2.0,
            } as &dyn StatSource,
        )]);
        assert_eq!(a.first_difference(&a.clone()), None);
        let b = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 9,
                energy: 2.0,
            } as &dyn StatSource,
        )]);
        let diff = a.first_difference(&b).expect("registries differ");
        assert_eq!(diff, "counter x.ops: 7 vs 9");
        let mut c = a.clone();
        c.scoped("y").counter("extra", 1);
        let diff = c.first_difference(&a).expect("extra key differs");
        assert_eq!(diff, "counter y.extra: 1 vs <absent>");
    }

    #[test]
    fn exports_are_deterministic_and_aligned() {
        let reg = StatsRegistry::collect([(
            "x",
            &Fake {
                ops: 7,
                energy: 2.0,
            } as &dyn StatSource,
        )]);
        let csv = reg.to_csv();
        let mut lines = csv.lines();
        let header: Vec<_> = lines.next().unwrap().split(',').collect();
        let values: Vec<_> = lines.next().unwrap().split(',').collect();
        assert_eq!(header.len(), values.len());
        assert_eq!(header[0], "x.ops");
        assert_eq!(values[0], "7");
        let json = reg.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"x.ops\":7"));
        assert!(reg.dump().contains("x.ops = 7"));
    }

    #[test]
    fn histogram_exact_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.percentile(0.0), Some(10));
        assert_eq!(h.percentile(0.50), Some(50));
        assert_eq!(h.percentile(0.90), Some(90));
        assert_eq!(h.percentile(0.99), Some(100));
        assert_eq!(h.percentile(1.0), Some(100));
        assert!((h.mean().unwrap() - 55.0).abs() < 1e-12);
        assert_eq!(Histogram::new().percentile(0.5), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn histogram_merge_is_order_independent_and_exact() {
        let samples: Vec<u64> = (0..257u64).map(|i| (i * 7919) % 101).collect();
        let mut serial = Histogram::new();
        for &s in &samples {
            serial.record(s);
        }
        // Shard the samples three ways and merge the shards in both
        // orders: all three results must be bitwise identical.
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &s) in samples.iter().enumerate() {
            shards[i % 3].record(s);
        }
        let mut fwd = Histogram::new();
        for sh in &shards {
            fwd.merge(sh);
        }
        let mut rev = Histogram::new();
        for sh in shards.iter().rev() {
            rev.merge(sh);
        }
        assert_eq!(serial, fwd);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn histogram_diff_subtracts_and_registry_round_trips() {
        let mut before = StatsRegistry::new();
        let mut h0 = Histogram::new();
        h0.record_n(5, 3);
        before.scoped("serve").histogram("latency", &h0);
        let mut after = StatsRegistry::new();
        let mut h1 = h0.clone();
        h1.record_n(5, 1);
        h1.record(9);
        after.scoped("serve").histogram("latency", &h1);
        let delta = after.diff(&before);
        let d = delta.histogram("serve.latency").expect("diff keeps key");
        assert_eq!(d.count(), 2);
        assert_eq!(d.min(), Some(5));
        assert_eq!(d.max(), Some(9));
        assert!(after.first_difference(&after.clone()).is_none());
        let fd = after.first_difference(&before).expect("histograms differ");
        assert!(fd.starts_with("histogram serve.latency:"), "{fd}");
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn histogram_diff_rejects_shrinking_bucket() {
        let mut big = Histogram::new();
        big.record_n(7, 2);
        let mut small = Histogram::new();
        small.record(7);
        let _ = small.diff(&big, "x");
    }

    #[test]
    fn histogram_export_columns_align_in_csv_and_json() {
        let mut reg = StatsRegistry::new();
        reg.scoped("a").counter("ops", 3);
        let mut h = Histogram::new();
        h.record(4);
        h.record(8);
        reg.scoped("serve").histogram("batch", &h);
        let csv = reg.to_csv();
        let mut lines = csv.lines();
        let header: Vec<_> = lines.next().unwrap().split(',').collect();
        let values: Vec<_> = lines.next().unwrap().split(',').collect();
        assert_eq!(header.len(), values.len());
        assert!(header.contains(&"serve.batch.p50"));
        assert!(header.contains(&"serve.batch.count"));
        let json = reg.to_json();
        assert!(json.contains("\"serve.batch.count\":2"));
        assert!(json.contains("\"serve.batch.max\":8"));
        assert!(reg.dump().contains("serve.batch = [count=2"));
    }

    #[test]
    fn csv_export_quotes_hostile_keys_per_rfc4180() {
        let mut reg = StatsRegistry::new();
        reg.scoped("").counter("model,\"a\"", 1);
        let csv = reg.to_csv();
        let header = csv.lines().next().unwrap();
        assert_eq!(header, "\"model,\"\"a\"\"\"");
        // A well-formed-field key stays unquoted.
        let mut clean = StatsRegistry::new();
        clean.scoped("x").counter("ops", 1);
        assert_eq!(clean.to_csv().lines().next().unwrap(), "x.ops");
    }

    #[test]
    fn json_export_escapes_hostile_keys() {
        let mut reg = StatsRegistry::new();
        reg.scoped("").counter("a\"b\\c\nd", 2);
        let json = reg.to_json();
        assert_eq!(json, "{\"a\\\"b\\\\c\\nd\":2}");
    }
}
