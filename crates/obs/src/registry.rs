//! Named instrument registry with hand-written TSV/JSON export.

use crate::{json_escape, Counter, EventRing, Gauge, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A named, get-or-create collection of [`Counter`]s, [`Gauge`]s and
/// [`Histogram`]s plus one shared [`EventRing`].
///
/// Cloning is cheap (`Arc`) and shares every instrument, so a single
/// registry threads through a whole runtime or simulation run: components
/// register their instruments by name at construction and the bench
/// binaries read them back by the same names. The name contract lives in
/// `DESIGN.md` §9.
///
/// Lookup takes a short mutex on a `BTreeMap`; hot paths should call
/// [`Registry::counter`]/[`Registry::histogram`] once and keep the
/// returned handle, which is lock-free to update.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: EventRing,
}

impl Registry {
    /// A registry with the default event-ring capacity.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry whose event ring holds at most `cap` events.
    pub fn with_event_capacity(cap: usize) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: EventRing::with_capacity(cap),
            }),
        }
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.counters.lock();
        m.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.gauges.lock();
        m.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.histograms.lock();
        m.entry(name.to_string()).or_default().clone()
    }

    /// The shared event ring.
    pub fn events(&self) -> EventRing {
        self.inner.events.clone()
    }

    /// Current value of counter `name`, without creating it (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Snapshot of histogram `name`, without creating it.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner
            .histograms
            .lock()
            .get(name)
            .map(Histogram::snapshot)
    }

    /// All counters as sorted `(name, value)` pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All gauges as sorted `(name, value)` pairs.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.inner
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as sorted `(name, snapshot)` pairs.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Exports every instrument as TSV. Counter rows are
    /// `counter \t name \t value`, gauge rows `gauge \t name \t value`;
    /// histogram rows are
    /// `histogram \t name \t count \t sum \t min \t max \t mean \t p50 \t p90 \t p99`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(out, "counter\t{name}\t{v}");
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(out, "gauge\t{name}\t{v}");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "histogram\t{name}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        out
    }

    /// Exports every instrument as one JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    /// sum, min, max, mean, p50, p90, p99}}, "events": {capacity,
    /// recorded, dropped}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        let ev = self.events();
        let _ = write!(
            out,
            "}},\"events\":{{\"capacity\":{},\"recorded\":{},\"dropped\":{}}}}}",
            ev.capacity(),
            ev.recorded(),
            ev.dropped()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_instruments() {
        let r = Registry::new();
        r.counter("a.b").inc();
        r.counter("a.b").inc();
        assert_eq!(r.counter_value("a.b"), 2);
        assert_eq!(r.counter_value("missing"), 0);
        r.histogram("h").record(7);
        assert_eq!(r.histogram_snapshot("h").unwrap().count, 1);
        assert!(r.histogram_snapshot("missing").is_none());
    }

    #[test]
    fn clones_share_everything() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("x").inc();
        r2.events()
            .record(crate::EventKind::TaskCompleted { task: 1 });
        assert_eq!(r2.counter_value("x"), 1);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn exports_are_well_formed() {
        let r = Registry::with_event_capacity(8);
        r.counter("c.one").add(3);
        r.histogram("h.lat_ns").record(1000);
        let tsv = r.to_tsv();
        assert!(tsv.contains("counter\tc.one\t3"));
        assert!(tsv.contains("histogram\th.lat_ns\t1\t1000\t1000\t1000"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c.one\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"capacity\":8"));
    }
}
