//! The preregistered metrics registry and its Prometheus-style renderer.
//!
//! All families are declared up front ([`RegistryBuilder`]) before the
//! shard threads start: registration hands back one handle per shard, the
//! worker owns its handle, and nothing is ever looked up by name on the
//! hot path — recording is a relaxed atomic bump through the handle.
//! Reading ([`Registry::render`], [`Registry::total`]) merges across
//! shards on demand.
//!
//! Exposition is Prometheus text format: `# HELP`/`# TYPE` headers, one
//! `family{shard="i"} value` sample per shard, and one unlabeled
//! aggregate sample (the cross-shard sum). Histogram families render as
//! a merged summary (`{quantile="0.5"}`, `{quantile="0.99"}`, `_sum`,
//! `_count`). Families render in registration order and shards in index
//! order, so the text is deterministic; the unlabeled aggregate lines
//! are additionally *shard-count-invariant* under a fixed workload —
//! the property the determinism tests pin.

use crate::handles::{Counter, Gauge, SharedHistogram};
use metrics::Histogram;

enum FamilyKind {
    Counters(Vec<Counter>),
    Gauges(Vec<Gauge>),
    Histograms(Vec<SharedHistogram>),
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: FamilyKind,
}

/// Declares metric families before the workers exist.
pub struct RegistryBuilder {
    shards: usize,
    families: Vec<Family>,
}

impl RegistryBuilder {
    /// A builder for a service with `shards` shard workers.
    pub fn new(shards: usize) -> RegistryBuilder {
        RegistryBuilder {
            shards,
            families: Vec::new(),
        }
    }

    /// Register a counter family; returns one handle per shard.
    pub fn counters(&mut self, name: &'static str, help: &'static str) -> Vec<Counter> {
        let handles: Vec<Counter> = (0..self.shards).map(|_| Counter::new()).collect();
        self.families.push(Family {
            name,
            help,
            kind: FamilyKind::Counters(handles.clone()),
        });
        handles
    }

    /// Register a gauge family; returns one handle per shard.
    pub fn gauges(&mut self, name: &'static str, help: &'static str) -> Vec<Gauge> {
        let handles: Vec<Gauge> = (0..self.shards).map(|_| Gauge::new()).collect();
        self.families.push(Family {
            name,
            help,
            kind: FamilyKind::Gauges(handles.clone()),
        });
        handles
    }

    /// Register a histogram family; returns one handle per shard.
    pub fn histograms(&mut self, name: &'static str, help: &'static str) -> Vec<SharedHistogram> {
        let handles: Vec<SharedHistogram> =
            (0..self.shards).map(|_| SharedHistogram::new()).collect();
        self.families.push(Family {
            name,
            help,
            kind: FamilyKind::Histograms(handles.clone()),
        });
        handles
    }

    /// Freeze the registry. Handles stay live — the registry reads the
    /// same atomics the workers write.
    pub fn build(self) -> Registry {
        Registry {
            shards: self.shards,
            families: self.families,
        }
    }
}

/// The read side: merges per-shard cells and renders exposition text.
pub struct Registry {
    shards: usize,
    families: Vec<Family>,
}

impl Registry {
    fn family(&self, name: &str) -> Option<&FamilyKind> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.kind)
    }

    /// How many shards every family holds one cell for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The cross-shard sum of a counter or gauge family (`None` for
    /// unknown names and for histogram families).
    pub fn total(&self, name: &str) -> Option<u64> {
        match self.family(name)? {
            FamilyKind::Counters(hs) => Some(hs.iter().map(Counter::get).sum()),
            FamilyKind::Gauges(hs) => Some(hs.iter().map(Gauge::get).sum()),
            FamilyKind::Histograms(_) => None,
        }
    }

    /// One shard's cell of a counter or gauge family (`None` for unknown
    /// names, histogram families and shards out of range).
    pub fn shard_value(&self, name: &str, shard: usize) -> Option<u64> {
        match self.family(name)? {
            FamilyKind::Counters(hs) => hs.get(shard).map(Counter::get),
            FamilyKind::Gauges(hs) => hs.get(shard).map(Gauge::get),
            FamilyKind::Histograms(_) => None,
        }
    }

    /// A handle on one shard's cell of a counter family (`None` for other
    /// names and shards out of range), for a recorder that is not a
    /// shard worker and so got no handle at registration.
    pub fn counter(&self, name: &str, shard: usize) -> Option<Counter> {
        match self.family(name)? {
            FamilyKind::Counters(hs) => hs.get(shard).cloned(),
            _ => None,
        }
    }

    /// The merged snapshot of a histogram family (`None` otherwise).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.family(name)? {
            FamilyKind::Histograms(hs) => {
                let mut merged = Histogram::new();
                for h in hs {
                    merged.merge(&h.snapshot());
                }
                Some(merged)
            }
            _ => None,
        }
    }

    /// One shard's snapshot of a histogram family (`None` for other
    /// names and shards out of range).
    pub fn shard_histogram(&self, name: &str, shard: usize) -> Option<Histogram> {
        match self.family(name)? {
            FamilyKind::Histograms(hs) => hs.get(shard).map(SharedHistogram::snapshot),
            _ => None,
        }
    }

    /// Render the whole registry as Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            match &f.kind {
                FamilyKind::Counters(hs) => {
                    out.push_str(&format!("# TYPE {} counter\n", f.name));
                    for (i, h) in hs.iter().enumerate() {
                        out.push_str(&format!("{}{{shard=\"{}\"}} {}\n", f.name, i, h.get()));
                    }
                    let total: u64 = hs.iter().map(Counter::get).sum();
                    out.push_str(&format!("{} {}\n", f.name, total));
                }
                FamilyKind::Gauges(hs) => {
                    out.push_str(&format!("# TYPE {} gauge\n", f.name));
                    for (i, h) in hs.iter().enumerate() {
                        out.push_str(&format!("{}{{shard=\"{}\"}} {}\n", f.name, i, h.get()));
                    }
                    let total: u64 = hs.iter().map(Gauge::get).sum();
                    out.push_str(&format!("{} {}\n", f.name, total));
                }
                FamilyKind::Histograms(hs) => {
                    out.push_str(&format!("# TYPE {} summary\n", f.name));
                    let mut merged = Histogram::new();
                    for h in hs {
                        merged.merge(&h.snapshot());
                    }
                    out.push_str(&format!(
                        "{}{{quantile=\"0.5\"}} {}\n",
                        f.name,
                        merged.p50()
                    ));
                    out.push_str(&format!(
                        "{}{{quantile=\"0.99\"}} {}\n",
                        f.name,
                        merged.p99()
                    ));
                    out.push_str(&format!(
                        "{}_sum {}\n",
                        f.name,
                        merged.mean() * merged.count() as f64
                    ));
                    out.push_str(&format!("{}_count {}\n", f.name, merged.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> (Registry, Vec<Counter>, Vec<Gauge>, Vec<SharedHistogram>) {
        let mut b = RegistryBuilder::new(2);
        let c = b.counters("cr_steps_total", "Steps executed");
        let g = b.gauges("cr_sessions_live", "Open sessions");
        let h = b.histograms("cr_step_latency_ns", "Per-step latency");
        (b.build(), c, g, h)
    }

    #[test]
    fn totals_merge_across_shards() {
        let (reg, c, g, h) = sample_registry();
        c[0].add(3);
        c[1].add(4);
        g[0].add(2);
        h[1].record(1000);
        assert_eq!(reg.total("cr_steps_total"), Some(7));
        assert_eq!(reg.total("cr_sessions_live"), Some(2));
        assert_eq!(reg.total("cr_step_latency_ns"), None, "not a scalar");
        assert_eq!(reg.total("nope"), None);
        assert_eq!(reg.histogram("cr_step_latency_ns").unwrap().count(), 1);
        assert!(reg.histogram("cr_steps_total").is_none());
    }

    #[test]
    fn per_shard_reads_see_each_shards_cell() {
        let (reg, c, g, h) = sample_registry();
        c[0].add(3);
        c[1].add(4);
        g[1].add(2);
        h[1].record(1000);
        h[1].record(3000);
        assert_eq!(reg.shards(), 2);
        assert_eq!(reg.shard_value("cr_steps_total", 0), Some(3));
        assert_eq!(reg.shard_value("cr_steps_total", 1), Some(4));
        assert_eq!(reg.shard_value("cr_sessions_live", 0), Some(0));
        assert_eq!(reg.shard_value("cr_sessions_live", 1), Some(2));
        assert_eq!(reg.shard_value("cr_steps_total", 2), None, "no shard 2");
        assert_eq!(
            reg.shard_value("cr_step_latency_ns", 0),
            None,
            "not a scalar"
        );
        assert_eq!(reg.shard_value("nope", 0), None);
        assert_eq!(
            reg.shard_histogram("cr_step_latency_ns", 0)
                .unwrap()
                .count(),
            0
        );
        let one = reg.shard_histogram("cr_step_latency_ns", 1).unwrap();
        assert_eq!(one.count(), 2);
        assert_eq!(
            one.p99(),
            reg.histogram("cr_step_latency_ns").unwrap().p99()
        );
        assert!(reg.shard_histogram("cr_step_latency_ns", 2).is_none());
        assert!(reg.shard_histogram("cr_steps_total", 0).is_none());
    }

    #[test]
    fn a_looked_up_counter_records_into_the_registry() {
        let (reg, _c, _g, _h) = sample_registry();
        reg.counter("cr_steps_total", 1).unwrap().add(5);
        assert_eq!(reg.shard_value("cr_steps_total", 1), Some(5));
        assert_eq!(reg.total("cr_steps_total"), Some(5));
        assert!(reg.counter("cr_steps_total", 2).is_none(), "no shard 2");
        assert!(reg.counter("cr_sessions_live", 0).is_none(), "a gauge");
        assert!(reg.counter("nope", 0).is_none());
    }

    #[test]
    fn render_is_wellformed_exposition_text() {
        let (reg, c, _g, h) = sample_registry();
        c[0].inc();
        h[0].record(500);
        h[1].record(700);
        let text = reg.render();
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with("# ") {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "unbalanced labels: {line}");
                assert!(name[open..].contains('='), "labels are k=\"v\": {line}");
            }
        }
        // The three families appear with headers, per-shard samples, and
        // an unlabeled aggregate.
        assert!(text.contains("# TYPE cr_steps_total counter"));
        assert!(text.contains("cr_steps_total{shard=\"0\"} 1"));
        assert!(text.contains("\ncr_steps_total 1\n"));
        assert!(text.contains("# TYPE cr_sessions_live gauge"));
        assert!(text.contains("# TYPE cr_step_latency_ns summary"));
        assert!(text.contains("cr_step_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("cr_step_latency_ns_count 2"));
    }
}
