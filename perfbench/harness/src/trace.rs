//! Spans and counts recorded in memory around the benchmark's own calls
//! into each layer. The program itself carries no tracing: a span here
//! brackets one call the benchmark makes (`CheckSession::open`, a
//! client send, a framer pass, ...). Spans are written out when the run
//! ends; with tracing off nothing is recorded.

use serde::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` of job `job`; returns its
    /// result and wall time. Spans opened inside `f` get this one as
    /// their parent.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        if !self.on {
            let out = f();
            return (out, start.elapsed());
        }
        let ix = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: start - self.origin,
                end: start - self.origin,
                parent: self.open.borrow().last().copied(),
                job,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(ix);
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[ix].end = end - self.origin;
        (out, end - start)
    }

    /// The recorded spans, plus each span name's total and self time
    /// (its duration minus the part its child spans cover).
    pub fn to_value(&self) -> Value {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
        for (ix, span) in spans.iter().enumerate() {
            let wall = span.end - span.start;
            let entry = totals.entry(span.name).or_default();
            entry.0 += wall.as_secs_f64();
            entry.1 += wall.saturating_sub(child_time[ix]).as_secs_f64();
            entry.2 += 1;
        }
        let list = spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::Str(s.name.to_owned())),
                    ("start_s", Value::Float(s.start.as_secs_f64())),
                    ("end_s", Value::Float(s.end.as_secs_f64())),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("job", Value::UInt(s.job)),
                ])
            })
            .collect();
        let summary = totals
            .into_iter()
            .map(|(name, (total, own, count))| {
                (
                    name.to_owned(),
                    Value::obj(vec![
                        ("total_s", Value::Float(total)),
                        ("self_s", Value::Float(own)),
                        ("count", Value::UInt(count)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("spans", Value::Arr(list)),
            ("summary", Value::Obj(summary)),
        ])
    }
}

/// Per-layer values of one pass (one cold check, one grid pass, one
/// daemon walk), accumulated at the layer boundaries.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn add_time(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64());
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let entry = self.0.entry(name).or_default();
        *entry = entry.max(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Record a check report's engine statistics under the `check` and
/// `decide` layers.
pub fn add_report_stats(layers: &mut Layers, stats: &rela::lang::CheckStats) {
    layers.add("check.classes", stats.classes as f64);
    layers.add("check.graph_decodes", stats.graph_decodes as f64);
    layers.add("check.fecs", stats.fecs as f64);
    layers.add("check.dedup_hits", stats.dedup_hits as f64);
    layers.add("cache.warm_hits", stats.warm_hits as f64);
    layers.max("check.max_class_s", stats.max_class_time.as_secs_f64());
    layers.add_time("decide.lower_s", stats.phases.lower);
    layers.add_time("decide.determinize_s", stats.phases.determinize);
    layers.add_time("decide.equivalent_s", stats.phases.equivalent);
    layers.add_time("decide.witness_s", stats.phases.witness);
    layers.add("decide.fst_memo_hits", stats.fst_memo_hits as f64);
}

/// Turn accumulated sums into the reported ratios.
pub fn finish_ratios(layers: &mut Layers) {
    let fecs = layers.get("check.fecs");
    if fecs > 0.0 {
        layers.set(
            "check.dedup_hit_rate",
            layers.get("check.dedup_hits") / fecs,
        );
    }
    let classes = layers.get("check.classes");
    if classes > 0.0 {
        layers.set(
            "cache.warm_hit_rate",
            layers.get("cache.warm_hits") / classes,
        );
    }
}
