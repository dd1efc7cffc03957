//! Spans around the calls into each layer, kept in memory until the run
//! ends. The program under test is not touched: every span opens and
//! closes in `entry.rs`, around one public call.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of the run a span belongs to. With `iter` it is the
/// identifier the spans of one set-up pass or one rep share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Setup,
    Rep,
    /// Measurements a traced run makes once, outside any rep.
    Extra,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    pub iter: u32,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    iter: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            phase: Phase::Setup,
            iter: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off and names the pass or rep that the
    /// following spans belong to.
    pub fn begin(&mut self, on: bool, phase: Phase, iter: u32) {
        assert!(self.open.is_empty(), "a pass starts with no span open");
        self.on = on;
        self.phase = phase;
        self.iter = iter;
    }

    /// Runs `f` inside a span called `name`. With recording off this is
    /// one branch and the call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            phase: self.phase,
            iter: self.iter,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds of self time per span name in each pass of `phase`: a
    /// span's duration minus the part its child spans cover, summed
    /// over the spans of that name, one entry per `iter`.
    pub fn self_seconds(&self, phase: Phase) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_iter: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(&covered) {
            if s.phase == phase {
                *per_iter.entry((s.name, s.iter)).or_default() +=
                    (s.end_ns - s.start_ns).saturating_sub(*child_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_iter {
            out.entry(name).or_default().push(ns as f64 / 1e9);
        }
        out
    }

    /// The spans as written at exit: one array per span, in start
    /// order, `[name, phase, iter, parent index or null, start ns, end ns]`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Arr(vec![
                        Value::str(s.name),
                        Value::str(format!("{:?}", s.phase).to_lowercase()),
                        Value::Num(f64::from(s.iter)),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        Value::Num(s.start_ns as f64),
                        Value::Num(s.end_ns as f64),
                    ])
                })
                .collect(),
        )
    }
}
