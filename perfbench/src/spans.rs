//! In-memory span recorder for the traced run.
//!
//! Every timed call in the harness goes through [`Spans::time`], which
//! always returns the call's duration (the untraced run needs it for
//! the end-to-end metrics) and, only when tracing is on, also records a
//! span: name, start, end, parent and an item count, so per-item costs
//! (µs per record, ns per cycle) come from one span around a batch of
//! calls instead of a clock read per call. Spans stay in memory and are
//! written to one file when the run ends, together with each name's
//! self time (its spans' durations minus what their direct children
//! cover).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use piton_obs::json::{ObjectBuilder, Value};

/// One recorded span; times are offsets from the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Items the span covered (cycles, points, frames, …).
    pub items: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its output and duration; records a span
    /// named `name` covering `items` items when tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        items: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start: start - self.origin,
                end: start - self.origin,
                parent: self.open.last().copied(),
                items,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].end = end - self.origin;
        }
        (out, end - start)
    }

    /// The recorded spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds and total items of the spans named `name`.
    pub fn totals(&self, name: &str) -> (f64, u64) {
        self.named(name).fold((0.0, 0), |(t, n), s| {
            (t + s.duration().as_secs_f64(), n + s.items)
        })
    }

    /// Seconds per item over every span named `name` (0 without items).
    pub fn per_item_s(&self, name: &str) -> f64 {
        let (t, n) = self.totals(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// Durations in seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Self seconds per span name: each span's duration minus the time
    /// its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.duration().saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, run_id: &str) -> String {
        let ns = |d: Duration| Value::Int(d.as_nanos() as i128);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                ObjectBuilder::new()
                    .field("name", Value::Str(s.name.to_owned()))
                    .field("start_ns", ns(s.start))
                    .field("end_ns", ns(s.end))
                    .field(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                    )
                    .field("items", Value::Int(i128::from(s.items)))
                    .build()
            })
            .collect();
        let self_s = self
            .self_times()
            .into_iter()
            .fold(ObjectBuilder::new(), |b, (k, v)| {
                b.field(k, Value::Float(v))
            });
        ObjectBuilder::new()
            .field("run_id", Value::Str(run_id.to_owned()))
            .field("self_s", self_s.build())
            .field("spans", Value::Array(spans))
            .build()
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut s = Spans::new(true);
        s.time("outer", 1, |s| {
            s.time("inner", 10, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        assert_eq!(s.named("inner").next().unwrap().parent, Some(0));
        let st = s.self_times();
        assert!(st["inner"] >= 0.002);
        assert!(st["outer"] < st["inner"]);
        assert_eq!(s.totals("inner").1, 10);
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let ((), d) = s.time("x", 1, |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert_eq!(s.named("x").count(), 0);
    }
}
