//! Spans recorded by the harness around its own calls into each layer.
//!
//! Tracing lives entirely in the benchmark's files: the deterministic
//! crates hold no host clocks (the source lint forbids them), so a span
//! is opened and closed *around* a call to a layer's public function.
//! Spans stay in memory and are written once, when the run ends.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one batch share its index; probes use `u64::MAX`.
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, batch: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        (
                            "batch",
                            if s.batch == PROBE_BATCH {
                                Json::Null
                            } else {
                                Json::Num(s.batch as f64)
                            },
                        ),
                        ("self_ns", Json::Num(self_ns[id] as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Batch id of spans that belong to no timed batch (the layer probes).
pub const PROBE_BATCH: u64 = u64::MAX;

/// Every span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once, a
/// child leaking past its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (a, b) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut kids)
        .map(|(me, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = me.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            me.duration_ns() - covered
        })
        .collect()
}

/// What a workload's batch records through: off in the timed end-to-end
/// run (calls go straight through), on in the traced run (each call
/// becomes a child span of the batch's span).
pub struct Tracer<'a> {
    sink: Option<(&'a mut Trace, SpanId, u64)>,
}

impl<'a> Tracer<'a> {
    pub fn off() -> Tracer<'static> {
        Tracer { sink: None }
    }

    pub fn on(trace: &'a mut Trace, parent: SpanId, batch: u64) -> Tracer<'a> {
        Tracer {
            sink: Some((trace, parent, batch)),
        }
    }

    /// Runs `f`, as a span named `name` when tracing is on.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.sink {
            None => f(),
            Some((trace, parent, batch)) => {
                let id = trace.open(name, Some(*parent), *batch);
                let out = f();
                trace.close(id);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    /// Self time is duration minus child coverage; overlapping children
    /// count once, grandchildren not at all, and a child leaking past
    /// its parent is clipped.
    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),     // 0: parent
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 → union [10, 50)
            span(60, 70, Some(0)),  // 3
            span(22, 28, Some(2)),  // 4: grandchild
            span(90, 120, Some(0)), // 5: clipped to [90, 100)
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
        assert_eq!(selfs[2], 30 - 6);
        assert_eq!(selfs[4], 6);
        assert_eq!(selfs[1], 20);
    }

    #[test]
    fn tracer_records_children_under_the_batch_span() {
        let mut trace = Trace::new();
        let batch = trace.open("batch", None, 7);
        let got = Tracer::on(&mut trace, batch, 7).call("layer.call", || 5);
        trace.close(batch);
        assert_eq!(got, 5);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(batch));
        assert_eq!(trace.spans[1].batch, 7);
        assert!(self_times(&trace.spans)[batch] <= trace.spans[batch].duration_ns());
        assert_eq!(Tracer::off().call("x", || 9), 9);
    }
}
