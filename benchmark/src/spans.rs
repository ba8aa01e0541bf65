//! The benchmark's own trace: spans recorded around each call into a
//! layer, kept in memory and written out when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` indexes the span that was open when
/// this one started (the span that caused it).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. A disabled recorder (untraced runs)
/// still runs the closure and measures it, but records nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of whatever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.spans[idx].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        total_ns(&self.spans, name) as f64 / 1e9
    }

    /// Summed self time of every span named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_ns(&self.spans, i))
            .sum::<u64>() as f64
            / 1e9
    }

    /// The trace file: one object per span with its self time, under
    /// the run's identifier.
    pub fn to_json(&self, run_id: &str) -> Json {
        Json::obj([
            ("run", Json::str(run_id)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj([
                                ("id", Json::Num(i as f64)),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("self_ns", Json::Num(self_ns(&self.spans, i) as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("build", 0, 100, None),       // 0
            span("place", 10, 20, Some(0)),    // 1: sibling
            span("route", 20, 50, Some(0)),    // 2: sibling, has a child
            span("minimize", 25, 45, Some(2)), // 3: nested (grandchild of 0)
            span("load", 60, 90, Some(0)),     // 4: sibling
        ];
        // build: 100 - (10 + 30 + 30); the grandchild is route's, not build's.
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 20);
        assert_eq!(self_ns(&spans, 1), 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // runs past the parent
        ];
        // covered = [110,170) + [190,200) = 70
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut sp = Spans::new(true);
        sp.time("outer", |sp| {
            sp.time("inner", |_| ());
            sp.time("inner", |_| ());
        });
        sp.time("after", |_| ());
        let names: Vec<_> = sp.all().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("after", None)
            ]
        );
        assert!(sp.total_s("outer") >= sp.total_s("inner"));
        assert!((sp.self_s("outer") - (sp.total_s("outer") - sp.total_s("inner"))).abs() < 1e-9);
        let j = sp.to_json("w-1-1");
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut sp = Spans::new(false);
        let (v, s) = sp.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(sp.all().is_empty());
    }
}
