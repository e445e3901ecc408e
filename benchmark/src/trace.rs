//! In-memory spans around the benchmark's calls into the program.
//!
//! Spans are recorded from the benchmark's own files only (probes inside
//! the program are ROADMAP item 1). A span that covers a batch of calls
//! too short to time one by one carries their count in `calls`. A layer's
//! *self time* is its span minus the time its child spans cover.

use crate::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Calls the span covers (1 unless it times a batch).
    pub calls: u64,
}

/// Collects spans; when disabled it still times scopes but records nothing.
pub struct Tracer {
    workload: String,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            workload: workload.to_string(),
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (open spans are unaffected).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name` covering `calls` calls; returns
    /// `f`'s result and the scope's wall time in seconds.
    pub fn scope<R>(
        &mut self,
        name: &str,
        calls: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let recorded = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                calls,
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        if let Some(id) = recorded {
            self.open.pop();
            self.spans[id].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[id].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (result, (end - start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: every span with its self time.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("calls", Json::Num(s.calls as f64)),
                    ("self_ns", Json::Num(self_ns(&self.spans, i) as f64)),
                    ("workload", Json::Str(self.workload.clone())),
                ])
            })
            .collect();
        Json::obj([("workload", Json::Str(self.workload.clone())), ("spans", Json::Arr(spans))])
    }
}

/// Self time of span `index`: its duration minus its direct children's.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let own = spans[index].end_ns - spans[index].start_ns;
    let children: u64 =
        spans.iter().filter(|s| s.parent == Some(index)).map(|s| s.end_ns - s.start_ns).sum();
    own.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, calls: u64) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, calls }
    }

    #[test]
    fn self_time_subtracts_nested_and_batched_children() {
        let spans = vec![
            span("run", 0, 1000, None, 1),
            span("op", 100, 700, Some(0), 1),
            // A batched child: 50 calls in one 200 ns span.
            span("drive:x", 200, 400, Some(1), 50),
            span("drive:y", 450, 650, Some(1), 1),
            span("grandchild", 460, 500, Some(3), 1),
        ];
        assert_eq!(self_ns(&spans, 0), 1000 - 600, "only direct children count");
        assert_eq!(self_ns(&spans, 1), 600 - 200 - 200);
        assert_eq!(self_ns(&spans, 2), 200, "a leaf's self time is its duration");
        assert_eq!(self_ns(&spans, 3), 200 - 40);
    }

    #[test]
    fn scopes_nest_and_record_parents() {
        let mut tr = Tracer::new("w", true);
        let ((), outer) = tr.scope("outer", 1, |tr| {
            tr.scope("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert!(outer >= 0.002);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent, spans[1].calls),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = tr.to_json();
        assert_eq!(doc.get("workload"), Some(&Json::Str("w".into())));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new("w", false);
        let (value, secs) = tr.scope("op", 1, |_| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
