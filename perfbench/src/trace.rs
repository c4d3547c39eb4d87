//! Benchmark-side span recorder: spans are taken around the calls into
//! each engine layer, kept in memory, and written out when the run ends.

use crate::json::Json;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer entry point, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, same clock.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Statement identifier shared by all spans of one statement.
    pub stmt: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    /// Time `f` as a span named `name`, child of whatever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: 0.0, end: 0.0, parent, stmt });
        self.open.push(id);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].start = start;
        self.spans[id].end = end;
        out
    }

    /// Record an interval measured elsewhere (tests, replayed timings).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in start order of creation.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s.end.min(parent.end) - s.start.max(parent.start);
                own[p] -= covered.max(0.0);
            }
        }
        own
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
    }

    /// The trace as JSON, one object per span, times in microseconds.
    /// An iterator, so that a hundred thousand spans are written out one
    /// at a time instead of being built into one tree first.
    pub fn to_json(&self) -> impl Iterator<Item = Json> + '_ {
        self.spans.iter().zip(self.self_times()).enumerate().map(|(id, (s, own))| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("stmt", Json::Num(s.stmt as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("start_us", Json::Num(s.start * 1e6)),
                ("end_us", Json::Num(s.end * 1e6)),
                ("self_us", Json::Num(own * 1e6)),
            ])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, stmt: 7 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::default();
        let root = r.push(sp("stmt", 0.0, 10.0, None));
        let exec = r.push(sp("exec.execute", 1.0, 7.0, Some(root)));
        r.push(sp("sql.parse", 0.0, 1.0, Some(root)));
        r.push(sp("scan", 2.0, 5.0, Some(exec)));
        let own = r.self_times();
        assert_eq!(own, vec![3.0, 3.0, 1.0, 3.0]);
        // Grandchildren are not subtracted twice from the root.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn nested_closures_record_parents_and_statement_ids() {
        let mut r = Recorder::default();
        r.span("stmt", 3, |r| {
            r.span("sql.parse", 3, |_| ());
            r.span("exec.execute", 3, |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s.iter().all(|x| x.stmt == 3 && x.end >= x.start));
        assert!(s[1].end <= s[2].start && s[2].end <= s[0].end);
        assert_eq!(r.durations("sql.parse").len(), 1);
    }

    #[test]
    fn json_form_carries_every_field() {
        let mut r = Recorder::default();
        let root = r.push(sp("stmt", 0.0, 2e-6, None));
        r.push(sp("sql.parse", 0.0, 1e-6, Some(root)));
        let j = crate::json::parse(&Json::Arr(r.to_json().collect()).render()).unwrap();
        let child = &j.as_arr().unwrap()[1];
        assert_eq!(child.get("name").unwrap().as_str(), Some("sql.parse"));
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("stmt").unwrap().as_f64(), Some(7.0));
        assert!(
            (j.as_arr().unwrap()[0].get("self_us").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9
        );
    }
}
