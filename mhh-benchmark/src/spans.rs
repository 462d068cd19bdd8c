//! In-memory span log for the traced pass: one span per call into a layer
//! (name, start, end, parent), kept in memory and written out when the
//! benchmark ends. Spans are recorded here, around the calls — nothing in
//! the program under test knows it is being traced.

use std::time::Instant;

use mhh_mobsim::json::Json;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, `<crate>.<module>.<what>`.
    pub name: String,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span log of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let at = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: at,
            end_ns: at,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let at = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = at;
    }

    /// Record `f` as one leaf span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span with this name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Seconds of the first span with this name, 0 when it never ran.
    pub fn secs_of(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, Span::secs)
    }

    /// A span's self time: its duration minus the part of that interval its
    /// child spans cover (overlapping children are not counted twice).
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    /// The spans as a JSON array: id, name, parent, times and self time.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj(vec![
                ("id", Json::UInt(id as u64)),
                ("name", Json::str(&s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("self_ns", Json::UInt(self.self_ns(id))),
            ])
        });
        Json::Arr(spans.collect())
    }
}

fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` by 10 ns: the union [10, 50) covers 40, not 50.
            span("b", Some(0), 20, 50),
            // A grandchild takes nothing from the root, only from `b`.
            span("b.inner", Some(2), 25, 45),
            // Sticks out past the parent: only the part inside counts.
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 30 - 20);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn the_log_nests_spans_under_the_innermost_open_one() {
        let mut log = SpanLog::new();
        let root = log.enter("root");
        let x = log.time("leaf", || 7);
        let mid = log.enter("mid");
        log.time("deep", || ());
        log.exit(mid);
        log.exit(root);
        log.time("sibling", || ());
        assert_eq!(x, 7);
        let parents: Vec<_> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
        assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let covered: u64 = [1, 2]
            .iter()
            .map(|&i| log.spans()[i].end_ns - log.spans()[i].start_ns)
            .sum();
        assert_eq!(
            log.self_ns(0) + covered,
            log.spans()[0].end_ns - log.spans()[0].start_ns
        );
        assert_eq!(log.secs_of("missing"), 0.0);
    }
}
