//! Client-side spans for `--trace 1` runs: recorded in memory around the
//! benchmark's own calls into the system, written out once at exit.
//!
//! Spans inside the program are a later change; these wrap only what the
//! benchmark itself calls. A disabled tracer costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Shared by every span of one request (the root span's id).
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A handle to an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// One thread's span recorder. Threads share the epoch and a disjoint id
/// lane, so their spans merge into one file without renumbering.
pub struct Tracer {
    epoch: Option<Instant>,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            lane: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder for thread `lane` (below 16) of a traced run.
    pub fn on(epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            lane: lane << 28,
            spans: Vec::new(),
        }
    }

    /// A recorder like this one (on or off) for another thread.
    pub fn fork(&self, lane: u32) -> Tracer {
        match self.epoch {
            Some(epoch) => Tracer::on(epoch, lane),
            None => Tracer::off(),
        }
    }

    /// Opens a span; with no `parent` it starts a new request.
    pub fn open(&mut self, name: &'static str, parent: Open) -> Open {
        let epoch = self.epoch?;
        let id = self.lane | self.spans.len() as u32;
        let request = parent
            .and_then(|p| self.spans.get((p & 0x0FFF_FFFF) as usize))
            .map_or(id, |p| p.request);
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        Some(id)
    }

    pub fn close(&mut self, span: Open) {
        if let (Some(id), Some(epoch)) = (span, self.epoch) {
            self.spans[(id & 0x0FFF_FFFF) as usize].end_ns = epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, parent: Open, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, parent);
        let out = f();
        self.close(s);
        out
    }

    /// Takes another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, and their summed *self* time — duration
    /// minus the part covered by direct children — in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// The span file: one JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.open("x", None);
        assert_eq!(s, None);
        t.close(s);
        assert!(t.spans().is_empty());
        let mut forked = t.fork(3);
        assert_eq!(forked.open("y", None), None);
    }

    #[test]
    fn children_share_the_request_and_are_subtracted_from_self_time() {
        let mut t = Tracer::on(Instant::now(), 2);
        let root = t.open("request", None);
        let child = t.open("layer", root);
        let grandchild = t.open("inner", child);
        t.close(grandchild);
        t.close(child);
        t.close(root);
        let other = t.open("request", None);
        t.close(other);

        let spans = t.spans().to_vec();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, root.unwrap());
        assert_eq!(spans[2].request, root.unwrap());
        assert_ne!(spans[3].request, root.unwrap());
        assert!(spans
            .iter()
            .all(|s| s.id >> 28 == 2 && s.end_ns >= s.start_ns));

        // Fix the clock, then check the arithmetic.
        let mut t = Tracer::on(Instant::now(), 0);
        t.spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "request",
                request: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "layer",
                request: 0,
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "inner",
                request: 0,
                start_ns: 20,
                end_ns: 30,
            },
        ];
        let own = t.self_times();
        assert_eq!(own["request"], (1, 40));
        assert_eq!(own["layer"], (1, 50));
        assert_eq!(own["inner"], (1, 10));
        assert!(t.to_json().contains("\"parent\":null"));
        assert_eq!(t.to_json().matches("\"name\"").count(), 3);
    }
}
