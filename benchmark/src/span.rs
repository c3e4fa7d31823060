//! Spans recorded from the benchmark's own files around calls into the
//! product's layers. They live in memory and are written out when the
//! traced run ends; the product itself is not touched.

use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (`run_session`, `build_trace`, ...).
    pub name: String,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` through the recorder it
    /// is handed become its children. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON rows, each with its self time.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::from(i as u64)),
                        ("name", Json::str(&s.name)),
                        ("layer", Json::str(s.layer)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("self_ns", Json::from(self.self_ns(i))),
                    ])
                })
                .collect(),
        )
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        rec.span("apps", "outer", |rec| {
            rec.span("core", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("vt", "b", |rec| {
                rec.span("sim", "leaf", |_| ());
            });
        });
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        let dur = |i: usize| s[i].end_ns - s[i].start_ns;
        assert_eq!(rec.self_ns(0), dur(0) - dur(1) - dur(2));
        assert_eq!(rec.self_ns(2), dur(2) - dur(3));
        assert!(dur(1) >= 2_000_000 && rec.self_ns(1) == dur(1));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
