//! Benchmark-side spans around the calls into each layer, kept in memory
//! and written out once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span that will enclose other spans; end it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a leaf span; returns its result and the span's length
    /// in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        let span = &self.spans[id as usize];
        (out, span.end_ns - span.start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as a JSON array, in the order the spans were opened.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("]\n");
        out
    }
}
