//! Host-time spans recorded around the benchmark's calls into each
//! layer. Spans live in memory and are written once, at exit; a disabled
//! tracer records nothing and only calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<call>`, times are ns since the
/// tracer started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new run id: spans of one `fleet_serve` repetition (and
    /// everything it caused) share one.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time per layer in ms: each span's duration minus what its
    /// children cover, summed under the name's first component.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        out
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// All spans as JSON lines: name, start, end, parent index, run id.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::Tracer;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("bench.outer", |tr| {
            tr.span("rmc2000.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by_layer = tr.self_ms_by_layer();
        assert!(by_layer["rmc2000"] >= 20.0);
        assert!(by_layer["bench"] < by_layer["rmc2000"]);
        assert_eq!(tr.to_json_lines().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("bench.x", |_| 7), 7);
        assert!(off.to_json_lines().is_empty());
    }
}
