//! In-memory span recorder and layer self-time attribution.
//!
//! A traced op is one root span (the op as the workload issues it) plus
//! child spans, each timing one replay of the op's inputs at a lower
//! public entry point. A span's *self time* is its duration minus the
//! time its children account for. Children whose durations add up to
//! more than the parent's (trace generation runs beside the core in the
//! streamed pipeline, so the two replays overlap in the real cell) are
//! scaled down to fit the parent, and the scale carries on to their own
//! children. The self times of an op therefore sum exactly to its root
//! span, and each self time is charged to the layer its span names.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    /// The layer this span's self time is charged to.
    pub layer: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans in memory; [`write_jsonl`](Tracer::write_jsonl) writes
/// them out once the run is over.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Self time per layer, summed over every traced op.
pub struct SelfTimes {
    pub ops: u64,
    /// Sum of the root spans (the traced op time).
    pub op_seconds: f64,
    pub by_layer: BTreeMap<&'static str, f64>,
}

impl SelfTimes {
    /// Mean self time per op of `layer`, in seconds (0 when the layer
    /// never ran).
    pub fn per_op(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Mean traced op time in seconds.
    pub fn per_op_total(&self) -> f64 {
        self.op_seconds / self.ops.max(1) as f64
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Times `call` as a span and returns its result and span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let value = std::hint::black_box(call());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (value, self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in seconds of the spans called `name` (0 if none).
    pub fn mean_seconds(&self, name: &str) -> f64 {
        let (sum, count) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0u64), |(sum, count), s| {
                (sum + s.seconds(), count + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Total duration in seconds of the spans called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Attributes every op's root span to layers (see the module docs)
    /// and checks that the self times sum to the root spans.
    pub fn self_times(&self) -> SelfTimes {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(parent) => children[parent].push(id),
                None => roots.push(id),
            }
        }
        let mut out = SelfTimes {
            ops: roots.len() as u64,
            op_seconds: 0.0,
            by_layer: BTreeMap::new(),
        };
        let mut attributed_sum = 0.0;
        let mut stack = Vec::new();
        for &root in &roots {
            out.op_seconds += self.spans[root].seconds();
            stack.push((root, self.spans[root].seconds()));
            while let Some((id, attributed)) = stack.pop() {
                let kids = &children[id];
                let claimed: f64 = kids.iter().map(|&k| self.spans[k].seconds()).sum();
                let scale = if claimed > attributed && claimed > 0.0 {
                    attributed / claimed
                } else {
                    1.0
                };
                let mut kids_attributed = 0.0;
                for &kid in kids {
                    let share = self.spans[kid].seconds() * scale;
                    kids_attributed += share;
                    stack.push((kid, share));
                }
                let own = attributed - kids_attributed;
                attributed_sum += own;
                *out.by_layer.entry(self.spans[id].layer).or_insert(0.0) += own;
            }
        }
        assert!(
            (attributed_sum - out.op_seconds).abs() <= 1e-9 * out.op_seconds.max(1.0),
            "self times ({attributed_sum}) must sum to the traced op time ({})",
            out.op_seconds
        );
        out
    }

    /// Writes one JSON object per span of the first `ops` ops (times in
    /// microseconds since the tracer started).
    pub fn write_jsonl(&self, path: &Path, ops: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op < ops) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
                s.op,
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut Tracer, layer: &'static str, parent: Option<usize>, ns: u64) -> usize {
        t.spans.push(Span {
            name: layer,
            layer,
            op: 0,
            parent,
            start_ns: 0,
            end_ns: ns,
        });
        t.spans.len() - 1
    }

    #[test]
    fn self_times_sum_to_the_root_and_overlapping_children_are_scaled() {
        let mut t = Tracer::new();
        let root = push(&mut t, "unattributed", None, 1000);
        let mid = push(&mut t, "net", Some(root), 600);
        push(&mut t, "json", Some(root), 100);
        // Two overlapping children claim 900 ns of a 600 ns parent.
        push(&mut t, "trace", Some(mid), 300);
        push(&mut t, "cpu", Some(mid), 600);
        let s = t.self_times();
        assert_eq!(s.ops, 1);
        let ns = |layer| (s.by_layer[layer] * 1e9).round();
        assert_eq!(ns("unattributed"), 300.0);
        assert_eq!(ns("json"), 100.0);
        assert_eq!(ns("net"), 0.0);
        assert_eq!(ns("trace"), 200.0);
        assert_eq!(ns("cpu"), 400.0);
    }
}
