//! Spans recorded by the benchmark itself, around public calls into the
//! library, kept in memory and written out when a run ends.
//!
//! A root span wraps one public call (`engine.submit`, `client.join`, ..).
//! Its children are synthesised from what the call returned — a duration
//! per layer, laid end to end from the root's start because the call does
//! not say *when* inside it each layer ran.  Durations are measured;
//! child offsets are not.

use std::io::Write;
use std::path::Path;

/// One timed interval.  `parent` indexes the span list it lives in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Count, mean duration (ms) and mean self time (ms) of the spans named
/// `name`; zeros when there are none.
pub fn summarize(spans: &[Span], self_ns: &[u64], name: &str) -> (u64, f64, f64) {
    let mut count = 0u64;
    let (mut total, mut own) = (0u64, 0u64);
    for (span, &own_ns) in spans.iter().zip(self_ns) {
        if span.name == name {
            count += 1;
            total += span.duration_ns();
            own += own_ns;
        }
    }
    if count == 0 {
        return (0, 0.0, 0.0);
    }
    let per_op = |ns: u64| ns as f64 / count as f64 / 1e6;
    (count, per_op(total), per_op(own))
}

/// Writes `spans` as one JSON array, one span per line.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
            span.name, span.start_ns, span.end_ns, span.op_id
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // overlaps `a` by 10 and the root's end by 20: covers 20..30 twice, 90..100 once
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
            // grandchild: subtracts from `a`, not from the root
            span("a1", 10, 15, Some(1)),
            span("other-root", 200, 250, None),
        ];
        let own = self_times_ns(&spans);
        // root: 100 - (10..40 = 30) - (90..100 = 10) = 60
        assert_eq!(own, vec![60, 15, 20, 30, 5, 50]);
    }

    #[test]
    fn nested_layout_sums_back_to_the_root() {
        // root -> spill.path -> {kernel.build, kernel.probe}
        let spans = vec![
            span("engine.submit", 0, 1000, None),
            span("spill.path", 0, 700, Some(0)),
            span("kernel.build", 0, 200, Some(1)),
            span("kernel.probe", 200, 500, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![300, 200, 200, 300]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        let (n, mean_ms, self_ms) = summarize(&spans, &own, "engine.submit");
        assert_eq!(n, 1);
        assert!((mean_ms - 1e-3).abs() < 1e-12 && (self_ms - 3e-4).abs() < 1e-12);
        assert_eq!(summarize(&spans, &own, "absent"), (0, 0.0, 0.0));
    }
}
