//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded from outside the program, around each public call
//! the benchmark makes, and merged with the records the program already
//! exposes (the engine's step span tree, the host schedule, the serve
//! dispatch spans). They stay in memory and are written out once, at exit.
//! All times are seconds on `supernova_trace::epoch_seconds`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Identifies the step a span belongs to: spans of one step share it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepId {
    pub session: u64,
    pub seq: u64,
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    pub step: Option<StepId>,
}

/// In-memory span log; a span's id is its index.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        step: Option<StepId>,
    ) -> usize {
        self.spans.push(SpanRec {
            name,
            start,
            end,
            parent,
            step,
        });
        self.spans.len() - 1
    }

    /// Moves every span of `other` into this log, keeping parent links.
    pub fn append(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span named `name`: its duration minus the part of
    /// its interval that its children cover (overlapping children counted
    /// once).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut iv: Vec<(f64, f64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut cur: Option<(f64, f64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// Writes the log as a JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            );
            if let Some(step) = s.step {
                let _ = write!(
                    out,
                    ", \"session\": {}, \"seq\": {}",
                    step.session, step.seq
                );
            }
            out.push('}');
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut log = SpanLog::default();
        let root = log.record("root", 0.0, 10.0, None, None);
        log.record("a", 1.0, 4.0, Some(root), None);
        log.record("b", 3.0, 5.0, Some(root), None);
        log.record("c", 9.0, 12.0, Some(root), None);
        assert_eq!(log.self_times("root"), vec![10.0 - 4.0 - 1.0]);
    }
}
