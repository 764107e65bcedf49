//! Open-loop load generation for `fleet-ar`: a fixed arrival schedule of
//! 30 FPS sessions, due-time bookkeeping, and the metrics derived from
//! per-step due and completion times.

use supernova_trace::epoch_seconds;

use crate::replay::{mix, FRAME_S};
use crate::stats::{list, quantile, ratio, Report};

/// One scheduled update: session `session`'s frame `frame`, due at `due`
/// (seconds on the trace epoch).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub due: f64,
    pub session: usize,
    pub frame: usize,
}

/// Sessions `first..` arrive every `interval` seconds from `t0` (while
/// the arrival lies within `seconds`), each shifted by a seeded phase
/// within one frame so concurrent clients' frames do not all fall due at
/// the same instant; session `k` sends `len(k)` frames at 30 FPS. Returns
/// every update in due order, numbered by global session index.
pub fn schedule(
    t0: f64,
    seconds: f64,
    interval: f64,
    seed: u64,
    first: usize,
    len: impl Fn(usize) -> usize,
) -> Vec<Event> {
    let sessions = sessions_in(seconds, interval);
    let mut events: Vec<Event> = (0..sessions)
        .flat_map(|j| {
            let k = first + j;
            let phase = (mix(seed, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
            let start = t0 + j as f64 * interval + phase * FRAME_S;
            (0..len(k)).map(move |frame| Event {
                due: start + frame as f64 * FRAME_S,
                session: k,
                frame,
            })
        })
        .collect();
    events.sort_by(|a, b| a.due.total_cmp(&b.due).then(a.session.cmp(&b.session)));
    events
}

/// Sessions a `seconds`-long schedule starts.
pub fn sessions_in(seconds: f64, interval: f64) -> usize {
    (seconds / interval).ceil().max(1.0) as usize
}

/// Sleeps until `due`; returns how late the generator woke (0 when it was
/// already at or past `due`, which a blocked caller measures separately).
pub fn wait_until(due: f64) -> f64 {
    let now = epoch_seconds();
    if now >= due {
        return 0.0;
    }
    std::thread::sleep(std::time::Duration::from_secs_f64(due - now));
    (epoch_seconds() - due).max(0.0)
}

/// An EDF deadline tick for a due time: microseconds on the trace epoch.
pub fn deadline_tick(due: f64) -> u64 {
    (due * 1e6) as u64
}

/// Generator timing: per update, how late it was issued (`issue − due`)
/// and how late the generator woke from its own sleeps.
#[derive(Debug, Default)]
pub struct Lag {
    pub issue_s: Vec<f64>,
    pub oversleep_s: Vec<f64>,
}

impl Lag {
    pub fn extend(&mut self, other: &Lag) {
        self.issue_s.extend(&other.issue_s);
        self.oversleep_s.extend(&other.oversleep_s);
    }

    /// Reports `loadgen.lag_ms_p99` (issue lag) and gates the run's
    /// validity on wake-up lag: a generator whose own sleeps ran late by
    /// more than a frame at p99 did not offer the schedule it claims.
    ///
    /// Issue lag is deliberately not gated. The arrival thread issues
    /// through the router's single front door, so its issue lag is mostly
    /// time spent blocked there (behind a submit that drains a
    /// checkpoint): latency of the system under test, which every step
    /// already counts because it is timed from its due time.
    pub fn report(&self, r: &mut Report) {
        let issue_ms: Vec<f64> = self.issue_s.iter().map(|s| s * 1e3).collect();
        let over_ms: Vec<f64> = self.oversleep_s.iter().map(|s| s * 1e3).collect();
        let over_p99 = quantile(&over_ms, 0.99);
        r.set("loadgen.lag_ms_p99", quantile(&issue_ms, 0.99));
        r.note(format!(
            "generator: {} updates issued, issue lag p50 {:.3} ms p99 {:.3} ms, wake-up lag p99 {:.3} ms",
            issue_ms.len(),
            quantile(&issue_ms, 0.5),
            quantile(&issue_ms, 0.99),
            over_p99
        ));
        r.gate(
            over_p99 <= FRAME_S * 1e3,
            format!("generator kept its schedule (wake-up lag p99 {over_p99:.3} ms ≤ one frame)"),
        );
    }
}

/// One completed update as the server dispatched it.
#[derive(Clone, Copy, Debug)]
pub struct Dispatched {
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub level: u8,
}

/// One open-loop round's dispatch record and counts.
pub struct Round<'a> {
    pub done: &'a [Dispatched],
    pub attempted: u64,
    pub wall_s: f64,
}

/// Updates per latency block. Open-loop percentiles are taken over blocks
/// of this many consecutive updates (in due order) and reported as the
/// median over blocks: a block this size leaves ten samples beyond p99,
/// and the median keeps a burst of host noise in one block from setting
/// the run's figure.
pub const BLOCK: usize = 1000;

/// Splits `values` into consecutive blocks of [`BLOCK`]; a short tail joins
/// the block before it, and a sample shorter than one block is one block.
pub fn blocks(values: &[f64]) -> Vec<&[f64]> {
    let n = (values.len() / BLOCK).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                values.len()
            } else {
                (i + 1) * BLOCK
            };
            &values[i * BLOCK..end]
        })
        .collect()
}

/// End-to-end metrics of the open-loop rounds of a run: latency from due
/// time to dispatch end, its percentiles taken per block of each round and
/// reported as the median over blocks (each round starts a fresh server,
/// so one unlucky start does not set the run's figure either); counts and
/// rates pooled. Misses include every failed update.
pub fn report_end_to_end(rounds: &[Round<'_>], r: &mut Report) {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let (mut done, mut met, mut attempted, mut wall) = (0usize, 0usize, 0u64, 0.0f64);
    for round in rounds {
        let mut by_due: Vec<&Dispatched> = round.done.iter().collect();
        by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
        let ms: Vec<f64> = by_due.iter().map(|d| (d.end - d.due) * 1e3).collect();
        for block in blocks(&ms) {
            p50.push(quantile(block, 0.5));
            p99.push(quantile(block, 0.99));
        }
        met += ms.iter().filter(|&&m| m <= FRAME_S * 1e3).count();
        done += ms.len();
        attempted += round.attempted;
        wall += round.wall_s;
        r.note(crate::stats::describe("step latency (round)", &ms, "ms"));
        let wait: Vec<f64> = round.done.iter().map(|d| (d.start - d.due) * 1e3).collect();
        let service: Vec<f64> = round.done.iter().map(|d| (d.end - d.start) * 1e3).collect();
        r.note(crate::stats::describe("  queue wait", &wait, "ms"));
        r.note(crate::stats::describe("  service", &service, "ms"));
    }
    r.note(format!("block p50s (ms): {}", list(p50.iter().copied())));
    r.note(format!("block p99s (ms): {}", list(p99.iter().copied())));
    r.set("step_p50_ms", crate::stats::median(&p50));
    r.set("step_p99_ms", crate::stats::median(&p99));
    r.set("steps_per_s", ratio(done as f64, wall));
    r.set("goodput_steps_per_s", ratio(met as f64, wall));
    r.set("deadline_met_frac", ratio(met as f64, attempted as f64));
    r.set("completed_frac", ratio(done as f64, attempted as f64));
    r.note(format!(
        "open loop: {} round(s), {attempted} attempted, {done} completed, {met} within a frame, \
         {wall:.2}s measured",
        rounds.len()
    ));
}

/// `trace.overhead_frac` of an open-loop workload: traced against
/// untraced median latency, due time to dispatch end, over every update of
/// the rounds each pass ran.
pub fn report_trace_overhead<'a>(
    untraced: impl Iterator<Item = &'a [Dispatched]>,
    traced: impl Iterator<Item = &'a [Dispatched]>,
    r: &mut Report,
) {
    let base = latency_p50(untraced);
    r.set(
        "trace.overhead_frac",
        ratio(latency_p50(traced) - base, base),
    );
}

fn latency_p50<'a>(rounds: impl Iterator<Item = &'a [Dispatched]>) -> f64 {
    let ms: Vec<f64> = rounds
        .flat_map(|done| done.iter().map(|d| (d.end - d.due) * 1e3))
        .collect();
    crate::stats::median(&ms)
}

/// Serving-layer per-layer metrics from the dispatch record.
pub fn report_serve_layers(
    done: &[Dispatched],
    wall_s: f64,
    workers: usize,
    max_queue_depth: usize,
    r: &mut Report,
) {
    let wait: Vec<f64> = done.iter().map(|d| (d.start - d.due) * 1e3).collect();
    let service: Vec<f64> = done.iter().map(|d| (d.end - d.start) * 1e3).collect();
    let busy: f64 = service.iter().sum::<f64>() / 1e3;
    let degraded = done.iter().filter(|d| d.level > 0).count();
    r.set("serve.queue_wait_ms_p50", quantile(&wait, 0.5));
    r.set("serve.queue_wait_ms_p99", quantile(&wait, 0.99));
    r.set("serve.service_ms_p50", quantile(&service, 0.5));
    r.set("serve.service_ms_p99", quantile(&service, 0.99));
    r.set(
        "serve.worker_busy_frac",
        ratio(busy, wall_s * workers as f64),
    );
    r.set("serve.max_queue_depth", max_queue_depth as f64);
    r.set(
        "serve.degraded_step_frac",
        ratio(degraded as f64, done.len() as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fold_a_short_tail_into_the_last_block() {
        let v: Vec<f64> = (0..2500).map(f64::from).collect();
        let lens: Vec<usize> = blocks(&v).iter().map(|b| b.len()).collect();
        assert_eq!(lens, [1000, 1500]);
        assert_eq!(blocks(&v[..10]).len(), 1);
        assert_eq!(blocks(&[]).len(), 1);
    }
}
