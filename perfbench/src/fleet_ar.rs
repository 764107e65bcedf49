//! `fleet-ar`: AR sessions of alternating Manhattan and Sphere kinds,
//! arriving open loop at a fixed rate through a `ShardRouter` over two
//! in-process TCP `Shard`s, with periodic checkpoints and journal
//! compaction on. Each session sends one update per 30 FPS frame. The
//! arrival thread creates sessions and submits frames; a reader thread
//! reads each session's estimate once per second and at close, so reads
//! sit beside writes on the router's single front door.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use supernova_factors::{Values, Variable};
use supernova_fleet::{FleetStats, RouterConfig, Shard, ShardId, ShardRouter};
use supernova_serve::protocol::DatasetKind;
use supernova_serve::ServeConfig;
use supernova_trace::epoch_seconds;

use crate::open_loop::{
    deadline_tick, report_end_to_end, report_serve_layers, report_trace_overhead, schedule,
    sessions_in, wait_until, Dispatched, Lag, Round,
};
use crate::replay::{
    final_ape, mix, new_engine, replay_session, Family, Guess, LayerAcc, ReplayOpts, SessionData,
    SessionRun, Tracing,
};
use crate::spans::{SpanLog, StepId};
use crate::stats::{mean, median, quantile, ratio, Report};
use crate::{RunArgs, Scale, SETUP_REPS};

/// Rounds per run, each on a fresh fleet: twice the online workloads'
/// because the fleet's median step latency rides on cross-thread wake-ups
/// whose cost depends on where a fresh fleet's threads land.
const ROUNDS: usize = 4;

/// Shards in the fleet, one worker each.
const SHARDS: u32 = 2;

/// Shape of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Steps per Manhattan session. Long, because every checkpoint
    /// snapshots the whole update log, so checkpoint drains grow with
    /// session length and show in the step tail.
    pub manhattan_size: usize,
    /// Steps per Sphere session.
    pub sphere_size: usize,
    /// Distinct datasets per family; session `k` replays entry `k / 2`.
    pub pool: usize,
    /// Seconds between session arrivals.
    pub interval_s: f64,
    /// Router checkpoint policy K (updates past the floor).
    pub checkpoint_interval: u64,
    /// Journal records between compactions.
    pub compact_interval: u64,
}

impl Spec {
    pub fn of(scale: Scale) -> Spec {
        match scale {
            Scale::Full => Spec {
                manhattan_size: 100,
                sphere_size: 20,
                pool: 64,
                interval_s: 0.25,
                checkpoint_interval: 16,
                compact_interval: 512,
            },
            Scale::Toy => Spec {
                manhattan_size: 16,
                sphere_size: 12,
                pool: 2,
                interval_s: 0.3,
                checkpoint_interval: 4,
                compact_interval: 32,
            },
        }
    }

    /// Shards run one worker with degradation off, as `load_gen --fleet`
    /// does: replayed sessions must stay exact.
    fn shard_config(&self) -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_sessions: 64,
            executor_threads: 1,
            degrade_start: 1 << 20,
            record_spans: 1 << 20,
            ..ServeConfig::default()
        }
    }
}

/// The generated inputs: per family, the session datasets.
struct Inputs {
    data: [Vec<SessionData>; 2],
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64) -> Inputs {
        let gen = |family: Family, size: usize, salt: u64| -> Vec<SessionData> {
            (0..spec.pool)
                .map(|j| SessionData::generate(family, size, mix(seed ^ salt, j as u64)))
                .collect()
        };
        Inputs {
            data: [
                gen(Family::Manhattan, spec.manhattan_size, 0),
                gen(Family::Sphere, spec.sphere_size, 0x5e55_10e5),
            ],
        }
    }

    /// Session `k`'s pool entry: families alternate.
    fn entry(&self, k: usize) -> (usize, usize) {
        (k % 2, (k / 2) % self.data[0].len())
    }

    /// The distinct pool entries sessions `ks` replayed, sorted.
    fn used(&self, ks: impl Iterator<Item = usize>) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = ks.map(|k| self.entry(k)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Traced solo replays of the `used` entries: the solver, sparse,
    /// linalg and runtime per-layer metrics of what the fleet served, with
    /// their spans added to `log`.
    fn report_solo_layers(&self, used: &[(usize, usize)], log: &mut SpanLog, report: &mut Report) {
        let mut acc = LayerAcc::new(1);
        for (n, &(f, i)) in used.iter().enumerate() {
            let mut engine = new_engine(1);
            let opts = ReplayOpts {
                price: true,
                evals: false,
            };
            let tracing = Tracing {
                acc: &mut acc,
                log: &mut *log,
            };
            // Solo replays get their own session ids, clear of served ones.
            let id = (1u64 << 32) + n as u64;
            replay_session(
                &mut engine,
                &self.data[f][i],
                Guess::Truth,
                id,
                opts,
                Some(tracing),
            );
        }
        acc.report(log, report);
    }

    /// Correctness, accuracy and modeled latency of what the fleet served.
    /// Solo replays of every `used` pool entry, with the ground-truth
    /// guesses the fleet replay protocol sends, are the bit-identity
    /// reference for every `closed` session (global index, final estimate)
    /// and, priced, give the modeled SoC latency of the served steps.
    /// `ape_rmse_m` is the mean final APE of the closed sessions.
    fn report_served(
        &self,
        used: &[(usize, usize)],
        closed: &[(usize, &Values)],
        report: &mut Report,
    ) {
        let runs = crate::par_map(used, |&(f, i)| {
            let mut engine = new_engine(1);
            let opts = ReplayOpts {
                price: true,
                evals: false,
            };
            replay_session(&mut engine, &self.data[f][i], Guess::Truth, 0, opts, None)
        });
        let solo: BTreeMap<(usize, usize), SessionRun> = used.iter().copied().zip(runs).collect();
        let diverged: Vec<usize> = closed
            .iter()
            .filter(|(k, e)| **e != solo[&self.entry(*k)].estimate)
            .map(|(k, _)| *k)
            .collect();
        report.gate(
            !closed.is_empty() && diverged.is_empty(),
            format!(
                "{} closed fleet session(s) equal a solo replay bit for bit (diverged: {:?})",
                closed.len(),
                &diverged[..diverged.len().min(8)]
            ),
        );
        let soc: Vec<f64> = solo
            .values()
            .flat_map(|r| r.soc_ms.iter().copied())
            .collect();
        report.set("soc_step_p50_ms", median(&soc));
        report.set("soc_step_p99_ms", quantile(&soc, 0.99));
        let entries: Vec<&SessionData> = used.iter().map(|&(f, i)| &self.data[f][i]).collect();
        let refs = crate::par_map(&entries, |d| d.reference());
        let ref_of: BTreeMap<(usize, usize), _> = used.iter().copied().zip(refs).collect();
        let apes: Vec<f64> = closed
            .iter()
            .map(|(k, e)| final_ape(e, &ref_of[&self.entry(*k)]))
            .collect();
        let ape = mean(&apes);
        report.gate(
            ape.is_finite() && ape > 0.0,
            format!("ape_rmse_m is finite ({ape})"),
        );
        report.set("ape_rmse_m", ape);
        report.note(format!(
            "ape_rmse_m: mean final APE over {} closed session(s) (median {:.4} max {:.4}); \
             soc_step: {} priced steps from solo replays of {} dataset(s)",
            apes.len(),
            median(&apes),
            quantile(&apes, 1.0),
            soc.len(),
            used.len()
        ));
    }
}

/// A running fleet: shards plus the router in front of them.
struct Fleet {
    shards: Vec<Shard>,
    router: Mutex<ShardRouter>,
}

impl Fleet {
    fn start(spec: &Spec, journal_dir: &Path) -> Fleet {
        let shards: Vec<Shard> = (0..SHARDS)
            .map(|i| Shard::spawn(ShardId(i), spec.shard_config()).expect("bind shard listener"))
            .collect();
        let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
        let router = ShardRouter::connect(
            RouterConfig {
                seed: 0xF1EE7,
                numeric: spec.shard_config().numeric,
                journal_dir: journal_dir.to_path_buf(),
                checkpoint_interval: spec.checkpoint_interval,
                compact_interval: spec.compact_interval,
            },
            &endpoints,
        )
        .expect("connect router");
        Fleet {
            shards,
            router: Mutex::new(router),
        }
    }

    fn router(&self) -> std::sync::MutexGuard<'_, ShardRouter> {
        self.router
            .lock()
            .expect("router lock poisoned by a panicked client")
    }

    /// Shuts every shard down and joins their threads.
    fn stop(self) {
        let mut router = self.router.into_inner().expect("router lock poisoned");
        router.shutdown();
        drop(router);
        drop(self.shards);
    }
}

fn kind(family: usize) -> DatasetKind {
    if family == 0 {
        DatasetKind::Manhattan
    } else {
        DatasetKind::Sphere
    }
}

fn to_values(vars: Vec<Variable>) -> Values {
    let mut v = Values::new();
    for var in vars {
        v.insert(var);
    }
    v
}

/// What the client saw of one session.
#[derive(Debug, Default)]
struct Session {
    global: Option<u64>,
    dues: Vec<f64>,
    estimate: Option<Values>,
    completed: Option<u64>,
    dispatched: u64,
}

/// Benchmark-side timings of router calls (seconds, lock already held).
#[derive(Debug, Default)]
struct Calls {
    submit: Vec<f64>,
    checkpointing_submit: Vec<f64>,
    estimate: Vec<f64>,
    create: Vec<f64>,
    close: Vec<f64>,
}

struct Pass {
    /// Global index of `sessions[0]`.
    first: usize,
    sessions: Vec<Session>,
    done: Vec<Dispatched>,
    attempted: u64,
    admitted: u64,
    wall_s: f64,
    lag: Lag,
    calls: Calls,
    stats_delta: FleetStats,
    max_queue_depth: usize,
    log: SpanLog,
}

enum Read {
    Periodic(u64),
    Close(usize, u64),
}

/// Runs sessions `first..` of the schedule for `seconds` against `fleet`.
fn fleet_pass(
    fleet: &Fleet,
    spec: &Spec,
    inputs: &Inputs,
    (seed, first, seconds): (u64, usize, f64),
    traced: bool,
) -> Pass {
    let before = fleet.router().stats();
    let t0 = epoch_seconds() + 0.05;
    let events = schedule(t0, seconds, spec.interval_s, seed, first, |k| {
        let (f, i) = inputs.entry(k);
        inputs.data[f][i].steps.len()
    });
    let n_sessions = sessions_in(seconds, spec.interval_s);
    let mut sessions: Vec<Session> = (0..n_sessions).map(|_| Session::default()).collect();
    let mut lag = Lag::default();
    let mut calls = Calls::default();
    let mut log = SpanLog::default();
    let (tx, rx) = mpsc::channel::<Read>();
    let (reader_calls, closed, reader_log) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut estimate_s = Vec::new();
            let mut close_s = Vec::new();
            let mut closed = Vec::new();
            let mut log = SpanLog::default();
            for msg in rx {
                let mut router = fleet.router();
                match msg {
                    Read::Periodic(g) => {
                        let e0 = epoch_seconds();
                        let ok = router.estimate(g).is_ok();
                        let e1 = epoch_seconds();
                        drop(router);
                        if ok {
                            estimate_s.push(e1 - e0);
                        }
                        if traced {
                            let id = Some(StepId {
                                session: g,
                                seq: u64::MAX,
                            });
                            log.record("fleet.estimate", e0, e1, None, id);
                        }
                    }
                    Read::Close(k, g) => {
                        let e0 = epoch_seconds();
                        let estimate = router.estimate(g).ok().map(to_values);
                        let e1 = epoch_seconds();
                        let report = router.close(g).ok();
                        let e2 = epoch_seconds();
                        drop(router);
                        estimate_s.push(e1 - e0);
                        close_s.push(e2 - e1);
                        if traced {
                            let id = Some(StepId {
                                session: g,
                                seq: u64::MAX,
                            });
                            log.record("fleet.estimate", e0, e1, None, id);
                            log.record("fleet.close", e1, e2, None, id);
                        }
                        closed.push((k, estimate, report.map(|(completed, _)| completed)));
                    }
                }
            }
            ((estimate_s, close_s), closed, log)
        });
        for ev in &events {
            lag.oversleep_s.push(wait_until(ev.due));
            let issue = epoch_seconds();
            lag.issue_s.push((issue - ev.due).max(0.0));
            let (f, i) = inputs.entry(ev.session);
            let data = &inputs.data[f][i];
            let s = &mut sessions[ev.session - first];
            if ev.frame == 0 {
                let mut router = fleet.router();
                let c0 = epoch_seconds();
                s.global = router
                    .create_session(kind(f), data.size as u32, data.seed)
                    .ok();
                let c1 = epoch_seconds();
                drop(router);
                calls.create.push(c1 - c0);
                if traced {
                    let id = s.global.map(|g| StepId { session: g, seq: 0 });
                    log.record("fleet.create_session", c0, c1, None, id);
                }
            }
            let Some(g) = s.global else { continue };
            let mut router = fleet.router();
            let c0 = epoch_seconds();
            let checkpoints = router.stats().checkpoints;
            let admitted = router.submit(g, deadline_tick(ev.due), 1);
            let checkpointed = router.stats().checkpoints > checkpoints;
            let c1 = epoch_seconds();
            drop(router);
            if matches!(admitted, Ok(1)) {
                s.dues.push(ev.due);
            }
            calls.submit.push(c1 - c0);
            if checkpointed {
                calls.checkpointing_submit.push(c1 - c0);
            }
            if traced {
                let id = Some(StepId {
                    session: g,
                    seq: ev.frame as u64,
                });
                log.record("fleet.submit", c0, c1, None, id);
            }
            let last = ev.frame + 1 == data.steps.len();
            let msg = if last {
                Some(Read::Close(ev.session, g))
            } else if (ev.frame + 1) % 30 == 0 {
                Some(Read::Periodic(g))
            } else {
                None
            };
            if let Some(msg) = msg {
                tx.send(msg).expect("reader thread alive");
            }
        }
        drop(tx);
        reader.join().expect("reader thread panicked")
    });
    (calls.estimate, calls.close) = reader_calls;
    log.append(reader_log);
    for (k, estimate, completed) in closed {
        sessions[k - first].estimate = estimate;
        sessions[k - first].completed = completed;
    }

    let after = fleet.router().stats();
    let stats_delta = FleetStats {
        checkpoints: after.checkpoints - before.checkpoints,
        compactions: after.compactions - before.compactions,
        journal_records: after.journal_records - before.journal_records,
        ..FleetStats::default()
    };
    let by_local: BTreeMap<(ShardId, u64), usize> = {
        let globals: BTreeMap<u64, usize> = sessions
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.global.map(|g| (g, k)))
            .collect();
        fleet
            .router()
            .placements()
            .iter()
            .filter_map(|p| globals.get(&p.global).map(|&k| ((p.shard, p.local), k)))
            .collect()
    };
    let mut done = Vec::new();
    let mut max_queue_depth = 0usize;
    for shard in &fleet.shards {
        for span in shard.server().spans() {
            let Some(&k) = by_local.get(&(shard.id(), span.session.0)) else {
                continue;
            };
            let s = &mut sessions[k];
            let Some(&due) = s.dues.get(span.seq as usize) else {
                continue;
            };
            s.dispatched += 1;
            // Updates of this session due by the time this one started,
            // minus those already applied: its queue depth at dispatch.
            let queued = s.dues.partition_point(|&d| d <= span.start);
            max_queue_depth = max_queue_depth.max(queued.saturating_sub(span.seq as usize));
            if traced {
                let id = s.global.map(|g| StepId {
                    session: g,
                    seq: span.seq,
                });
                log.record("serve.dispatch", span.start, span.end, None, id);
            }
            done.push(Dispatched {
                due,
                start: span.start,
                end: span.end,
                level: span.level,
            });
        }
    }
    let last_end = done.iter().map(|d| d.end).fold(t0, f64::max);
    let admitted = sessions.iter().map(|s| s.dues.len() as u64).sum();
    Pass {
        first,
        sessions,
        done,
        attempted: events.len() as u64,
        admitted,
        wall_s: last_end - t0,
        lag,
        calls,
        stats_delta,
        max_queue_depth,
        log,
    }
}

/// Every session of every pass, with its global index.
fn all_sessions(passes: &[Pass]) -> Vec<(usize, &Session)> {
    passes
        .iter()
        .flat_map(|p| {
            p.sessions
                .iter()
                .enumerate()
                .map(move |(j, s)| (p.first + j, s))
        })
        .collect()
}

fn gate_zero_loss(passes: &[Pass], r: &mut Report) {
    let sessions = all_sessions(passes);
    let lost: Vec<usize> = sessions
        .iter()
        .filter(|(_, s)| {
            s.global.is_some()
                && (s.dispatched != s.dues.len() as u64 || s.completed != Some(s.dues.len() as u64))
        })
        .map(|(k, _)| *k)
        .collect();
    r.gate(
        lost.is_empty(),
        format!(
            "every admitted update of {} fleet session(s) completed, zero lost (violations in \
             sessions {:?})",
            sessions.len(),
            &lost[..lost.len().min(8)]
        ),
    );
}

/// Starts a fleet over fresh journals in `journal_dir` and runs a warm-up
/// session up to its first admitted update; returns the fleet, with the
/// warm-up session closed, and the seconds until that admission.
fn start(spec: &Spec, inputs: &Inputs, journal_dir: &Path) -> (Fleet, f64) {
    let t0 = epoch_seconds();
    let fleet = Fleet::start(spec, journal_dir);
    let first = &inputs.data[0][0];
    let warm = {
        let mut router = fleet.router();
        let g = router
            .create_session(kind(0), first.size as u32, first.seed)
            .expect("fresh fleet admits a session");
        router
            .submit(g, 0, 1)
            .expect("fresh session admits an update");
        g
    };
    let started = epoch_seconds() - t0;
    fleet.router().close(warm).expect("warm-up session closes");
    (fleet, started)
}

pub fn run(args: &RunArgs) -> Report {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let spec = Spec::of(args.scale);
    let mut report = Report::default();
    let journal_root = args.out_dir.join(format!(
        "fleet-journals-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let fleets = AtomicUsize::new(0);
    let journal_dir = || -> PathBuf {
        let n = fleets.fetch_add(1, Ordering::Relaxed);
        journal_root.join(format!("fleet-{n}"))
    };
    let set_up = || {
        let t0 = epoch_seconds();
        let inputs = Inputs::generate(&spec, args.seed);
        let generate = epoch_seconds() - t0;
        let (fleet, started) = start(&spec, &inputs, &journal_dir());
        fleet.stop();
        (inputs, generate + started, generate)
    };
    let mut setups = crate::Setups::default();
    let inputs = setups.sample(set_up);
    let sub_seconds = args.seconds / ROUNDS as f64;
    let per_round = sessions_in(sub_seconds, spec.interval_s);
    // Each pass starts a fresh fleet. A traced run spends its time on half
    // as many rounds, each run once untraced and once traced, so that both
    // passes start from the same fleet state.
    let rounds = if args.trace { ROUNDS / 2 } else { ROUNDS };
    // Set-up samples are spread over each pass: a sampler thread beside the
    // arrival thread sets up (and stops) a separate fleet at even intervals.
    // The passes load the CPUs lightly, and a sample is a few percent of
    // its interval.
    let n_passes = if args.trace { 2 * rounds } else { rounds };
    let per_pass = (SETUP_REPS - 1) / n_passes;
    let run_pass = |r: usize, trace: bool, setups: &mut crate::Setups| {
        let (fleet, _) = start(&spec, &inputs, &journal_dir());
        let window = (args.seed, r * per_round, sub_seconds);
        let t0 = epoch_seconds();
        let pass = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut local = crate::Setups::default();
                for k in 0..per_pass {
                    wait_until(t0 + (k as f64 + 0.5) * sub_seconds / per_pass as f64);
                    local.sample(set_up);
                }
                local
            });
            let pass = fleet_pass(&fleet, &spec, &inputs, window, trace);
            setups.append(sampler.join().expect("set-up sampler panicked"));
            pass
        });
        fleet.stop();
        pass
    };
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    for r in 0..rounds {
        passes.push(run_pass(r, false, &mut setups));
        if args.trace {
            traced.push(run_pass(r, true, &mut setups));
        }
    }
    setups.fill(set_up);
    setups.report(&mut report);
    let _ = std::fs::remove_dir_all(&journal_root);
    report.attempted = passes.iter().map(|p| p.attempted).sum();
    report.failed = report.attempted - passes.iter().map(|p| p.admitted).sum::<u64>();
    gate_zero_loss(&passes, &mut report);
    if args.trace {
        gate_zero_loss(&traced, &mut report);
    }
    report.note(format!(
        "{rounds} round(s), {} session(s), one every {}s, offered {:.0} updates/s, {SHARDS} \
         shard(s) x 1 worker, checkpoint K={}, compaction every {} records",
        all_sessions(&passes).len(),
        spec.interval_s,
        ratio(report.attempted as f64, sub_seconds * rounds as f64),
        spec.checkpoint_interval,
        spec.compact_interval
    ));
    let used = inputs.used(all_sessions(&passes).iter().map(|(k, _)| *k));

    if !args.trace {
        return untraced_outcome(&passes, &inputs, &used, report);
    }
    report_trace_overhead(
        passes.iter().map(|p| p.done.as_slice()),
        traced.iter().map(|p| p.done.as_slice()),
        &mut report,
    );
    report_fleet_layers(&traced, &mut report);
    let done: Vec<Dispatched> = traced.iter().flat_map(|p| p.done.iter().copied()).collect();
    let wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let max_depth = traced.iter().map(|p| p.max_queue_depth).max().unwrap_or(0);
    report_serve_layers(&done, wall, SHARDS as usize, max_depth, &mut report);
    let mut lag = Lag::default();
    let mut log = SpanLog::default();
    for p in traced {
        lag.extend(&p.lag);
        log.append(p.log);
    }
    lag.report(&mut report);
    inputs.report_solo_layers(&used, &mut log, &mut report);
    crate::set_idle_layers(&mut report);
    crate::write_spans(args, &log, &mut report);
    report
}

/// Correctness, accuracy and latency of the untraced passes: every closed
/// session must equal its solo replay.
fn untraced_outcome(
    passes: &[Pass],
    inputs: &Inputs,
    used: &[(usize, usize)],
    mut report: Report,
) -> Report {
    let closed: Vec<(usize, &Values)> = all_sessions(passes)
        .into_iter()
        .filter_map(|(k, s)| s.estimate.as_ref().map(|e| (k, e)))
        .collect();
    inputs.report_served(used, &closed, &mut report);
    let rounds: Vec<Round<'_>> = passes
        .iter()
        .map(|p| Round {
            done: &p.done,
            attempted: p.attempted,
            wall_s: p.wall_s,
        })
        .collect();
    report_end_to_end(&rounds, &mut report);
    let mut lag = Lag::default();
    for p in passes {
        lag.extend(&p.lag);
    }
    lag.report(&mut report);
    report
}

fn report_fleet_layers(passes: &[Pass], r: &mut Report) {
    let ms = |pick: fn(&Calls) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| pick(&p.calls).iter().map(|s| s * 1e3))
            .collect()
    };
    let submit = ms(|c| &c.submit);
    r.set("fleet.submit_call_ms_p50", median(&submit));
    r.set("fleet.submit_call_ms_p99", quantile(&submit, 0.99));
    r.set(
        "fleet.checkpoint_call_ms_p50",
        median(&ms(|c| &c.checkpointing_submit)),
    );
    r.set("fleet.estimate_call_ms_p50", median(&ms(|c| &c.estimate)));
    r.set("fleet.create_call_ms_p50", median(&ms(|c| &c.create)));
    r.set("fleet.close_call_ms_p50", median(&ms(|c| &c.close)));
    let total = |pick: fn(&FleetStats) -> u64| {
        passes.iter().map(|p| pick(&p.stats_delta)).sum::<u64>() as f64
    };
    r.set("fleet.checkpoints", total(|s| s.checkpoints));
    r.set("fleet.compactions", total(|s| s.compactions));
    r.set("fleet.journal_records", total(|s| s.journal_records));
    r.note(format!(
        "router calls: {} submits ({} checkpointing), {} estimates, {} creates, {} closes",
        submit.len(),
        ms(|c| &c.checkpointing_submit).len(),
        ms(|c| &c.estimate).len(),
        ms(|c| &c.create).len(),
        ms(|c| &c.close).len()
    ));
}
