//! The closed-loop online workloads: one client replays whole sessions
//! back to back through one `SolverEngine`, each step's next pose guessed
//! from the engine's latest estimate (as `core::run_online` does).

use supernova_factors::Values;
use supernova_trace::epoch_seconds;

use crate::replay::{
    mix, new_engine, replay_session, step_apes, Family, Guess, LayerAcc, ReplayOpts, SessionData,
    Tracing, FRAME_S,
};
use crate::spans::SpanLog;
use crate::stats::{mean, median, quantile, ratio, Report};
use crate::{RunArgs, Scale, Workload, ROUNDS, SETUP_REPS};

/// Shape of one online workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub family: Family,
    /// Steps per session.
    pub size: usize,
    /// Host executor threads.
    pub threads: usize,
    /// Distinct session datasets generated at set-up; a run cycles through
    /// them in order. An untraced run replays each at least once and
    /// evaluates accuracy on exactly these, so `ape_rmse_m` does not
    /// depend on how many sessions fit in the run.
    pub pool: usize,
}

impl Spec {
    pub fn of(workload: Workload, scale: Scale) -> Spec {
        let toy = scale == Scale::Toy;
        match workload {
            Workload::OnlineManhattan => Spec {
                family: Family::Manhattan,
                size: if toy { 60 } else { 300 },
                threads: 1,
                pool: if toy { 3 } else { 48 },
            },
            _ => Spec {
                family: Family::Sphere,
                size: if toy { 40 } else { 150 },
                threads: crate::host_cpus(),
                pool: if toy { 3 } else { 16 },
            },
        }
    }
}

/// Everything the untraced sessions of a run measured.
#[derive(Default)]
struct Pass {
    latencies_s: Vec<f64>,
    soc_ms: Vec<f64>,
    wall_s: f64,
    sessions: usize,
    finals: Vec<Values>,
    evals: Vec<Vec<(usize, Values)>>,
}

/// Generates the session pool and starts an engine that then admits its
/// first update; returns the pool with the set-up and generation times.
fn set_up(spec: &Spec, seed: u64) -> (Vec<SessionData>, f64, f64) {
    let t0 = epoch_seconds();
    let pool: Vec<SessionData> = (0..spec.pool)
        .map(|j| SessionData::generate(spec.family, spec.size, mix(seed, j as u64)))
        .collect();
    let t1 = epoch_seconds();
    let mut engine = new_engine(spec.threads);
    let first = &pool[0].steps[0];
    engine.step(first.truth.clone(), first.factors.clone());
    (pool, epoch_seconds() - t0, t1 - t0)
}

pub fn run(args: &RunArgs) -> Report {
    let spec = Spec::of(args.workload, args.scale);
    let mut report = Report::default();
    let mut setups = crate::Setups::default();
    let pool = setups.sample(|| set_up(&spec, args.seed));
    // Each round starts a fresh engine (and executor threads) and replays
    // whole sessions, continuing the session sequence, until its share of
    // `seconds` of client loop time is spent. A traced run spends its time
    // on half as many rounds, each replayed once untraced and then traced
    // on another fresh engine.
    let sub_seconds = args.seconds / ROUNDS as f64;
    let rounds = if args.trace { ROUNDS / 2 } else { ROUNDS };
    let opts = ReplayOpts {
        price: !args.trace,
        evals: !args.trace,
    };
    let mut pass = Pass::default();
    let mut acc = LayerAcc::new(spec.threads);
    let mut log = SpanLog::default();
    let mut traced_ms = Vec::new();
    let mut identical = true;
    for r in 0..rounds {
        let mut engine = new_engine(spec.threads);
        let first = pass.sessions;
        let mut wall = 0.0;
        let last = r + 1 == rounds;
        while wall < sub_seconds || (opts.evals && last && pass.sessions < pool.len()) {
            let j = pass.sessions;
            let data = &pool[j % pool.len()];
            let run = replay_session(&mut engine, data, Guess::Odometry, j as u64, opts, None);
            pass.latencies_s.extend(&run.latencies_s);
            pass.soc_ms.extend(&run.soc_ms);
            wall += run.wall_s;
            if opts.evals && j < pool.len() {
                pass.evals.push(run.evals);
            }
            pass.finals.push(run.estimate);
            pass.sessions += 1;
            // A set-up sample each time the measured phase passes another
            // 1/SETUP_REPS of its planned length.
            let elapsed = (pass.wall_s + wall) / (sub_seconds * rounds as f64);
            if (setups.len() as f64) < elapsed * SETUP_REPS as f64 {
                setups.sample(|| set_up(&spec, args.seed));
            }
        }
        pass.wall_s += wall;
        if args.trace {
            let mut engine = new_engine(spec.threads);
            for j in first..pass.sessions {
                let tracing = Tracing {
                    acc: &mut acc,
                    log: &mut log,
                };
                let opts = ReplayOpts {
                    price: true,
                    evals: false,
                };
                let data = &pool[j % pool.len()];
                let run = replay_session(
                    &mut engine,
                    data,
                    Guess::Odometry,
                    j as u64,
                    opts,
                    Some(tracing),
                );
                traced_ms.extend(run.latencies_s.iter().map(|s| s * 1e3));
                identical &= run.estimate == pass.finals[j];
            }
        }
    }
    setups.fill(|| set_up(&spec, args.seed));
    setups.report(&mut report);
    let steps = pass.latencies_s.len();
    report.attempted = steps as u64;
    let ms: Vec<f64> = pass.latencies_s.iter().map(|s| s * 1e3).collect();
    let finite = pass.finals.iter().all(crate::replay::is_finite);
    report.gate(finite, "every session's final estimate is finite");
    report.note(format!(
        "{rounds} round(s), {} session(s) of {} steps, {} step samples, {:.2}s client loop time, \
         {} executor thread(s)",
        pass.sessions, spec.size, steps, pass.wall_s, spec.threads
    ));
    report.note(crate::stats::describe("step latency", &ms, "ms"));

    if args.trace {
        report.gate(
            identical,
            format!(
                "traced and untraced replays of {} session(s) end bit-identical",
                pass.sessions
            ),
        );
        acc.report(&log, &mut report);
        crate::set_idle_layers(&mut report);
        let untraced_p50 = median(&ms);
        report.set(
            "trace.overhead_frac",
            ratio(median(&traced_ms) - untraced_p50, untraced_p50),
        );
        crate::write_spans(args, &log, &mut report);
        return report;
    }

    let met = pass.latencies_s.iter().filter(|&&s| s <= FRAME_S).count();
    report.set("step_p50_ms", median(&ms));
    report.set("step_p99_ms", quantile(&ms, 0.99));
    report.set("steps_per_s", ratio(steps as f64, pass.wall_s));
    report.set("goodput_steps_per_s", ratio(met as f64, pass.wall_s));
    report.set("deadline_met_frac", ratio(met as f64, steps as f64));
    report.set("completed_frac", 1.0);
    report.set("soc_step_p50_ms", median(&pass.soc_ms));
    report.set("soc_step_p99_ms", quantile(&pass.soc_ms, 0.99));
    let evaluated: Vec<&SessionData> = pool.iter().take(pass.evals.len()).collect();
    let references = crate::par_map(&evaluated, |d| d.reference());
    let apes: Vec<f64> = pass
        .evals
        .iter()
        .zip(&references)
        .flat_map(|(evals, r)| step_apes(evals, r))
        .collect();
    let ape = median(&apes);
    report.gate(
        ape.is_finite() && ape > 0.0,
        format!("ape_rmse_m is finite ({ape})"),
    );
    report.set("ape_rmse_m", ape);
    report.note(format!(
        "ape_rmse_m: median over {} evaluated steps of {} distinct session(s) (mean {:.5} max \
         {:.5}); soc_step: {} priced steps",
        apes.len(),
        pass.evals.len(),
        mean(&apes),
        quantile(&apes, 1.0),
        pass.soc_ms.len()
    ));
    report
}
