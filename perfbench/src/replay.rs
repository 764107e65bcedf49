//! Session inputs and the instrumented single-engine replay every workload
//! shares: the online workloads time it, `fleet-ar` uses it for its
//! solo-replay correctness gate (and, traced, for solver-layer counts of
//! the sessions it served).

use std::hint::black_box;
use std::sync::Arc;

use supernova_core::Reference;
use supernova_datasets::{Dataset, OnlineStep};
use supernova_factors::{Key, Values, Variable};
use supernova_hw::Platform;
use supernova_metrics::ape;
use supernova_runtime::{simulate_step, CostModel, SchedulerConfig, StepTrace};
use supernova_solvers::{RaIsam2Config, SolverEngine};
use supernova_sparse::ParallelExecutor;
use supernova_trace::{epoch_seconds, TraceConfig};

use crate::spans::{SpanLog, StepId};
use crate::stats::{mean, median, ratio, Report};

/// The 30 FPS frame deadline of the paper's AR target, in seconds.
pub const FRAME_S: f64 = 1.0 / 30.0;

/// Stride of the converged reference trajectory. A reference solved only
/// at the last step starts Gauss-Newton from hundreds of dead-reckoned
/// poses and can settle in a distant local minimum; solving every 25
/// steps (the online runner's default accuracy stride), each warm-started
/// from the previous solution, tracks the optimum.
pub const REFERENCE_STRIDE: usize = 25;

/// splitmix64: derives independent per-session dataset seeds from the
/// workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A dataset generator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// 2-D Manhattan-world pose graph (`manhattan_seeded`).
    Manhattan,
    /// 3-D sphere pose graph (`sphere_seeded`).
    Sphere,
}

/// One session's generated input: the dataset truncated to the `size`
/// steps a session serves (sphere generators emit extra closure steps).
#[derive(Clone, Debug)]
pub struct SessionData {
    pub size: usize,
    pub seed: u64,
    pub ds: Dataset,
    pub steps: Vec<OnlineStep>,
}

impl SessionData {
    pub fn generate(family: Family, size: usize, seed: u64) -> Self {
        let full = match family {
            Family::Manhattan => Dataset::manhattan_seeded(size, seed),
            Family::Sphere => Dataset::sphere_seeded(size, seed),
        };
        let ds = full.truncated(size);
        let steps = ds.online_steps();
        SessionData {
            size,
            seed,
            ds,
            steps,
        }
    }

    /// Converged reference trajectories of the served steps, every
    /// [`REFERENCE_STRIDE`] steps and at the last one.
    pub fn reference(&self) -> Reference {
        Reference::compute(&self.ds, REFERENCE_STRIDE)
    }
}

pub fn compose(pose: &Variable, rel: &Variable) -> Variable {
    match (pose, rel) {
        (Variable::Se2(a), Variable::Se2(b)) => Variable::Se2(a.compose(*b)),
        (Variable::Se3(a), Variable::Se3(b)) => Variable::Se3(a.compose(b)),
        _ => panic!("compose over mismatched variable kinds"),
    }
}

/// Whether the replay captures the estimate after step `i` of `n` for
/// accuracy: the steps the strided reference is solved at.
pub fn is_eval_step(i: usize, n: usize) -> bool {
    i % REFERENCE_STRIDE == REFERENCE_STRIDE - 1 || i + 1 == n
}

/// APE RMSE (metres) of each captured estimate against the reference
/// solved at the same step — the per-step terms of the paper's iRMSE.
pub fn step_apes(evals: &[(usize, Values)], reference: &Reference) -> Vec<f64> {
    evals
        .iter()
        .filter_map(|(step, estimate)| reference.at(*step).map(|r| ape(estimate, r).rmse))
        .collect()
}

/// Whether every pose of a non-empty estimate is finite.
pub fn is_finite(values: &Values) -> bool {
    let text = format!("{values:?}");
    !values.is_empty() && !text.contains("NaN") && !text.contains("inf")
}

/// APE RMSE (metres) of a final estimate against the final reference.
pub fn final_ape(estimate: &Values, reference: &Reference) -> f64 {
    reference.last().map_or(f64::NAN, |r| ape(estimate, r).rmse)
}

/// The platform every modeled latency is priced on (SuperNoVA-2S).
pub fn soc_platform() -> Platform {
    Platform::supernova(2)
}

/// A fresh engine as the serving layer builds them: RA-ISAM2 defaults over
/// the SuperNoVA-2S cost model, on an executor of `threads` workers.
pub fn new_engine(threads: usize) -> SolverEngine {
    let cost = Arc::new(CostModel::new(soc_platform()));
    let mut e = SolverEngine::new(RaIsam2Config::default(), cost);
    e.set_executor(ParallelExecutor::new(threads));
    e
}

/// How a replay forms each new pose's initial guess.
#[derive(Clone, Copy, Debug)]
pub enum Guess {
    /// Odometry composed onto the engine's latest estimate of the previous
    /// pose, as `core::run_online` does.
    Odometry,
    /// The generator's ground truth (what the fleet replay protocol sends).
    Truth,
}

/// What a replay records beyond step latencies.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayOpts {
    /// Price every step on SuperNoVA-2S (after the session, untimed).
    pub price: bool,
    /// Capture estimates at the evaluated steps, for iRMSE.
    pub evals: bool,
}

/// What one session replay produced.
#[derive(Debug, Default)]
pub struct SessionRun {
    /// Host latency of each `SolverEngine::step` call, seconds.
    pub latencies_s: Vec<f64>,
    /// Modeled SuperNoVA-2S latency of each step, ms (when priced).
    pub soc_ms: Vec<f64>,
    /// Client-side loop time: guess formation plus the step calls.
    pub wall_s: f64,
    pub estimate: Values,
    /// Estimates captured after each evaluated step (when asked for).
    pub evals: Vec<(usize, Values)>,
}

/// Per-layer accumulators filled by traced replays.
#[derive(Debug, Default)]
pub struct LayerAcc {
    threads: usize,
    steps: u64,
    sessions: u64,
    linearize_s: f64,
    linearized_factors: u64,
    relin_factors: u64,
    relin_elems: u64,
    selection_nodes: u64,
    selected: u64,
    deferred: u64,
    reorders: u64,
    damping: u64,
    plan_rebuilds: u64,
    symbolic_elems: u64,
    exec_s: Vec<f64>,
    tasks: u64,
    busy_s: f64,
    capacity_s: f64,
    overhead_s: f64,
    occupancy: Vec<f64>,
    split_units: u64,
    flops: u64,
    soc_numeric_ms: Vec<f64>,
    soc_overhead_ms: Vec<f64>,
}

/// Tracing state handed to a replay: the accumulators and the span log.
pub struct Tracing<'a> {
    pub acc: &'a mut LayerAcc,
    pub log: &'a mut SpanLog,
}

/// Replays `data` on a freshly reset `engine`. Only the `step` call is
/// timed as step latency; pricing, estimate capture and every traced probe run
/// outside that window. With `tracing`, the engine's own step span is
/// enabled for the replay and merged into the span log.
pub fn replay_session(
    engine: &mut SolverEngine,
    data: &SessionData,
    guess: Guess,
    session: u64,
    opts: ReplayOpts,
    mut tracing: Option<Tracing<'_>>,
) -> SessionRun {
    engine.reset();
    engine.set_trace(if tracing.is_some() {
        TraceConfig::on()
    } else {
        TraceConfig::off()
    });
    let n = data.steps.len();
    let mut run = SessionRun {
        latencies_s: Vec::with_capacity(n),
        ..SessionRun::default()
    };
    let mut traces: Vec<StepTrace> = Vec::with_capacity(if opts.price { n } else { 0 });
    for (i, step) in data.steps.iter().enumerate() {
        let c0 = epoch_seconds();
        let initial = match guess {
            Guess::Truth => step.truth.clone(),
            Guess::Odometry => match (i, &step.odometry) {
                (0, _) | (_, None) => step.truth.clone(),
                (_, Some(odom)) => compose(&engine.pose_estimate(Key(i - 1)), odom),
            },
        };
        let factors = step.factors.clone();
        let plan_before = engine.plan_generation();
        let t0 = epoch_seconds();
        let trace = engine.step(initial, factors);
        let t1 = epoch_seconds();
        run.latencies_s.push(t1 - t0);
        run.wall_s += t1 - c0;
        let id = StepId {
            session,
            seq: i as u64,
        };
        if let Some(t) = tracing.as_mut() {
            observe_step(t, engine, step, &trace, id, (t0, t1), plan_before);
        }
        if opts.evals && is_eval_step(i, n) {
            run.evals.push((i, engine.estimate()));
        }
        if opts.price {
            traces.push(trace);
        }
    }
    let platform = soc_platform();
    let sched = SchedulerConfig::default();
    for (i, trace) in traces.iter().enumerate() {
        let s0 = epoch_seconds();
        let lat = simulate_step(&platform, trace, &sched);
        let s1 = epoch_seconds();
        run.soc_ms.push(lat.total() * 1e3);
        if let Some(t) = tracing.as_mut() {
            let id = StepId {
                session,
                seq: i as u64,
            };
            t.log
                .record("runtime.simulate_step", s0, s1, None, Some(id));
            t.acc.soc_numeric_ms.push(lat.numeric * 1e3);
            t.acc.soc_overhead_ms.push(lat.overhead * 1e3);
        }
    }
    if let Some(t) = tracing.as_mut() {
        let core = engine.solver().core();
        t.acc.reorders += core.reorders() as u64;
        t.acc.damping += core.damping_events() as u64;
        t.acc.sessions += 1;
    }
    engine.set_trace(TraceConfig::off());
    run.estimate = engine.estimate();
    run
}

/// Records one traced step: the benchmark's call span, the engine's own
/// span tree and host schedule, a linearization probe, and the step's
/// solver / sparse / kernel counters.
fn observe_step(
    t: &mut Tracing<'_>,
    engine: &mut SolverEngine,
    step: &OnlineStep,
    trace: &StepTrace,
    id: StepId,
    (t0, t1): (f64, f64),
    plan_before: usize,
) {
    let call = t.log.record("solvers.step", t0, t1, None, Some(id));
    if let Some(span) = engine.take_step_span() {
        let own = t
            .log
            .record("solver.step", span.start, span.end, Some(call), Some(id));
        for child in span.children.iter().filter(|c| c.has_interval()) {
            if child.name == "exec" {
                t.log
                    .record("sparse.exec", child.start, child.end, Some(own), Some(id));
            }
        }
    }
    let acc = &mut *t.acc;
    acc.steps += 1;
    acc.relin_factors += trace.relin_factors as u64;
    acc.relin_elems += trace.relin_jacobian_elems as u64;
    acc.selection_nodes += trace.selection_nodes_visited as u64;
    acc.symbolic_elems += trace.symbolic_pattern_elems as u64;
    let (selected, deferred) = engine.last_selected_deferred();
    acc.selected += selected as u64;
    acc.deferred += deferred as u64;
    let rebuilt = engine.plan_generation().saturating_sub(plan_before);
    acc.plan_rebuilds += rebuilt as u64;
    let core = engine.solver().core();
    if let Some(sched) = core.last_host_schedule().filter(|s| s.origin >= t0) {
        let makespan = sched.makespan();
        acc.exec_s.push(makespan);
        acc.tasks += sched.spans.len() as u64;
        acc.busy_s += sched.busy_time();
        acc.capacity_s += makespan * sched.workers as f64;
        acc.overhead_s += sched.dispatch_overhead_s();
        acc.split_units += sched.split_units as u64;
        acc.flops += sched.kernel_flops();
        if let Some(plan) = core.plan() {
            acc.occupancy.push(plan.level_occupancy(acc.threads.max(1)));
        }
    }
    let estimate = engine.estimate();
    let l0 = epoch_seconds();
    for f in &step.factors {
        black_box(supernova_factors::linearize(f.as_ref(), &estimate));
    }
    let l1 = epoch_seconds();
    t.log.record("factors.linearize", l0, l1, None, Some(id));
    acc.linearize_s += l1 - l0;
    acc.linearized_factors += step.factors.len() as u64;
}

impl LayerAcc {
    pub fn new(threads: usize) -> Self {
        LayerAcc {
            threads,
            ..LayerAcc::default()
        }
    }

    /// Sets the factors / solvers / sparse / linalg / runtime per-layer
    /// metrics; `log` supplies the span-derived solver self time.
    pub fn report(&self, log: &SpanLog, r: &mut Report) {
        let steps = self.steps as f64;
        let per_step = |v: u64| ratio(v as f64, steps);
        let per_session = |v: u64| ratio(v as f64, self.sessions as f64);
        let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
        r.set(
            "factors.linearize_us_per_factor",
            ratio(self.linearize_s * 1e6, self.linearized_factors as f64),
        );
        r.set(
            "solvers.step_self_ms_p50",
            median(&ms(log.self_times("solver.step"))),
        );
        r.set(
            "solvers.relin_factors_per_step",
            per_step(self.relin_factors),
        );
        r.set(
            "solvers.relin_jacobian_elems_per_step",
            per_step(self.relin_elems),
        );
        r.set(
            "solvers.selection_nodes_visited_per_step",
            per_step(self.selection_nodes),
        );
        r.set("solvers.selected_vars_per_step", per_step(self.selected));
        r.set("solvers.deferred_vars_per_step", per_step(self.deferred));
        r.set("solvers.reorders", per_session(self.reorders));
        r.set("solvers.damping_events", per_session(self.damping));
        r.set(
            "sparse.plan_rebuilds_per_step",
            per_step(self.plan_rebuilds),
        );
        r.set(
            "sparse.symbolic_pattern_elems_per_step",
            per_step(self.symbolic_elems),
        );
        r.set("sparse.exec_ms_p50", median(&ms(self.exec_s.clone())));
        r.set("sparse.tasks_per_step", per_step(self.tasks));
        r.set(
            "sparse.worker_busy_frac",
            ratio(self.busy_s, self.capacity_s),
        );
        r.set(
            "sparse.dispatch_overhead_us_per_task",
            ratio(self.overhead_s * 1e6, self.tasks as f64),
        );
        r.set("sparse.level_occupancy", mean(&self.occupancy));
        r.set("sparse.split_units_per_step", per_step(self.split_units));
        r.set("linalg.kernel_flops_per_step", per_step(self.flops));
        r.set("linalg.gflops", ratio(self.flops as f64, self.busy_s * 1e9));
        r.set("runtime.soc_numeric_ms_p50", median(&self.soc_numeric_ms));
        r.set("runtime.soc_overhead_ms_p50", median(&self.soc_overhead_ms));
        r.note(format!(
            "traced engine replays: {} session(s), {} step(s), {} host executions",
            self.sessions,
            self.steps,
            self.exec_s.len()
        ));
    }
}
