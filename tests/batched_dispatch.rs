//! Integration tests for certificate-gated batched dispatch: on every
//! seeded dataset and in every numeric mode, the level-batched executor
//! path must produce bit-identical numeric factors to the serial path at
//! every thread count, every batched schedule must pass the host-schedule
//! validator, and every multi-task step of a multi-threaded run must be
//! batched.

use std::sync::Arc;

use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::linalg::NumericMode;
use supernova::runtime::CostModel;
use supernova::solvers::{RaIsam2Config, SolverEngine};
use supernova::sparse::{DispatchMode, ParallelExecutor};
use supernova_analyze::validate_host_schedule;

/// CAB1 runs at the 0.3 scale, where its widest fronts reach 96 columns
/// or more, so the sweep keeps covering wide fronts.
fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.3),
    ]
}

/// Replays `ds` through the incremental engine on a `threads`-wide
/// executor under numeric `mode`. Returns the final numeric factor bytes,
/// the widest front of the final plan and, for every step with a host
/// schedule, its dispatch mode and recomputed task count; validates each
/// schedule against its plan along the way.
fn run(
    ds: &Dataset,
    mode: NumericMode,
    threads: usize,
) -> (Vec<u8>, usize, Vec<(DispatchMode, usize)>) {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(threads).with_numeric(mode));
    let mut steps = Vec::new();
    for step in ds.online_steps() {
        let trace = engine.step(step.truth, step.factors);
        let core = engine.solver().core();
        if let (Some(plan), Some(sched)) = (core.plan(), core.last_host_schedule()) {
            let recomputed: Vec<usize> = trace.nodes.iter().map(|n| n.node).collect();
            let violations = validate_host_schedule(plan, sched, &recomputed);
            assert!(
                violations.is_empty(),
                "{} ({mode}, {threads} threads): invalid schedule: {violations:?}",
                ds.name()
            );
            steps.push((sched.mode, recomputed.len()));
        }
    }
    let widest = engine.solver().core().plan().map_or(0, |p| {
        p.tasks().iter().map(|t| t.front_dim()).max().unwrap_or(0)
    });
    let bytes = engine
        .numeric_bytes()
        .unwrap_or_else(|| panic!("{}: no numeric cache after replay", ds.name()));
    (bytes, widest, steps)
}

#[test]
fn batched_dispatch_is_bit_identical_across_thread_counts() {
    for ds in sweep_datasets() {
        for mode in NumericMode::ALL {
            let (serial_bytes, widest, serial_steps) = run(&ds, mode, 1);
            if ds.name().starts_with("CAB") {
                assert!(widest >= 96, "{}: widest front {widest} < 96", ds.name());
            }
            assert!(
                serial_steps.iter().all(|&(m, _)| m == DispatchMode::Serial),
                "{} ({mode}): single-thread executor must stay serial",
                ds.name()
            );
            for threads in [2usize, 4, 8] {
                let (bytes, _, steps) = run(&ds, mode, threads);
                assert_eq!(
                    bytes,
                    serial_bytes,
                    "{} ({mode}) at {threads} threads: batched factor bytes diverge from serial",
                    ds.name()
                );
                assert!(
                    steps.iter().any(|&(m, _)| m == DispatchMode::LevelBatched),
                    "{} ({mode}) at {threads} threads: no step used batched dispatch",
                    ds.name()
                );
                // Every certified plan batches as soon as a step has two
                // tasks to run. An uncertified plan falls back to serial
                // silently, so a serial multi-task step means a dataset
                // plan stopped certifying mid-run.
                for (i, &(m, tasks)) in steps.iter().enumerate() {
                    assert!(
                        tasks < 2 || m == DispatchMode::LevelBatched,
                        "{} ({mode}) at {threads} threads: step {i} ran {tasks} tasks as {m:?}",
                        ds.name()
                    );
                }
            }
        }
    }
}
