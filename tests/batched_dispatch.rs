//! Integration tests for certificate-gated batched dispatch: on every
//! seeded dataset, the level-batched executor path must produce
//! bit-identical numeric factors to the serial path at every thread
//! count, every batched schedule must pass the host-schedule validator,
//! and every multi-task step of a multi-threaded run must be batched.

use std::sync::Arc;

use supernova::datasets::Dataset;
use supernova::hw::Platform;
use supernova::runtime::CostModel;
use supernova::solvers::{RaIsam2Config, SolverEngine};
use supernova::sparse::{DispatchMode, ParallelExecutor};
use supernova_analyze::validate_host_schedule;

fn sweep_datasets() -> Vec<Dataset> {
    vec![
        Dataset::m3500_scaled(0.06),
        Dataset::sphere_scaled(0.12),
        Dataset::cab1_scaled(0.2),
    ]
}

/// Replays `ds` through the incremental engine on a `threads`-wide
/// executor. Returns the final numeric factor bytes and, for every step
/// with a host schedule, its dispatch mode and recomputed task count;
/// validates each schedule against its plan along the way.
fn run(ds: &Dataset, threads: usize) -> (Vec<u8>, Vec<(DispatchMode, usize)>) {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    let mut engine = SolverEngine::new(RaIsam2Config::default(), cost);
    engine.set_executor(ParallelExecutor::new(threads));
    let mut steps = Vec::new();
    for step in ds.online_steps() {
        let trace = engine.step(step.truth, step.factors);
        let core = engine.solver().core();
        if let (Some(plan), Some(sched)) = (core.plan(), core.last_host_schedule()) {
            let recomputed: Vec<usize> = trace.nodes.iter().map(|n| n.node).collect();
            let violations = validate_host_schedule(plan, sched, &recomputed);
            assert!(
                violations.is_empty(),
                "{} ({threads} threads): invalid schedule: {violations:?}",
                ds.name()
            );
            steps.push((sched.mode, recomputed.len()));
        }
    }
    let bytes = engine
        .numeric_bytes()
        .unwrap_or_else(|| panic!("{}: no numeric cache after replay", ds.name()));
    (bytes, steps)
}

#[test]
fn batched_dispatch_is_bit_identical_across_thread_counts() {
    for ds in sweep_datasets() {
        let (serial_bytes, serial_steps) = run(&ds, 1);
        assert!(
            serial_steps.iter().all(|&(m, _)| m == DispatchMode::Serial),
            "{}: single-thread executor must stay serial",
            ds.name()
        );
        for threads in [2usize, 4, 8] {
            let (bytes, steps) = run(&ds, threads);
            assert_eq!(
                bytes,
                serial_bytes,
                "{} at {threads} threads: batched factor bytes diverge from serial",
                ds.name()
            );
            assert!(
                steps.iter().any(|&(m, _)| m == DispatchMode::LevelBatched),
                "{} at {threads} threads: no step used batched dispatch",
                ds.name()
            );
            // Every certified plan batches as soon as a step has two tasks
            // to run. An uncertified plan falls back to serial silently,
            // so a serial multi-task step means a dataset plan stopped
            // certifying mid-run.
            for (i, &(mode, tasks)) in steps.iter().enumerate() {
                assert!(
                    tasks < 2 || mode == DispatchMode::LevelBatched,
                    "{} at {threads} threads: step {i} ran {tasks} tasks as {mode:?}",
                    ds.name()
                );
            }
        }
    }
}
