//! Every metric the benchmark reports: name, unit and the direction that
//! counts as better. `BENCHMARK.json` lists the same entries; the package
//! tests keep the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("step_p50_ms", "ms", Lower),
    m("step_p99_ms", "ms", Lower),
    m("steps_per_s", "1/s", Higher),
    m("goodput_steps_per_s", "1/s", Higher),
    m("deadline_met_frac", "frac", Higher),
    m("completed_frac", "frac", Higher),
    m("ape_rmse_m", "m", Lower),
    m("soc_step_p50_ms", "ms", Lower),
    m("soc_step_p99_ms", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("datasets.generate_s", "s", Lower),
    m("factors.linearize_us_per_factor", "us", Lower),
    m("solvers.step_self_ms_p50", "ms", Lower),
    m("solvers.relin_factors_per_step", "count", Lower),
    m("solvers.relin_jacobian_elems_per_step", "count", Lower),
    m("solvers.selection_nodes_visited_per_step", "count", Lower),
    m("solvers.selected_vars_per_step", "count", Higher),
    m("solvers.deferred_vars_per_step", "count", Lower),
    m("solvers.reorders", "count", Lower),
    m("solvers.damping_events", "count", Lower),
    m("sparse.plan_rebuilds_per_step", "count", Lower),
    m("sparse.symbolic_pattern_elems_per_step", "count", Lower),
    m("sparse.exec_ms_p50", "ms", Lower),
    m("sparse.tasks_per_step", "count", Lower),
    m("sparse.worker_busy_frac", "frac", Higher),
    m("sparse.dispatch_overhead_us_per_task", "us", Lower),
    m("sparse.level_occupancy", "frac", Higher),
    m("sparse.split_units_per_step", "count", Lower),
    m("linalg.kernel_flops_per_step", "flop", Lower),
    m("linalg.gflops", "GFLOP/s", Higher),
    m("runtime.soc_numeric_ms_p50", "ms", Lower),
    m("runtime.soc_overhead_ms_p50", "ms", Lower),
    m("serve.queue_wait_ms_p50", "ms", Lower),
    m("serve.queue_wait_ms_p99", "ms", Lower),
    m("serve.service_ms_p50", "ms", Lower),
    m("serve.service_ms_p99", "ms", Lower),
    m("serve.worker_busy_frac", "frac", Lower),
    m("serve.max_queue_depth", "count", Lower),
    m("serve.degraded_step_frac", "frac", Lower),
    m("fleet.submit_call_ms_p50", "ms", Lower),
    m("fleet.submit_call_ms_p99", "ms", Lower),
    m("fleet.checkpoint_call_ms_p50", "ms", Lower),
    m("fleet.estimate_call_ms_p50", "ms", Lower),
    m("fleet.create_call_ms_p50", "ms", Lower),
    m("fleet.close_call_ms_p50", "ms", Lower),
    m("fleet.checkpoints", "count", Lower),
    m("fleet.compactions", "count", Lower),
    m("fleet.journal_records", "count", Lower),
    m("trace.overhead_frac", "frac", Lower),
    m("loadgen.lag_ms_p99", "ms", Lower),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
