//! Resource-Aware Incremental Smoothing and Mapping (RA-ISAM2, §4.1) — the
//! paper's core algorithmic contribution.

use std::collections::BTreeSet;
use std::sync::Arc;

use supernova_factors::{Factor, Key, Values, Variable};
use supernova_runtime::{RelinCostModel, StepBudget, StepTrace};

use crate::{IncrementalCore, OnlineSolver};

/// RA-ISAM2 options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaIsam2Config {
    /// Relevance threshold β below which a variable is never considered.
    pub beta: f64,
    /// Supernode amalgamation slack.
    pub relax: usize,
    /// Target processing deadline per step in seconds (33.3 ms for the
    /// paper's 30 FPS requirement).
    pub target_seconds: f64,
    /// Fraction of the target the selection is allowed to fill; the rest
    /// absorbs cost-model error so the deadline is honored (<1).
    pub safety: f64,
}

impl Default for RaIsam2Config {
    fn default() -> Self {
        RaIsam2Config {
            beta: 0.02,
            relax: 1,
            target_seconds: 1.0 / 30.0,
            safety: 0.8,
        }
    }
}

/// The resource-aware incremental solver.
///
/// Like [`Isam2`](crate::Isam2), but instead of relinearizing *every*
/// variable past β, it greedily selects the highest-relevance variables
/// whose predicted relinearization cost — Algorithm 1's path-cost walk over
/// the elimination tree, priced by the runtime's
/// [`RelinCostModel`] — still fits the per-step deadline. Loop-closure cost
/// is thereby amortized over several steps while every step stays under the
/// target (§4.1).
pub struct RaIsam2 {
    core: IncrementalCore,
    config: RaIsam2Config,
    /// The live budget knob: starts at `target_seconds · safety` and can be
    /// degraded/recovered at runtime (the serving layer's overload policy).
    budget: StepBudget,
    cost: Arc<dyn RelinCostModel>,
    last_selected: usize,
    last_deferred: usize,
    steps_since_reorder: usize,
}

impl std::fmt::Debug for RaIsam2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaIsam2")
            .field("config", &self.config)
            .field("num_vars", &self.core.num_vars())
            .finish()
    }
}

impl RaIsam2 {
    /// Creates an empty solver over the given cost model (obtained from the
    /// runtime for the platform the system runs on).
    pub fn new(config: RaIsam2Config, cost: Arc<dyn RelinCostModel>) -> Self {
        RaIsam2 {
            core: IncrementalCore::new(config.relax),
            config,
            budget: StepBudget::new(config.target_seconds, config.safety),
            cost,
            last_selected: 0,
            last_deferred: 0,
            steps_since_reorder: 0,
        }
    }

    /// The live per-step budget (including its degradation level).
    pub fn budget(&self) -> StepBudget {
        self.budget
    }

    /// Mutable access to the budget knob, e.g. to degrade a session under
    /// server overload. Takes effect from the next [`step`](OnlineSolver::step).
    pub fn budget_mut(&mut self) -> &mut StepBudget {
        &mut self.budget
    }

    /// Returns the solver to its freshly-constructed state (empty graph,
    /// cleared plan/numeric caches and host schedule, zeroed counters,
    /// budget back at degradation level 0), keeping the configuration, the
    /// cost model and the installed executor. Replaying the same steps
    /// after a reset is bit-identical to a fresh solver.
    pub fn reset(&mut self) {
        self.core.reset();
        self.budget = StepBudget::new(self.config.target_seconds, self.config.safety);
        self.last_selected = 0;
        self.last_deferred = 0;
        self.steps_since_reorder = 0;
    }

    /// The underlying incremental engine.
    pub fn core(&self) -> &IncrementalCore {
        &self.core
    }

    /// Mutable access to the engine, e.g. to install a host executor with
    /// [`IncrementalCore::set_executor`] before replaying a dataset.
    pub fn core_mut(&mut self) -> &mut IncrementalCore {
        &mut self.core
    }

    /// Variables selected for relinearization in the last step.
    pub fn last_selected(&self) -> usize {
        self.last_selected
    }

    /// Variables past β that the last step deferred to stay on budget.
    pub fn last_deferred(&self) -> usize {
        self.last_deferred
    }
}

impl OnlineSolver for RaIsam2 {
    fn step(&mut self, new_variable: Variable, factors: Vec<Arc<dyn Factor>>) -> StepTrace {
        self.core.add_variable(new_variable);
        for f in factors {
            self.core.add_factor(f);
        }
        let budget = self.budget.effective_seconds();

        // Budget-gated fill-reducing reordering: only commit when the
        // resulting one-time full re-factorization itself fits well inside
        // the deadline (RA must never trade a reorder for a missed frame).
        self.steps_since_reorder += 1;
        if self.core.fill_ratio() > crate::isam2::REORDER_FILL_RATIO
            && self.steps_since_reorder >= crate::isam2::REORDER_MIN_PERIOD
        {
            if let Some(plan) = self.core.reorder_candidate() {
                let full: f64 = plan
                    .symbolic()
                    .nodes()
                    .iter()
                    .map(|n| self.cost.predict_node_seconds(n.pivot_dim, n.rem_dim, 0))
                    .sum();
                if full <= 0.5 * budget {
                    self.core.apply_reorder(plan);
                    self.steps_since_reorder = 0;
                }
            }
        }

        // Relinearization does not change the sparsity structure, so one
        // symbolic analysis serves both cost estimation and factorization.
        self.core.analyze();
        // lint: allow(unwrap) — core.analyze() ran earlier in this update
        let sym = self.core.symbolic().expect("analyzed");
        let node_bytes = self.core.node_factor_bytes(sym);
        let node_cost = |s: usize| {
            let info = &sym.nodes()[s];
            self.cost
                .predict_node_seconds(info.pivot_dim, info.rem_dim, node_bytes[s])
        };

        // Mandatory work: the new pose's factors already dirtied a path
        // (everything, right after a reorder invalidated the cache).
        let mandatory: Vec<usize> = if self.core.has_numeric_cache() {
            self.core
                .dirty_blocks()
                .iter()
                .map(|&b| sym.node_of_block(b))
                .collect()
        } else {
            (0..sym.nodes().len()).collect()
        };
        let mut visited: BTreeSet<usize> = sym.ancestor_closure(mandatory).into_iter().collect();
        let mandatory_list: Vec<usize> = visited.iter().copied().collect();
        let (pending_elems, pending_factors) = self.core.pending_relin();
        let mut spent = mandatory_list.iter().map(|&s| node_cost(s)).sum::<f64>()
            + self.cost.solve_seconds(sym.l_nnz_scalars())
            + self
                .cost
                .symbolic_seconds(sym.pattern_size_of_nodes(&mandatory_list))
            + self.cost.relin_seconds(pending_elems, pending_factors);
        let mut nodes_visited = mandatory_list.len();

        // Candidates in descending relevance order (the greedy of §4.1).
        let mut candidates: Vec<(Key, f64)> = (0..self.core.num_vars())
            .map(Key)
            .map(|k| (k, self.core.relevance(k)))
            .filter(|&(_, s)| s > self.config.beta)
            .collect();
        // lint: allow(unwrap) — scores are sums of finite residuals
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));

        let mut selected: Vec<Key> = Vec::new();
        let mut selected_factors: BTreeSet<usize> = BTreeSet::new();
        let mut deferred = 0usize;
        for (ci, &(cand, _)) in candidates.iter().enumerate() {
            if spent >= budget {
                deferred += candidates.len() - ci;
                break;
            }
            // Algorithm 1: the variables sharing a factor with the
            // candidate, and the paths from their nodes to the root,
            // stopping at already-visited nodes.
            let mut affected = self.core.graph().neighbors(cand);
            affected.push(cand);
            let mut marginal_nodes: Vec<usize> = Vec::new();
            let mut probe: BTreeSet<usize> = BTreeSet::new();
            for u in &affected {
                let mut cur = Some(sym.node_of_block(self.core.block_of_key(*u)));
                while let Some(s) = cur {
                    if visited.contains(&s) || probe.contains(&s) {
                        break;
                    }
                    probe.insert(s);
                    marginal_nodes.push(s);
                    cur = sym.nodes()[s].parent;
                }
            }
            nodes_visited += marginal_nodes.len().max(1);
            let marginal_factors: Vec<usize> = self
                .core
                .graph()
                .factors_of(cand)
                .iter()
                .copied()
                .filter(|fi| !selected_factors.contains(fi))
                .collect();
            let relin_elems: usize = marginal_factors
                .iter()
                .map(|&fi| self.core.factor_jacobian_elems(fi))
                .sum();
            let marginal = marginal_nodes.iter().map(|&s| node_cost(s)).sum::<f64>()
                + self.cost.relin_seconds(relin_elems, marginal_factors.len())
                + self
                    .cost
                    .symbolic_seconds(sym.pattern_size_of_nodes(&marginal_nodes));
            if spent + marginal <= budget {
                spent += marginal;
                visited.extend(marginal_nodes);
                selected_factors.extend(marginal_factors);
                selected.push(cand);
            } else {
                deferred += 1;
            }
        }
        self.last_selected = selected.len();
        self.last_deferred = deferred;

        self.core.relinearize_vars(&selected);
        let mut trace = self.core.factorize_and_solve();
        trace.selection_nodes_visited = nodes_visited;
        trace
    }

    fn pose_estimate(&self, key: Key) -> Variable {
        self.core.pose_estimate(key)
    }

    fn estimate(&self) -> Values {
        self.core.estimate()
    }

    fn num_poses(&self) -> usize {
        self.core.num_vars()
    }

    fn name(&self) -> &'static str {
        "RA-ISAM2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supernova_factors::{BetweenFactor, NoiseModel, PriorFactor, Se2};
    use supernova_hw::Platform;
    use supernova_runtime::CostModel;

    fn solver_with(target: f64) -> RaIsam2 {
        let cost = Arc::new(CostModel::new(Platform::supernova(2)));
        RaIsam2::new(
            RaIsam2Config {
                target_seconds: target,
                ..RaIsam2Config::default()
            },
            cost,
        )
    }

    fn drive_line(solver: &mut RaIsam2, n: usize) -> Vec<Se2> {
        let truth: Vec<Se2> = (0..n).map(|i| Se2::new(i as f64, 0.0, 0.0)).collect();
        for i in 0..n {
            let mut factors: Vec<Arc<dyn Factor>> = Vec::new();
            if i == 0 {
                factors.push(Arc::new(PriorFactor::se2(
                    Key(0),
                    truth[0],
                    NoiseModel::isotropic(3, 0.01),
                )));
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(Arc::new(BetweenFactor::se2(
                    Key(i - 1),
                    Key(i),
                    z,
                    NoiseModel::isotropic(3, 0.05),
                )));
            }
            // Slightly corrupted initial guess.
            let init = truth[i].compose(Se2::new(0.03, -0.02, 0.01));
            solver.step(Variable::Se2(init), factors);
        }
        truth
    }

    #[test]
    fn generous_budget_behaves_like_isam2() {
        let mut solver = solver_with(10.0); // effectively unconstrained
        let truth = drive_line(&mut solver, 20);
        let est = solver.estimate();
        for (i, t) in truth.iter().enumerate() {
            let p = est.get(Key(i)).as_se2().copied().unwrap();
            assert!(
                p.translation_distance(t) < 0.05,
                "pose {i}: {}",
                p.translation_distance(t)
            );
        }
        assert_eq!(solver.last_deferred(), 0);
    }

    #[test]
    fn tiny_budget_defers_relinearization() {
        let mut tight = solver_with(1e-7);
        drive_line(&mut tight, 25);
        let mut loose = solver_with(10.0);
        drive_line(&mut loose, 25);
        assert!(
            tight.last_selected() <= loose.last_selected(),
            "tight budget selected more ({}) than loose ({})",
            tight.last_selected(),
            loose.last_selected()
        );
    }

    #[test]
    fn selection_overhead_is_reported() {
        let mut solver = solver_with(1.0 / 30.0);
        let truth: Vec<Se2> = (0..5).map(|i| Se2::new(i as f64, 0.0, 0.0)).collect();
        let mut last = StepTrace::default();
        for i in 0..5 {
            let mut factors: Vec<Arc<dyn Factor>> = Vec::new();
            if i == 0 {
                factors.push(Arc::new(PriorFactor::se2(
                    Key(0),
                    truth[0],
                    NoiseModel::isotropic(3, 0.01),
                )));
            } else {
                let z = truth[i - 1].inverse().compose(truth[i]);
                factors.push(Arc::new(BetweenFactor::se2(
                    Key(i - 1),
                    Key(i),
                    z,
                    NoiseModel::isotropic(3, 0.05),
                )));
            }
            last = solver.step(Variable::Se2(truth[i]), factors);
        }
        assert!(last.selection_nodes_visited > 0);
    }
}
