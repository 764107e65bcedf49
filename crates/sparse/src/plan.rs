//! The reusable execution-plan IR: the numeric factorization's *plan* half.
//!
//! [`ExecutionPlan::from_symbolic`] lowers a [`SymbolicFactor`] into a flat
//! task list with everything the numeric *execute* half needs precomputed:
//! topological levels, per-task dependency structure, front-local scatter
//! offsets for Hessian assembly, per-child extend-add scatter blocks, and
//! per-task workspace sizes. The plan is derived once per symbolic change
//! and reused across every re-factorization until the structure (or the
//! elimination order) changes — see `solvers::engine`'s plan cache.
//!
//! Because every scatter target is fixed at plan time and children are
//! merged in the plan's fixed child order, executing the plan serially or
//! on the worker pool ([`crate::ParallelExecutor`]) produces bit-identical
//! factors: each task is a pure function of `H` and its children's cached
//! update matrices, independent of completion order.

use std::sync::OnceLock;

use crate::interference::{self, PlanCertificate};
use crate::SymbolicFactor;

/// One rectangular block copied (added) from a child's update matrix into
/// the parent's frontal workspace during extend-add.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScatterBlock {
    /// Row offset in the child's update matrix.
    pub src_row: usize,
    /// Column offset in the child's update matrix.
    pub src_col: usize,
    /// Row offset in the parent's front.
    pub dst_row: usize,
    /// Column offset in the parent's front.
    pub dst_col: usize,
    /// Block height (scalar rows).
    pub rows: usize,
    /// Block width (scalar columns).
    pub cols: usize,
}

/// The extend-add of one child into its parent's front: the child task id
/// and every scatter-block target, fixed at plan time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildMerge {
    /// Task (= supernode) index of the child whose update matrix is merged.
    pub child: usize,
    /// Scatter targets, in a fixed deterministic order.
    pub blocks: Vec<ScatterBlock>,
    /// Total scalar elements scattered (for op tracing).
    pub elems: usize,
}

/// One supernode task of the plan.
#[derive(Clone, Debug)]
pub struct PlanTask {
    /// Supernode id — equals the task's index in [`ExecutionPlan::tasks`].
    pub node: usize,
    /// Parent task, `None` for elimination-forest roots.
    pub parent: Option<usize>,
    /// Number of child tasks (the task's initial dependency count).
    pub num_children: usize,
    /// Topological level: 0 for leaves, `1 + max(children)` otherwise.
    pub level: usize,
    /// First owned block column.
    pub first_col: usize,
    /// Number of owned block columns.
    pub ncols: usize,
    /// Scalar pivot dimension `m`.
    pub pivot_dim: usize,
    /// Scalar remainder dimension `n`.
    pub rem_dim: usize,
    /// `(block_row, front-local scalar offset)` for every front block row,
    /// sorted by block row — the precomputed scatter-target table that
    /// replaces the per-node map the executor used to allocate.
    pub row_offsets: Vec<(usize, usize)>,
    /// Front-local scalar offset of each owned pivot column.
    pub col_offsets: Vec<usize>,
    /// Extend-add scatter programs, one per child, in the symbolic
    /// factor's fixed child order (the determinism anchor).
    pub merges: Vec<ChildMerge>,
    /// Structural signature (for numeric-cache reuse across re-analyses).
    pub sig: (usize, usize, u64),
    /// Scalar elements of frontal workspace this task needs.
    pub workspace_elems: usize,
}

impl PlanTask {
    /// Scalar dimension of the square frontal workspace (`m + n`).
    pub fn front_dim(&self) -> usize {
        self.pivot_dim + self.rem_dim
    }

    /// Block columns owned by this task.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.first_col..self.first_col + self.ncols
    }

    /// Front-local scalar offset of block row `b`, if `b` is in the front.
    pub fn local_offset(&self, b: usize) -> Option<usize> {
        self.row_offsets
            .binary_search_by_key(&b, |&(row, _)| row)
            .ok()
            .map(|i| self.row_offsets[i].1)
    }

    /// Approximate factorization flops of the task (Cholesky + TRSM +
    /// SYRK), the cost weight used for critical-path analysis.
    pub fn cost(&self) -> u64 {
        let m = self.pivot_dim as u64;
        let n = self.rem_dim as u64;
        m * m * m / 3 + n * m * m + n * n * m
    }
}

/// A topologically-leveled, scatter-resolved execution plan for the
/// supernodal numeric factorization, derived from a [`SymbolicFactor`].
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    tasks: Vec<PlanTask>,
    postorder: Vec<usize>,
    levels: Vec<Vec<usize>>,
    node_of_block: Vec<usize>,
    max_workspace_elems: usize,
    total_dim: usize,
    /// Lazily proven [`certificate`](Self::certificate); reset on mutation.
    certificate: OnceLock<Option<PlanCertificate>>,
}

impl ExecutionPlan {
    /// Lowers a symbolic factorization into an execution plan.
    pub fn from_symbolic(sym: &SymbolicFactor) -> Self {
        let nodes = sym.nodes();
        let dims = sym.block_dims();
        let mut tasks: Vec<PlanTask> = Vec::with_capacity(nodes.len());
        for (s, info) in nodes.iter().enumerate() {
            // Front-local scalar offsets, in `rows` order (sorted already).
            let mut row_offsets = Vec::with_capacity(info.rows.len());
            let mut off = 0usize;
            for &br in &info.rows {
                row_offsets.push((br, off));
                off += dims[br];
            }
            debug_assert!(row_offsets.windows(2).all(|w| w[0].0 < w[1].0));
            let col_offsets: Vec<usize> =
                row_offsets[..info.ncols].iter().map(|&(_, o)| o).collect();

            // Extend-add scatter programs, fixed child order.
            let mut merges = Vec::with_capacity(info.children.len());
            for &c in &info.children {
                let rem = nodes[c].remainder_rows();
                let mut coff = Vec::with_capacity(rem.len());
                let mut o = 0usize;
                for &br in rem {
                    coff.push(o);
                    o += dims[br];
                }
                let mut blocks = Vec::new();
                let mut elems = 0usize;
                for (bj, &rj) in rem.iter().enumerate() {
                    let w = dims[rj];
                    // Multifrontal containment: a child's remainder rows
                    // are a subset of its parent's front.
                    let dst_col = row_offsets
                        .binary_search_by_key(&rj, |&(row, _)| row)
                        .map(|i| row_offsets[i].1)
                        // lint: allow(unwrap) — containment documented above
                        .expect("child remainder row missing from parent front");
                    for (bi, &ri) in rem.iter().enumerate().skip(bj) {
                        let h = dims[ri];
                        let dst_row = row_offsets
                            .binary_search_by_key(&ri, |&(row, _)| row)
                            .map(|i| row_offsets[i].1)
                            // lint: allow(unwrap) — same containment argument
                            .expect("child remainder row missing from parent front");
                        blocks.push(ScatterBlock {
                            src_row: coff[bi],
                            src_col: coff[bj],
                            dst_row,
                            dst_col,
                            rows: h,
                            cols: w,
                        });
                        elems += h * w;
                    }
                }
                merges.push(ChildMerge {
                    child: c,
                    blocks,
                    elems,
                });
            }

            let front = info.front_dim();
            tasks.push(PlanTask {
                node: s,
                parent: info.parent,
                num_children: info.children.len(),
                level: 0, // filled below
                first_col: info.first_col,
                ncols: info.ncols,
                pivot_dim: info.pivot_dim,
                rem_dim: info.rem_dim,
                row_offsets,
                col_offsets,
                merges,
                sig: info.signature(),
                workspace_elems: front * front,
            });
        }

        // Topological levels in one postorder sweep (children first).
        let postorder = sym.postorder().to_vec();
        for &s in &postorder {
            let lvl = tasks[s]
                .merges
                .iter()
                .map(|m| tasks[m.child].level + 1)
                .max()
                .unwrap_or(0);
            tasks[s].level = lvl;
        }
        let depth = tasks.iter().map(|t| t.level).max().map_or(0, |l| l + 1);
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); depth];
        for t in &tasks {
            levels[t.level].push(t.node);
        }

        let max_workspace_elems = tasks.iter().map(|t| t.workspace_elems).max().unwrap_or(0);
        let node_of_block = (0..sym.num_blocks())
            .map(|b| sym.node_of_block(b))
            .collect();

        ExecutionPlan {
            tasks,
            postorder,
            levels,
            node_of_block,
            max_workspace_elems,
            total_dim: sym.total_dim(),
            certificate: OnceLock::new(),
        }
    }

    /// The plan's level-safety proof: [`interference::certify`] runs on
    /// the first call — the executor makes it only for a parallel run —
    /// and the verdict is kept until the plan is mutated. `None` when the
    /// plan cannot be proven level-safe; the executor then runs it serially.
    pub fn certificate(&self) -> Option<&PlanCertificate> {
        self.certificate
            .get_or_init(|| interference::certify(self).ok())
            .as_ref()
    }

    /// The tasks, indexed by supernode id.
    pub fn tasks(&self) -> &[PlanTask] {
        &self.tasks
    }

    /// Number of tasks (= supernodes).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Task ids in children-before-parents order.
    pub fn postorder(&self) -> &[usize] {
        &self.postorder
    }

    /// Task ids grouped by topological level, leaves first. Tasks within a
    /// level are mutually independent.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Mutable task table, exposed for mutation testing of the
    /// interference checker. Drops the plan's certificate, so the next
    /// [`certificate`](Self::certificate) call re-proves the edited plan.
    #[doc(hidden)]
    pub fn tasks_mut(&mut self) -> &mut [PlanTask] {
        self.certificate.take();
        &mut self.tasks
    }

    /// Mutable level table, exposed for mutation testing of the
    /// interference checker (see [`Self::tasks_mut`]).
    #[doc(hidden)]
    pub fn levels_mut(&mut self) -> &mut Vec<Vec<usize>> {
        self.certificate.take();
        &mut self.levels
    }

    /// The task owning block column `b`.
    pub fn node_of_block(&self, b: usize) -> usize {
        self.node_of_block[b]
    }

    /// Number of block columns the plan covers.
    pub fn num_blocks(&self) -> usize {
        self.node_of_block.len()
    }

    /// Total scalar dimension of the system.
    pub fn total_dim(&self) -> usize {
        self.total_dim
    }

    /// Largest frontal workspace (scalar elements) any task needs — the
    /// size each worker's reusable buffer is grown to once.
    pub fn max_workspace_elems(&self) -> usize {
        self.max_workspace_elems
    }

    /// Scalars each kernel pack buffer needs for the plan's largest front
    /// ([`supernova_linalg::pack_elems_bound`] over all tasks) — the size
    /// each worker's [`supernova_linalg::KernelScratch`] is pre-grown to,
    /// so the blocked kernels never allocate mid-execution.
    pub fn max_pack_elems(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| supernova_linalg::pack_elems_bound(t.front_dim()))
            .max()
            .unwrap_or(0)
    }

    /// Mode-aware variant of [`Self::max_pack_elems`]: the narrow modes
    /// pack into f32 arenas whose row-panel rounding differs (the f32
    /// engine uses wider microkernel tiles), so workers executing under a
    /// narrow [`supernova_linalg::NumericMode`] pre-grow their scratch
    /// with this bound instead.
    pub fn max_pack_elems_mode(&self, mode: supernova_linalg::NumericMode) -> usize {
        self.tasks
            .iter()
            .map(|t| supernova_linalg::pack_elems_bound_mode(t.front_dim(), mode))
            .max()
            .unwrap_or(0)
    }

    /// Every listed task plus all its ancestors, deduplicated and sorted —
    /// the affected set of an incremental re-factorization.
    pub fn ancestor_closure(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut marked = vec![false; self.tasks.len()];
        for s in seeds {
            let mut cur = Some(s);
            while let Some(c) = cur {
                if marked[c] {
                    break;
                }
                marked[c] = true;
                cur = self.tasks[c].parent;
            }
        }
        (0..self.tasks.len()).filter(|&s| marked[s]).collect()
    }

    /// Sum of per-task costs — the serial work of a full execution.
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(PlanTask::cost).sum()
    }

    /// Cost of the heaviest root-to-leaf dependency chain of whole tasks —
    /// the lower bound on any parallel execution of this plan.
    /// `total_cost / critical_path_cost` is the plan's available speedup.
    pub fn critical_path_cost(&self) -> u64 {
        let mut path = vec![0u64; self.tasks.len()];
        let mut best = 0u64;
        for &s in &self.postorder {
            let sub = self.tasks[s]
                .merges
                .iter()
                .map(|m| path[m.child])
                .max()
                .unwrap_or(0);
            path[s] = sub + self.tasks[s].cost();
            best = best.max(path[s]);
        }
        best
    }

    /// Fraction of the plan's total modeled work concentrated in its single
    /// heaviest task.
    pub fn largest_task_fraction(&self) -> f64 {
        let (max, sum) = self.tasks.iter().fold((0u64, 0u64), |(mx, sm), t| {
            (mx.max(t.cost()), sm + t.cost())
        });
        if sum == 0 {
            0.0
        } else {
            max as f64 / sum as f64
        }
    }

    /// Modeled occupancy of a `workers`-wide level-batched execution: per
    /// task level, the level's total work divided by `workers ×` its
    /// heaviest task (capped at 1 — the level can't finish before its
    /// heaviest task), averaged over levels weighted by level work. 1.0
    /// means every barrier-to-barrier interval keeps all workers busy; a
    /// single-task level scores `1 / workers`.
    pub fn level_occupancy(&self, workers: usize) -> f64 {
        let workers = workers.max(1) as f64;
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for level in &self.levels {
            let sum: u64 = level.iter().map(|&s| self.tasks[s].cost()).sum();
            let max = level
                .iter()
                .map(|&s| self.tasks[s].cost())
                .max()
                .unwrap_or(0);
            if max == 0 {
                continue;
            }
            let occ = (sum as f64 / (workers * max as f64)).min(1.0);
            weighted += occ * sum as f64;
            weight += sum as f64;
        }
        // lint: allow(float-eq) — structural-zero test: no level contributed work
        if weight == 0.0 {
            0.0
        } else {
            weighted / weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPattern;

    fn loopy() -> SymbolicFactor {
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        p.add_block_edge(3, 6);
        SymbolicFactor::analyze(&p, 0)
    }

    #[test]
    fn plan_mirrors_symbolic_structure() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        assert_eq!(plan.num_tasks(), sym.nodes().len());
        assert_eq!(plan.postorder(), sym.postorder());
        for (task, info) in plan.tasks().iter().zip(sym.nodes()) {
            assert_eq!(task.parent, info.parent);
            assert_eq!(task.num_children, info.children.len());
            assert_eq!(task.pivot_dim, info.pivot_dim);
            assert_eq!(task.rem_dim, info.rem_dim);
            assert_eq!(task.sig, info.signature());
            assert_eq!(task.workspace_elems, info.front_dim() * info.front_dim());
            // Child order is exactly the symbolic child order.
            let merge_children: Vec<usize> = task.merges.iter().map(|m| m.child).collect();
            assert_eq!(merge_children, info.children);
        }
    }

    #[test]
    fn row_offsets_are_partial_sums_of_dims() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for (task, info) in plan.tasks().iter().zip(sym.nodes()) {
            let mut off = 0usize;
            for (&br, &(row, o)) in info.rows.iter().zip(&task.row_offsets) {
                assert_eq!(br, row);
                assert_eq!(o, off);
                assert_eq!(task.local_offset(br), Some(off));
                off += sym.block_dims()[br];
            }
            assert_eq!(off, task.front_dim());
            assert_eq!(task.local_offset(usize::MAX), None);
        }
    }

    #[test]
    fn levels_respect_dependencies() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        let covered: usize = plan.levels().iter().map(Vec::len).sum();
        assert_eq!(covered, plan.num_tasks());
        for task in plan.tasks() {
            if let Some(p) = task.parent {
                assert!(
                    plan.tasks()[p].level > task.level,
                    "parent {p} not above child {}",
                    task.node
                );
            }
        }
    }

    #[test]
    fn scatter_blocks_stay_inside_parent_front() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for task in plan.tasks() {
            let dim = task.front_dim();
            for mg in &task.merges {
                let child = &plan.tasks()[mg.child];
                let cdim = child.rem_dim;
                let mut elems = 0usize;
                for b in &mg.blocks {
                    assert!(b.dst_row + b.rows <= dim && b.dst_col + b.cols <= dim);
                    assert!(b.src_row + b.rows <= cdim && b.src_col + b.cols <= cdim);
                    // Lower triangle only.
                    assert!(b.dst_row >= b.dst_col);
                    elems += b.rows * b.cols;
                }
                assert_eq!(elems, mg.elems);
            }
        }
    }

    #[test]
    fn ancestor_closure_matches_symbolic() {
        let sym = loopy();
        let plan = ExecutionPlan::from_symbolic(&sym);
        for seed in 0..plan.num_tasks() {
            assert_eq!(plan.ancestor_closure([seed]), sym.ancestor_closure([seed]));
        }
    }

    #[test]
    fn critical_path_bounded_by_total() {
        let plan = ExecutionPlan::from_symbolic(&loopy());
        assert!(plan.total_cost() > 0);
        assert!(plan.critical_path_cost() <= plan.total_cost());
        assert!(plan.critical_path_cost() > 0);
        let frac = plan.largest_task_fraction();
        assert!(frac > 0.0 && frac <= 1.0);
        let occ = plan.level_occupancy(4);
        assert!(occ > 0.0 && occ <= 1.0);
        assert_eq!(plan.level_occupancy(1), 1.0);
    }

    #[test]
    fn only_a_parallel_run_of_several_tasks_certifies() {
        use crate::{DispatchMode, ParallelExecutor, Workspace};
        let plan = ExecutionPlan::from_symbolic(&loopy());
        let noop = |_s: usize, _ws: &mut Workspace| Ok::<(), ()>(());
        let all = vec![true; plan.num_tasks()];
        let mut root_only = vec![false; plan.num_tasks()];
        root_only[plan.postorder()[plan.num_tasks() - 1]] = true;
        // One thread, or one recomputed task, never asks for the proof.
        for (threads, recompute) in [(1, &all), (2, &root_only)] {
            let (res, sched) = ParallelExecutor::new(threads).run(&plan, recompute, noop);
            assert!(res.is_ok());
            assert_eq!(sched.mode, DispatchMode::Serial);
            assert!(
                plan.certificate.get().is_none(),
                "{threads} thread(s) certified"
            );
        }
        let (res, sched) = ParallelExecutor::new(2).run(&plan, &all, noop);
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::LevelBatched);
        assert!(plan.certificate.get().is_some_and(Option::is_some));
    }
}
