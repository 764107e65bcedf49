//! Numeric multifrontal factorization with incremental re-factorization.
//!
//! Since the plan/exec split, every (re)factorization is the execution of
//! an [`ExecutionPlan`] against reusable per-worker [`Workspace`] buffers:
//! the sym-based [`NumericFactor::factorize`]/[`NumericFactor::refactor`]
//! entry points derive a throwaway plan and run it serially, while the
//! incremental engine caches one plan per symbolic structure and drives
//! [`NumericFactor::execute_plan`] directly (on the [`ParallelExecutor`]
//! worker pool when the plan is certified — results are bit-identical).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use supernova_linalg::ops::{Op, OpTrace};
use supernova_linalg::{
    gemv, partial_cholesky_scratch_mode, solve_lower, solve_lower_transpose, Mat, NumericMode,
    Transpose,
};

use crate::executor::{HostSchedule, ParallelExecutor, Workspace};
use crate::{BlockMat, ExecutionPlan, SymbolicFactor};

/// A supernode's Cholesky pivot was not positive definite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactorizeError {
    node: usize,
    front_col: usize,
}

impl FactorizeError {
    /// Index of the failing supernode.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Scalar column within the node's front at which the pivot failed.
    pub fn front_col(&self) -> usize {
        self.front_col
    }
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "front of supernode {} is not positive definite at column {}",
            self.node, self.front_col
        )
    }
}

impl Error for FactorizeError {}

/// The operations performed to (re)compute one supernode.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    /// Supernode index (into [`SymbolicFactor::nodes`]).
    pub node: usize,
    /// Primitive operations in execution order.
    pub ops: OpTrace,
}

/// Outcome of an incremental re-factorization.
#[derive(Clone, Debug, Default)]
pub struct RefactorStats {
    /// Supernodes that were recomputed this pass, with their op traces,
    /// in children-before-parents execution order.
    pub recomputed: Vec<NodeTrace>,
    /// Number of supernodes reused from the previous factorization.
    pub reused: usize,
}

impl RefactorStats {
    /// Indices of the recomputed supernodes.
    pub fn recomputed_nodes(&self) -> Vec<usize> {
        self.recomputed.iter().map(|t| t.node).collect()
    }

    /// Total flops across recomputed nodes.
    pub fn flops(&self) -> u64 {
        self.recomputed.iter().map(|t| t.ops.flops()).sum()
    }
}

/// The numeric factor of one supernode: the stored columns `[L_A; L_B]` and
/// the cached update matrix `L_C` used by the parent's extend-add.
///
/// The paper discards `L_C` after the merge (Figure 4); the incremental
/// engine instead *caches* it so that re-factorizing an affected node needs
/// only its children's cached updates, never a revisit of the whole subtree
/// (DESIGN.md decision 2).
#[derive(Clone, Debug)]
struct NodeFactor {
    /// `(m + n) × m` — `L_A` stacked over `L_B`.
    l: Mat,
    /// `n × n` lower triangle — the update matrix `L_C`.
    update: Mat,
    /// Structural signature for cache matching across re-analyses.
    sig: (usize, usize, u64),
}

/// A supernodal multifrontal Cholesky factorization `H = L Lᵀ`.
///
/// Produced by [`factorize`](Self::factorize) and updated in place by
/// [`refactor`](Self::refactor); solves run via
/// [`solve_in_place`](Self::solve_in_place).
#[derive(Clone, Debug)]
pub struct NumericFactor {
    nodes: Vec<Option<NodeFactor>>,
}

impl NumericFactor {
    /// Factorizes `h` (structure given by `sym`) from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn factorize(sym: &SymbolicFactor, h: &BlockMat) -> Result<Self, FactorizeError> {
        Self::factorize_traced(sym, h).map(|(f, _)| f)
    }

    /// Factorizes from scratch, also returning per-node op traces.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn factorize_traced(
        sym: &SymbolicFactor,
        h: &BlockMat,
    ) -> Result<(Self, RefactorStats), FactorizeError> {
        let mut factor = NumericFactor {
            nodes: vec![None; sym.nodes().len()],
        };
        let all: Vec<usize> = (0..sym.num_blocks()).collect();
        let stats = factor.refactor(sym, h, &all)?;
        Ok((factor, stats))
    }

    /// Incrementally re-factorizes after the Hessian columns of
    /// `dirty_blocks` changed (and/or after `sym` was re-analyzed).
    ///
    /// Nodes whose structure is unchanged, whose Hessian contributions are
    /// clean and whose descendants are all reused keep their stored columns
    /// and cached update matrices; everything else — the dirty nodes, the
    /// structurally changed nodes and the ancestor closure of both — is
    /// recomputed, which is exactly the affected-path cost structure that
    /// ISAM2 exhibits and RA-ISAM2's Algorithm 1 predicts.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive definite.
    pub fn refactor(
        &mut self,
        sym: &SymbolicFactor,
        h: &BlockMat,
        dirty_blocks: &[usize],
    ) -> Result<RefactorStats, FactorizeError> {
        let plan = ExecutionPlan::from_symbolic(sym);
        self.execute_plan(&plan, h, dirty_blocks, &ParallelExecutor::serial())
            .map(|(stats, _)| stats)
    }

    /// An empty factor sized for `plan` — the starting point for a from-
    /// scratch [`execute_plan`](Self::execute_plan) (every node is seeded).
    pub fn empty(plan: &ExecutionPlan) -> Self {
        NumericFactor {
            nodes: vec![None; plan.num_tasks()],
        }
    }

    /// Incrementally (re)factorizes by executing `plan` on `exec`.
    ///
    /// This is the primitive behind [`refactor`](Self::refactor): the
    /// recompute set is the ancestor closure of the dirty nodes plus every
    /// node whose structural signature no longer matches the cached factor,
    /// and each recomputed task runs against a preallocated per-worker
    /// workspace.
    ///
    /// On a multi-threaded `exec`, a plan that proves level-safe runs
    /// level-batched on the worker pool
    /// ([`DispatchMode::LevelBatched`](crate::DispatchMode)). The plan owns
    /// that proof ([`ExecutionPlan::certificate`]): it is computed on the
    /// plan's first parallel use, kept for later runs and dropped on
    /// mutation. An unprovable plan runs serially. The pool is
    /// **bit-identical** to serial execution: every task merges its
    /// children's cached update matrices in the plan's fixed child order,
    /// so f64 sums never depend on completion order.
    ///
    /// Returns the refactor stats (traces in children-before-parents plan
    /// postorder, exactly as the serial path reports them) and the wall-
    /// clock [`HostSchedule`] of the execution.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError`] if a pivot block is not positive
    /// definite; the factor's numeric cache is invalid afterwards (callers
    /// re-seed via [`empty`](Self::empty) or damping, as the engine does).
    pub fn execute_plan(
        &mut self,
        plan: &ExecutionPlan,
        h: &BlockMat,
        dirty_blocks: &[usize],
        exec: &ParallelExecutor,
    ) -> Result<(RefactorStats, HostSchedule), FactorizeError> {
        let num_nodes = plan.num_tasks();
        // Index the previous factorization by first pivot column.
        let mut old: BTreeMap<usize, NodeFactor> = BTreeMap::new();
        for nf in std::mem::take(&mut self.nodes).into_iter().flatten() {
            old.insert(nf.sig.0, nf);
        }

        // Seed the recompute set with dirty nodes and structural mismatches.
        let mut seeds: Vec<usize> = Vec::new();
        for (s, task) in plan.tasks().iter().enumerate() {
            match old.get(&task.sig.0) {
                Some(nf) if nf.sig == task.sig => {}
                _ => seeds.push(s),
            }
        }
        for &b in dirty_blocks {
            seeds.push(plan.node_of_block(b));
        }
        let recompute = plan.ancestor_closure(seeds);
        let mut is_recompute = vec![false; num_nodes];
        for &s in &recompute {
            is_recompute[s] = true;
        }

        // One write-once slot per node: reused factors are published up
        // front, recomputed ones by whichever worker runs the task.
        let slots: Vec<OnceLock<(NodeFactor, OpTrace)>> =
            (0..num_nodes).map(|_| OnceLock::new()).collect();
        let mut reused = 0usize;
        for (s, task) in plan.tasks().iter().enumerate() {
            if !is_recompute[s] {
                // lint: allow(unwrap) — signature match proved the node is cached
                let nf = old
                    .remove(&task.sig.0)
                    .expect("reused node missing from cache"); // lint: allow(unwrap)
                debug_assert_eq!(nf.sig, task.sig);
                let _ = slots[s].set((nf, OpTrace::new()));
                reused += 1;
            }
        }

        let numeric = exec.numeric();
        let (res, sched) = exec.run(plan, &is_recompute, |s, ws| {
            let out = compute_task(plan, h, s, &slots, ws, numeric)?;
            let published = slots[s].set(out).is_ok();
            debug_assert!(published, "task {s} executed twice");
            Ok(())
        });
        res?;

        let mut nodes: Vec<Option<NodeFactor>> = Vec::with_capacity(num_nodes);
        let mut traces: Vec<Option<OpTrace>> = vec![None; num_nodes];
        for (s, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Some((nf, trace)) => {
                    if is_recompute[s] {
                        traces[s] = Some(trace);
                    }
                    nodes.push(Some(nf));
                }
                None => nodes.push(None),
            }
        }
        self.nodes = nodes;

        // Report traces in plan postorder so stats are executor-independent.
        let mut stats = RefactorStats {
            recomputed: Vec::new(),
            reused,
        };
        for &s in plan.postorder() {
            if let Some(ops) = traces[s].take() {
                stats.recomputed.push(NodeTrace { node: s, ops });
            }
        }
        Ok((stats, sched))
    }

    /// Serializes the factor into a canonical little-endian byte string
    /// (per-node signature, dimensions, and f64 payloads). The CI
    /// determinism gate diffs these bytes across thread counts.
    pub fn serialize_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for nf in &self.nodes {
            let Some(nf) = nf else {
                out.push(0u8);
                continue;
            };
            out.push(1u8);
            out.extend_from_slice(&(nf.sig.0 as u64).to_le_bytes());
            out.extend_from_slice(&(nf.sig.1 as u64).to_le_bytes());
            out.extend_from_slice(&nf.sig.2.to_le_bytes());
            for m in [&nf.l, &nf.update] {
                out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
                out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
                for c in 0..m.cols() {
                    for v in m.col(c) {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Solves `H x = b` in place (`x` enters as `b`), using the supernodal
    /// forward and backward triangular solves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != sym.total_dim()` or if the factor and `sym`
    /// disagree (e.g. `refactor` was never run for this structure).
    pub fn solve_in_place(&self, sym: &SymbolicFactor, x: &mut [f64]) -> OpTrace {
        assert_eq!(x.len(), sym.total_dim(), "solve rhs length mismatch");
        let mut trace = OpTrace::new();
        // Forward: L y = b, children before parents.
        for &s in sym.postorder() {
            let info = &sym.nodes()[s];
            // lint: allow(unwrap) — postorder guarantees children factored first
            let nf = self.nodes[s].as_ref().expect("missing node factor");
            let m = info.pivot_dim;
            let n = info.rem_dim;
            let pivot_off = sym.block_offset(info.first_col);
            let la = nf.l.block(0, 0, m, m);
            let mut y = x[pivot_off..pivot_off + m].to_vec();
            solve_lower(&la, &mut y);
            trace.push(Op::Trsm { m: 1, n: m });
            if n > 0 {
                let lb = nf.l.block(m, 0, n, m);
                let upd = lb.matvec(&y);
                trace.push(Op::Gemv { m: n, n: m });
                scatter_sub(sym, info.remainder_rows(), &upd, x);
            }
            x[pivot_off..pivot_off + m].copy_from_slice(&y);
        }
        // Backward: Lᵀ x = y, parents before children.
        for &s in sym.postorder().iter().rev() {
            let info = &sym.nodes()[s];
            // lint: allow(unwrap) — postorder guarantees children factored first
            let nf = self.nodes[s].as_ref().expect("missing node factor");
            let m = info.pivot_dim;
            let n = info.rem_dim;
            let pivot_off = sym.block_offset(info.first_col);
            let la = nf.l.block(0, 0, m, m);
            let mut rhs = x[pivot_off..pivot_off + m].to_vec();
            if n > 0 {
                let lb = nf.l.block(m, 0, n, m);
                let xr = gather(sym, info.remainder_rows(), x);
                let mut corr = vec![0.0; m];
                gemv(1.0, &lb, Transpose::Yes, &xr, 0.0, &mut corr);
                trace.push(Op::Gemv { m: n, n: m });
                for (r, c) in rhs.iter_mut().zip(&corr) {
                    *r -= c;
                }
            }
            solve_lower_transpose(&la, &mut rhs);
            trace.push(Op::Trsm { m: 1, n: m });
            x[pivot_off..pivot_off + m].copy_from_slice(&rhs);
        }
        trace
    }

    /// The stored factor columns `[L_A; L_B]` of supernode `s` (rows are the
    /// node's block rows, in `rows` order).
    pub fn node_columns(&self, s: usize) -> &Mat {
        // lint: allow(unwrap) — node factored before its L block is read
        &self.nodes[s].as_ref().expect("missing node factor").l
    }

    /// The marginal covariance of one variable block: the `(b, b)` diagonal
    /// block of `H⁻¹`, recovered by back-substituting unit vectors through
    /// the factor (the standard SLAM covariance-recovery query).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range or the factor does not match `sym`.
    pub fn marginal_covariance(&self, sym: &SymbolicFactor, b: usize) -> Mat {
        let dim = sym.block_dims()[b];
        let off = sym.block_offset(b);
        let n = sym.total_dim();
        let mut cov = Mat::zeros(dim, dim);
        for c in 0..dim {
            let mut rhs = vec![0.0; n];
            rhs[off + c] = 1.0;
            self.solve_in_place(sym, &mut rhs);
            for r in 0..dim {
                cov[(r, c)] = rhs[off + r];
            }
        }
        cov
    }

    /// Densifies `L` into a full lower-triangular matrix (test helper).
    pub fn to_dense_l(&self, sym: &SymbolicFactor) -> Mat {
        let n = sym.total_dim();
        let mut l = Mat::zeros(n, n);
        for (s, info) in sym.nodes().iter().enumerate() {
            // lint: allow(unwrap) — postorder guarantees children factored first
            let nf = self.nodes[s].as_ref().expect("missing node factor");
            let pivot_off = sym.block_offset(info.first_col);
            // Scalar row offsets of the front rows.
            let mut row_offs = Vec::new();
            for &br in &info.rows {
                let off = sym.block_offset(br);
                for k in 0..sym.block_dims()[br] {
                    row_offs.push(off + k);
                }
            }
            for c in 0..info.pivot_dim {
                for (r_local, &r_global) in row_offs.iter().enumerate() {
                    if r_global >= pivot_off + c {
                        l[(r_global, pivot_off + c)] = nf.l[(r_local, c)];
                    }
                }
            }
        }
        l
    }
}

/// Executes one plan task: workspace reset, Hessian assembly via the
/// precomputed scatter offsets, extend-add of the children's cached
/// updates via the precomputed scatter blocks, then the three-step
/// partial factorization. Allocation-free apart from the result copies.
fn compute_task(
    plan: &ExecutionPlan,
    h: &BlockMat,
    s: usize,
    slots: &[OnceLock<(NodeFactor, OpTrace)>],
    ws: &mut Workspace,
    numeric: NumericMode,
) -> Result<(NodeFactor, OpTrace), FactorizeError> {
    let task = &plan.tasks()[s];
    let m = task.pivot_dim;
    let n = task.rem_dim;
    let t = m + n;
    let mut trace = OpTrace::new();
    let (front, scratch) = ws.parts();
    front.reset(t, t);
    trace.push(Op::Memset { bytes: t * t * 4 });

    // Assemble the original Hessian columns owned by this node.
    let mut asm_blocks = 0usize;
    let mut asm_elems = 0usize;
    for (jj, j) in task.cols().enumerate() {
        let cj = task.col_offsets[jj];
        for (i, blk) in h.col_blocks(j) {
            let ri = task
                .local_offset(i)
                .unwrap_or_else(|| panic!("H block ({i},{j}) outside front of node {s}"));
            front.add_block(ri, cj, blk);
            asm_blocks += 1;
            asm_elems += blk.rows() * blk.cols();
        }
    }
    if asm_blocks > 0 {
        trace.push(Op::Memcpy {
            bytes: asm_elems * 4,
        });
        trace.push(Op::ScatterAdd {
            blocks: asm_blocks,
            elems: asm_elems,
        });
    }

    // Extend-add each child's cached update matrix (the merge step), in
    // the plan's fixed child order — the determinism anchor that makes
    // parallel execution bit-identical to serial.
    for mg in &task.merges {
        // lint: allow(unwrap) — the executor completes children before parents
        let (child, _) = slots[mg.child].get().expect("child factored after parent");
        for b in &mg.blocks {
            front.add_block_from(
                b.dst_row,
                b.dst_col,
                &child.update,
                b.src_row,
                b.src_col,
                b.rows,
                b.cols,
            );
        }
        if !mg.blocks.is_empty() {
            trace.push(Op::Memcpy {
                bytes: mg.elems * 4,
            });
            trace.push(Op::ScatterAdd {
                blocks: mg.blocks.len(),
                elems: mg.elems,
            });
        }
    }

    // Three-step partial factorization (Figure 5, bottom), run through
    // the worker's pooled pack arena: zero allocation once warm, and the
    // arena's flop meter feeds the span's `kernel_flops`. The executor's
    // numeric mode picks the kernel engine (f64 / f32 / mixed).
    partial_cholesky_scratch_mode(front, m, scratch, numeric).map_err(|e| FactorizeError {
        node: s,
        front_col: e.col(),
    })?;
    trace.push(Op::Chol { n: m });
    if n > 0 {
        trace.push(Op::Trsm { m: n, n: m });
        trace.push(Op::Syrk { n, k: m });
    }

    // Copy the supernode columns out of the frontal workspace. These are
    // the published results, so they genuinely own their storage — the
    // one permitted allocation per task.
    let l = front.block(0, 0, t, m); // lint: allow(hot-alloc)
    let update = if n > 0 {
        front.block(m, m, n, n) // lint: allow(hot-alloc)
    } else {
        Mat::zeros(0, 0) // lint: allow(hot-alloc)
    };
    trace.push(Op::Memcpy { bytes: t * m * 4 });
    Ok((
        NodeFactor {
            l,
            update,
            sig: task.sig,
        },
        trace,
    ))
}

/// `x[rows] -= v`, scattering block-contiguous `v` into the global vector.
fn scatter_sub(sym: &SymbolicFactor, rows: &[usize], v: &[f64], x: &mut [f64]) {
    let mut k = 0usize;
    for &br in rows {
        let off = sym.block_offset(br);
        let d = sym.block_dims()[br];
        for i in 0..d {
            x[off + i] -= v[k + i];
        }
        k += d;
    }
}

/// Gathers `x[rows]` into a contiguous vector.
fn gather(sym: &SymbolicFactor, rows: &[usize], x: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    for &br in rows {
        let off = sym.block_offset(br);
        out.extend_from_slice(&x[off..off + sym.block_dims()[br]]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPattern;
    use supernova_linalg::cholesky_in_place;

    /// Builds a block SPD system from a pattern with deterministic values.
    fn build_h(pattern: &BlockPattern, seed: u64) -> BlockMat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let dims = pattern.block_dims().to_vec();
        let mut h = BlockMat::new(dims.clone());
        for j in 0..pattern.num_blocks() {
            for &i in pattern.col(j) {
                let m = Mat::from_fn(dims[i], dims[j], |_, _| next() * 0.3);
                h.add_to_block(i, j, &m);
            }
            // Strong diagonal for positive definiteness.
            let d = dims[j];
            let row_degree = pattern.col(j).len() as f64;
            h.add_to_block(j, j, &Mat::from_diag(&vec![4.0 + 2.0 * row_degree; d]));
        }
        h
    }

    fn assert_matches_dense(
        pattern: &BlockPattern,
        h: &BlockMat,
        num: &NumericFactor,
        sym: &SymbolicFactor,
    ) {
        let dense = h.to_dense();
        let mut l_ref = dense.clone();
        cholesky_in_place(&mut l_ref).unwrap();
        let l = num.to_dense_l(sym);
        let n = sym.total_dim();
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (l[(i, j)] - l_ref[(i, j)]).abs() < 1e-8,
                    "L({i},{j}) = {} vs dense {} (pattern nnz {})",
                    l[(i, j)],
                    l_ref[(i, j)],
                    pattern.nnz_blocks(),
                );
            }
        }
    }

    fn loopy_pattern() -> BlockPattern {
        let mut p = BlockPattern::new(vec![2, 3, 1, 2, 2, 3, 1, 2]);
        for i in 0..7 {
            p.add_block_edge(i, i + 1);
        }
        p.add_block_edge(0, 5);
        p.add_block_edge(2, 7);
        p.add_block_edge(3, 6);
        p
    }

    #[test]
    fn factorize_matches_dense_cholesky() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 3);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        assert_matches_dense(&p, &h, &num, &sym);
    }

    #[test]
    fn factorize_with_relaxed_supernodes_matches_dense() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 2);
        let h = build_h(&p, 3);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        assert_matches_dense(&p, &h, &num, &sym);
    }

    #[test]
    fn solve_inverts_system() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 9);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        let dense = h.to_dense();
        let x_true: Vec<f64> = (0..sym.total_dim()).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut x = dense.matvec(&x_true);
        let trace = num.solve_in_place(&sym, &mut x);
        assert!(!trace.is_empty());
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn refactor_after_value_change_matches_fresh() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 1);
        let (mut num, full) = NumericFactor::factorize_traced(&sym, &h0).unwrap();
        assert_eq!(full.reused, 0);

        // Change the values in block column 2 (and its row partners).
        let mut h1 = h0.clone();
        h1.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        let stats = num.refactor(&sym, &h1, &[2]).unwrap();
        assert!(stats.reused > 0, "expected some reuse on a local change");

        let fresh = NumericFactor::factorize(&sym, &h1).unwrap();
        let a = num.to_dense_l(&sym);
        let b = fresh.to_dense_l(&sym);
        for i in 0..sym.total_dim() {
            for j in 0..=i {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refactor_after_structure_change_matches_fresh() {
        // Start with a chain, then add a loop-closure edge.
        let mut p = BlockPattern::new(vec![2; 6]);
        for i in 0..5 {
            p.add_block_edge(i, i + 1);
        }
        let sym0 = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 5);
        let mut num = NumericFactor::factorize(&sym0, &h0).unwrap();

        p.add_block_edge(1, 4);
        let sym1 = SymbolicFactor::analyze(&p, 0);
        // Values consistent with h0 plus the new loop-closure block.
        let h1 = {
            let mut h = h0.clone();
            h.add_to_block(4, 1, &Mat::from_fn(2, 2, |r, c| 0.1 * (r + c) as f64));
            h
        };
        let stats = num.refactor(&sym1, &h1, &[1, 4]).unwrap();
        assert!(!stats.recomputed.is_empty());
        let fresh = NumericFactor::factorize(&sym1, &h1).unwrap();
        let a = num.to_dense_l(&sym1);
        let b = fresh.to_dense_l(&sym1);
        for i in 0..sym1.total_dim() {
            for j in 0..=i {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refactor_with_no_dirt_reuses_everything() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 8);
        let mut num = NumericFactor::factorize(&sym, &h).unwrap();
        let stats = num.refactor(&sym, &h, &[]).unwrap();
        assert_eq!(stats.recomputed.len(), 0);
        assert_eq!(stats.reused, sym.nodes().len());
    }

    #[test]
    fn traces_cover_recomputed_nodes_in_postorder() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h = build_h(&p, 2);
        let (_, stats) = NumericFactor::factorize_traced(&sym, &h).unwrap();
        let got: Vec<usize> = stats.recomputed_nodes();
        assert_eq!(got, sym.postorder().to_vec());
        assert!(stats.flops() > 0);
        for t in &stats.recomputed {
            assert!(t.ops.ops().iter().any(|o| matches!(o, Op::Chol { .. })));
        }
    }

    #[test]
    fn marginal_covariance_matches_dense_inverse() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 1);
        let h = build_h(&p, 11);
        let num = NumericFactor::factorize(&sym, &h).unwrap();
        // Dense inverse via solves against the identity.
        let dense = h.to_dense();
        let mut l = dense.clone();
        cholesky_in_place(&mut l).unwrap();
        for b in [0usize, 3, 7] {
            let cov = num.marginal_covariance(&sym, b);
            let dim = sym.block_dims()[b];
            let off = sym.block_offset(b);
            for c in 0..dim {
                let mut e = vec![0.0; sym.total_dim()];
                e[off + c] = 1.0;
                supernova_linalg::solve_lower(&l, &mut e);
                supernova_linalg::solve_lower_transpose(&l, &mut e);
                for r in 0..dim {
                    assert!(
                        (cov[(r, c)] - e[off + r]).abs() < 1e-9,
                        "cov({r},{c}) of block {b} differs"
                    );
                }
            }
            // A covariance diagonal must be positive.
            for d in 0..dim {
                assert!(cov[(d, d)] > 0.0);
            }
        }
    }

    #[test]
    fn indefinite_matrix_reports_node() {
        let mut p = BlockPattern::new(vec![1, 1]);
        p.add_block_edge(0, 1);
        let sym = SymbolicFactor::analyze(&p, 0);
        let mut h = BlockMat::new(vec![1, 1]);
        h.add_to_block(0, 0, &Mat::from_rows(1, 1, &[1.0]));
        h.add_to_block(1, 0, &Mat::from_rows(1, 1, &[2.0]));
        h.add_to_block(1, 1, &Mat::from_rows(1, 1, &[1.0]));
        let err = NumericFactor::factorize(&sym, &h).unwrap_err();
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();

        let mut serial = NumericFactor::empty(&plan);
        let (stats_s, sched_s) = serial
            .execute_plan(&plan, &h, &all, &ParallelExecutor::serial())
            .unwrap();
        let bytes_s = serial.serialize_bytes();
        assert_eq!(sched_s.workers, 1);

        for threads in [2usize, 4, 8] {
            let mut par = NumericFactor::empty(&plan);
            let (stats_p, sched_p) = par
                .execute_plan(&plan, &h, &all, &ParallelExecutor::new(threads))
                .unwrap();
            assert_eq!(sched_p.mode, crate::DispatchMode::LevelBatched);
            assert!(sched_p.workers > 1, "{threads} threads ran on one worker");
            assert_eq!(bytes_s, par.serialize_bytes(), "{threads} threads diverged");
            assert_eq!(stats_s.recomputed_nodes(), stats_p.recomputed_nodes());
            assert_eq!(stats_s.flops(), stats_p.flops());
            assert_eq!(sched_p.spans.len(), plan.num_tasks());
        }

        // Incremental (partial-recompute) batched execution also matches.
        let mut h1 = h.clone();
        h1.add_to_block(3, 3, &Mat::from_diag(&vec![0.75; p.block_dims()[3]]));
        let mut inc_serial = serial;
        inc_serial
            .execute_plan(&plan, &h1, &[3], &ParallelExecutor::serial())
            .unwrap();
        let mut inc_par = NumericFactor::empty(&plan);
        let exec = ParallelExecutor::new(4);
        inc_par.execute_plan(&plan, &h, &all, &exec).unwrap();
        inc_par.execute_plan(&plan, &h1, &[3], &exec).unwrap();
        assert_eq!(inc_serial.serialize_bytes(), inc_par.serialize_bytes());
    }

    #[test]
    fn narrow_modes_are_bit_identical_across_thread_counts() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h = build_h(&p, 17);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        for mode in [NumericMode::F32, NumericMode::F32F64] {
            let mut serial = NumericFactor::empty(&plan);
            let exec = ParallelExecutor::serial().with_numeric(mode);
            let (_, sched_s) = serial.execute_plan(&plan, &h, &all, &exec).unwrap();
            assert_eq!(sched_s.numeric, mode);
            let bytes_s = serial.serialize_bytes();
            for threads in [2usize, 4, 8] {
                let mut par = NumericFactor::empty(&plan);
                let exec = ParallelExecutor::new(threads).with_numeric(mode);
                let (_, sched_p) = par.execute_plan(&plan, &h, &all, &exec).unwrap();
                assert_eq!(sched_p.numeric, mode);
                assert!(
                    sched_p.workers > 1,
                    "{mode} at {threads} threads ran serially"
                );
                assert_eq!(
                    bytes_s,
                    par.serialize_bytes(),
                    "{mode} at {threads} threads diverged from {mode} serial"
                );
            }
            // The narrow engines genuinely round: a same-input f64 factor
            // must differ, or the mode never reached the kernels.
            let mut wide = NumericFactor::empty(&plan);
            wide.execute_plan(&plan, &h, &all, &ParallelExecutor::serial())
                .unwrap();
            assert_ne!(
                bytes_s,
                wide.serialize_bytes(),
                "{mode} produced bitwise-f64 results; mode plumbing is dead"
            );
        }
    }

    #[test]
    fn execute_plan_reuses_like_refactor() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let h0 = build_h(&p, 1);
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let exec = ParallelExecutor::new(4);

        let mut via_plan = NumericFactor::empty(&plan);
        via_plan.execute_plan(&plan, &h0, &all, &exec).unwrap();

        let mut h1 = h0.clone();
        h1.add_to_block(2, 2, &Mat::from_diag(&vec![1.5; p.block_dims()[2]]));
        let (stats, _) = via_plan.execute_plan(&plan, &h1, &[2], &exec).unwrap();

        // Mirror the serial refactor path on a fresh factor.
        let mut via_refactor = NumericFactor::factorize(&sym, &h0).unwrap();
        let ref_stats = via_refactor.refactor(&sym, &h1, &[2]).unwrap();

        assert_eq!(stats.reused, ref_stats.reused);
        assert_eq!(stats.recomputed_nodes(), ref_stats.recomputed_nodes());
        assert_eq!(via_plan.serialize_bytes(), via_refactor.serialize_bytes());
    }

    #[test]
    fn serialize_bytes_distinguishes_values() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let h0 = build_h(&p, 1);
        let num0 = NumericFactor::factorize(&sym, &h0).unwrap();
        let mut h1 = h0.clone();
        h1.add_to_block(0, 0, &Mat::from_diag(&vec![0.25; p.block_dims()[0]]));
        let num1 = NumericFactor::factorize(&sym, &h1).unwrap();
        assert_ne!(num0.serialize_bytes(), num1.serialize_bytes());
        assert_eq!(num0.serialize_bytes(), num0.serialize_bytes());
    }

    #[test]
    fn factorize_error_leaves_factor_reseedable() {
        let p = loopy_pattern();
        let sym = SymbolicFactor::analyze(&p, 0);
        let plan = ExecutionPlan::from_symbolic(&sym);
        let mut bad = build_h(&p, 3);
        bad.add_to_block(0, 0, &Mat::from_diag(&vec![-1e9; p.block_dims()[0]]));
        let all: Vec<usize> = (0..p.num_blocks()).collect();
        let want = NumericFactor::empty(&plan)
            .execute_plan(&plan, &bad, &all, &ParallelExecutor::serial())
            .unwrap_err();
        let good = build_h(&p, 3);
        for threads in [2usize, 4] {
            let exec = ParallelExecutor::new(threads);
            let mut num = NumericFactor::empty(&plan);
            let err = num.execute_plan(&plan, &bad, &all, &exec).unwrap_err();
            assert_eq!(err, want, "{threads} threads reported another pivot");
            // A good system factorizes fine afterwards.
            let (stats, sched) = num.execute_plan(&plan, &good, &all, &exec).unwrap();
            assert_eq!(stats.recomputed.len(), plan.num_tasks());
            assert!(sched.workers > 1);
        }
    }
}
