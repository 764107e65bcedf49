//! The execute half of the plan/exec split: reusable per-worker
//! workspaces, a scoped-thread worker pool, and the host schedule record.
//!
//! This module is one of the few places in the workspace allowed to spawn
//! OS threads (`supernova-analyze`'s `thread-spawn` lint keeps a declared
//! allowlist; the serve dispatcher's worker pool is the other notable
//! entry). An [`ExecutionPlan`](crate::ExecutionPlan)'s recomputed tasks
//! run either inline in postorder or, when the plan's own
//! [`certificate`](ExecutionPlan::certificate) proves it level-safe, level
//! by level on a worker pool with a barrier between levels. Because every
//! task is a pure function of the Hessian and its children's cached update
//! matrices — merged in the plan's fixed child order — results are
//! bit-identical to serial execution at any thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use supernova_linalg::{KernelScratch, Mat, NumericMode};

use crate::ExecutionPlan;

/// A worker's preallocated scratch buffers, reused across every task the
/// worker executes (no per-node allocation on the hot path).
///
/// A workspace bundles the frontal matrix buffer with the blocked-kernel
/// pack arena ([`KernelScratch`]), so one checkout from the executor's
/// persistent pool covers everything a task touches. Both halves grow
/// monotonically and are fully overwritten per task, so reuse can never
/// change results.
#[derive(Debug, Default)]
pub struct Workspace {
    front: Mat,
    scratch: KernelScratch,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-grown for fronts of up to `front_elems` scalars
    /// (use [`ExecutionPlan::max_workspace_elems`]) and kernel pack
    /// buffers of up to `pack_elems` scalars each (use
    /// [`ExecutionPlan::max_pack_elems`]).
    pub fn with_capacity(front_elems: usize, pack_elems: usize) -> Self {
        let mut ws = Workspace::new();
        ws.reserve(front_elems, pack_elems);
        ws
    }

    /// Grows (never shrinks) both buffers to the given capacities. Cheap
    /// when already large enough; called once per plan execution, not per
    /// task.
    pub fn reserve(&mut self, front_elems: usize, pack_elems: usize) {
        self.front.reset(front_elems, 1);
        self.scratch.reserve(pack_elems);
    }

    /// Mode-aware [`reserve`](Self::reserve): under a narrow
    /// [`NumericMode`] the kernel arena additionally pre-grows its f32
    /// pack panels and the f32 front shadow (sized for the largest front,
    /// `front_elems` scalars), so narrow-mode factorization allocates
    /// nothing mid-execution either. For [`NumericMode::F64`] this is
    /// exactly `reserve`.
    pub fn reserve_mode(&mut self, mode: NumericMode, front_elems: usize, pack_elems: usize) {
        self.front.reset(front_elems, 1);
        self.scratch.reserve(pack_elems);
        if mode.is_narrow() {
            self.scratch.reserve_mode(mode, pack_elems, front_elems);
        }
    }

    /// The frontal matrix buffer; callers `reset` it to the task's front
    /// dimensions before assembly.
    pub fn front_mut(&mut self) -> &mut Mat {
        &mut self.front
    }

    /// The blocked-kernel pack arena (read-only; for stats).
    pub fn scratch(&self) -> &KernelScratch {
        &self.scratch
    }

    /// The blocked-kernel pack arena.
    pub fn scratch_mut(&mut self) -> &mut KernelScratch {
        &mut self.scratch
    }

    /// Both halves at once, mutably — a task factors `front` with the
    /// `_scratch` kernel variants fed by this workspace's own arena.
    pub fn parts(&mut self) -> (&mut Mat, &mut KernelScratch) {
        (&mut self.front, &mut self.scratch)
    }
}

/// How a plan execution sequenced its tasks. Recorded on every
/// [`HostSchedule`] (and exported as the `dispatch_mode` counter on exec
/// trace spans) so benchmarks and CI can see which dispatch path ran.
///
/// The encodings are stable trace values; 1 is retired and never
/// produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Inline postorder on the calling thread (one worker): every
    /// single-threaded execution, every execution with at most one
    /// recomputed task, and every multi-threaded execution whose plan
    /// cannot be proven level-safe.
    #[default]
    Serial = 0,
    /// Worker pool with one atomic claim cursor per task level and a
    /// barrier between levels — no locks on the task path. Requires the
    /// plan's [`certificate`](ExecutionPlan::certificate) proving
    /// same-level tasks access-disjoint.
    LevelBatched = 2,
}

impl DispatchMode {
    /// Stable numeric encoding for trace counters.
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// One executed task span in a host schedule: which worker ran which
/// supernode over which wall-clock interval.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    /// Supernode / task id.
    pub node: usize,
    /// Worker index (0-based).
    pub worker: usize,
    /// Start time in seconds since the execution began.
    pub start: f64,
    /// End time in seconds since the execution began.
    pub end: f64,
    /// f64 multiply-add flops the dense kernels executed for this task, as
    /// metered by the worker's [`KernelScratch`]. Deterministic — a pure
    /// function of the task's front shape — unlike the wall-clock fields.
    pub kernel_flops: u64,
}

/// The wall-clock record of one plan execution on the host pool.
///
/// Spans are totally ordered by a single monotonic clock shared by every
/// worker: a parent's `start` is sampled only after each child's `end` has
/// been sampled, so the record itself witnesses the plan's happens-before
/// relation (checked by `supernova-analyze`'s host-schedule invariant).
#[derive(Clone, Debug, Default)]
pub struct HostSchedule {
    /// Executed spans, sorted by start time.
    pub spans: Vec<TaskSpan>,
    /// Number of workers the pool ran with.
    pub workers: usize,
    /// When this execution began, in seconds on the process-global trace
    /// epoch ([`supernova_trace::epoch_seconds`]) — span `start`/`end`
    /// values are relative to this origin, so `origin + start` places a
    /// task on the same timeline as every other traced subsystem.
    pub origin: f64,
    /// Which dispatch strategy sequenced this execution.
    pub mode: DispatchMode,
    /// Numeric precision the executing workers' kernels ran under.
    pub numeric: NumericMode,
    /// Always 0: every span is one whole task. Kept because benchmark
    /// tooling reads it as `sparse.split_units_per_step`.
    pub split_units: usize,
}

impl HostSchedule {
    /// Wall-clock duration from first start to last end, in seconds.
    pub fn makespan(&self) -> f64 {
        let end = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let start = self
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        if self.spans.is_empty() {
            0.0
        } else {
            end - start
        }
    }

    /// Sum of span durations across all workers, in seconds.
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Total dense-kernel flops across all executed tasks (deterministic,
    /// unlike the wall-clock fields).
    pub fn kernel_flops(&self) -> u64 {
        self.spans.iter().map(|s| s.kernel_flops).sum()
    }

    /// Total dispatch overhead in worker-seconds: wall-clock capacity the
    /// pool held (`makespan × workers`) minus the time workers actually
    /// spent inside tasks. Covers level claiming, barrier waits and
    /// level-tail idling.
    pub fn dispatch_overhead_s(&self) -> f64 {
        (self.makespan() * self.workers as f64 - self.busy_time()).max(0.0)
    }

    /// Dispatch overhead per executed span, in seconds — the per-task cost
    /// of level-batched dispatch that the benchmark gate tracks.
    pub fn dispatch_overhead_per_task_s(&self) -> f64 {
        if self.spans.is_empty() {
            0.0
        } else {
            self.dispatch_overhead_s() / self.spans.len() as f64
        }
    }
}

/// Aggregate statistics over an executor's persistent workspace pool —
/// the zero-alloc hot-path witness: on a steady workload `grow_events`
/// and `high_water_elems` go flat after warm-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workspaces currently parked in the pool (checked-out ones are not
    /// counted; between plan executions this equals the peak worker count
    /// seen so far).
    pub workspaces: usize,
    /// Sum of [`KernelScratch::grow_events`] over pooled workspaces.
    pub grow_events: u64,
    /// Max of [`KernelScratch::high_water_elems`] over pooled workspaces.
    pub high_water_elems: usize,
}

/// Host-side executor configuration: how many workers to run plans on.
///
/// `threads == 1` executes inline on the calling thread (no pool, no
/// locking); `threads > 1` spins up a scoped `std::thread` pool per
/// certified execution. Results are bit-identical either way.
///
/// The executor owns a persistent pool of [`Workspace`]s that survives
/// across `run` calls (and is shared by clones), so the steady-state
/// refactorization loop performs zero heap allocation: workers check a
/// warm workspace out at the start of an execution and return it at the
/// end. Workspace contents are fully overwritten per task, so pooling
/// never affects results.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    threads: usize,
    numeric: NumericMode,
    pool: Arc<Mutex<Vec<Workspace>>>,
}

impl PartialEq for ParallelExecutor {
    /// Configuration equality only — the workspace pool is a cache and
    /// never affects behavior.
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.numeric == other.numeric
    }
}

impl Eq for ParallelExecutor {}

impl ParallelExecutor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // Pre-populate one (empty, allocation-free) workspace per worker,
        // so the pool's workspace count is fixed at construction instead
        // of depending on how checkouts happened to overlap — a
        // prerequisite for deterministic pool statistics.
        // lint: allow(hot-alloc) — one-time constructor, not the task path
        let pool = (0..threads).map(|_| Workspace::new()).collect();
        ParallelExecutor {
            threads,
            numeric: NumericMode::default(),
            pool: Arc::new(Mutex::new(pool)),
        }
    }

    /// Same executor with the given numeric mode for its workers' kernels.
    pub fn with_numeric(mut self, numeric: NumericMode) -> Self {
        self.numeric = numeric;
        self
    }

    /// Overrides the numeric mode in place. Takes effect on the next plan
    /// execution; callers holding cached factors produced under another
    /// mode must invalidate them (the solver engine does).
    pub fn set_numeric_mode(&mut self, numeric: NumericMode) {
        self.numeric = numeric;
    }

    /// The numeric precision this executor's workers factor under.
    pub fn numeric(&self) -> NumericMode {
        self.numeric
    }

    /// A single-threaded (inline) executor.
    pub fn serial() -> Self {
        ParallelExecutor::new(1)
    }

    /// Reads the worker count from the `SUPERNOVA_THREADS` environment
    /// variable, falling back to the host's available parallelism, and
    /// the numeric mode from [`supernova_linalg::NUMERIC_ENV`]
    /// (`f64`/`f32`/`f32f64`; unset or unrecognized means f64).
    pub fn from_env() -> Self {
        let threads = std::env::var("SUPERNOVA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ParallelExecutor::new(threads).with_numeric(NumericMode::from_env())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the persistent workspace pool (call between plan
    /// executions; checked-out workspaces are not visible).
    pub fn pool_stats(&self) -> PoolStats {
        // Poisoning requires a worker panic, which unwinds the whole
        // execution scope anyway.
        let pool = self.pool.lock().unwrap(); // lint: allow(unwrap)
        PoolStats {
            workspaces: pool.len(),
            grow_events: pool.iter().map(|w| w.scratch().grow_events()).sum(),
            high_water_elems: pool
                .iter()
                .map(|w| w.scratch().high_water_elems())
                .max()
                .unwrap_or(0),
        }
    }

    /// Checks a workspace out of the pool (or makes a cold one), grown
    /// for `plan`'s largest front, with the flop meter drained so per-task
    /// deltas start from zero.
    ///
    /// Takes the *largest* pooled workspace, not the most recently
    /// returned one: check-in order depends on worker timing, but the
    /// pool's multiset of workspaces does not, so best-fit selection
    /// makes the checked-out set — and therefore all arena growth — a
    /// deterministic function of the plan sequence. Once warm, the k-th
    /// largest workspace dominates every plan that ran at width ≥ k, and
    /// replays stop allocating entirely.
    fn checkout(&self, plan: &ExecutionPlan) -> Workspace {
        // lint: allow(unwrap) — poisoning as above
        let mut pool = self.pool.lock().unwrap();
        let largest = pool
            .iter()
            .enumerate()
            .max_by_key(|(i, w)| (w.scratch().high_water_elems(), usize::MAX - i))
            .map(|(i, _)| i);
        let mut ws = largest.map(|i| pool.swap_remove(i)).unwrap_or_default();
        drop(pool);
        ws.reserve_mode(
            self.numeric,
            plan.max_workspace_elems(),
            plan.max_pack_elems_mode(self.numeric),
        );
        ws.scratch_mut().take_flops();
        ws
    }

    /// Returns a workspace to the pool for the next execution.
    fn checkin(&self, ws: Workspace) {
        // lint: allow(unwrap) — poisoning as above
        self.pool.lock().unwrap().push(ws);
    }
}

impl Default for ParallelExecutor {
    /// Serial execution — the conservative default.
    fn default() -> Self {
        ParallelExecutor::serial()
    }
}

impl ParallelExecutor {
    /// Runs the plan's tasks flagged in `recompute` and records the
    /// [`HostSchedule`]. The callbacks publish each result themselves (the
    /// numeric layer uses a `OnceLock` slot per node), so the executor
    /// only sequences work.
    ///
    /// Each executed task is one [`TaskSpan`], so the span structure does
    /// not depend on the thread count.
    ///
    /// Dispatch:
    ///
    /// - **serial** ([`DispatchMode::Serial`]): plan postorder on the
    ///   calling thread. Used when the executor has one thread, when at
    ///   most one task is flagged, and when the plan cannot be proven
    ///   level-safe — without the proof the executor never runs work
    ///   concurrently.
    /// - **level-batched** ([`DispatchMode::LevelBatched`]) otherwise: the
    ///   plan's [`levels`](ExecutionPlan::levels) in order on a scoped
    ///   worker pool, with a barrier between levels.
    ///
    /// The plan's [`certificate`](ExecutionPlan::certificate) is asked for
    /// last, so a one-thread or one-task run never pays for the proof.
    /// Results are bit-identical on both paths: the certificate only
    /// changes *when* independent work runs, never its inputs. On error,
    /// in-flight work finishes, no new work starts, and the error from the
    /// lowest-numbered failing task is returned.
    pub fn run<E, F>(
        &self,
        plan: &ExecutionPlan,
        recompute: &[bool],
        task_fn: F,
    ) -> (Result<(), E>, HostSchedule)
    where
        E: Send,
        F: Fn(usize, &mut Workspace) -> Result<(), E> + Sync,
    {
        assert_eq!(recompute.len(), plan.num_tasks());
        self.prepare(plan);
        let total: usize = recompute.iter().filter(|&&r| r).count();
        if self.threads > 1 && total > 1 && plan.certificate().is_some() {
            run_batched(self, plan, recompute, &task_fn)
        } else {
            run_serial(self, plan, recompute, &task_fn)
        }
    }

    /// Grows every pooled workspace to `plan`'s bounds before any worker
    /// spawns. Doing all growth here, on the calling thread, makes the
    /// arena statistics a pure function of the plan sequence: which
    /// worker later picks which workspace (timing-dependent) can no
    /// longer decide whether a buffer grows. A no-op once the pool is
    /// warm enough for `plan` — the zero-alloc steady state.
    fn prepare(&self, plan: &ExecutionPlan) {
        let front = plan.max_workspace_elems();
        let pack = plan.max_pack_elems_mode(self.numeric);
        // lint: allow(unwrap) — poisoning requires a prior worker panic
        let mut pool = self.pool.lock().unwrap();
        for ws in pool.iter_mut() {
            ws.reserve_mode(self.numeric, front, pack);
        }
    }
}

/// Runs task `s` on `worker` and appends its span, timed on `origin`.
fn run_task<E, F>(
    task_fn: &F,
    s: usize,
    worker: usize,
    origin: Instant,
    ws: &mut Workspace,
    spans: &mut Vec<TaskSpan>,
) -> Result<(), E>
where
    F: Fn(usize, &mut Workspace) -> Result<(), E>,
{
    let start = origin.elapsed().as_secs_f64();
    let res = task_fn(s, ws);
    let end = origin.elapsed().as_secs_f64();
    spans.push(TaskSpan {
        node: s,
        worker,
        start,
        end,
        kernel_flops: ws.scratch_mut().take_flops(),
    });
    res
}

/// Inline execution on the calling thread in plan postorder.
fn run_serial<E, F>(
    exec: &ParallelExecutor,
    plan: &ExecutionPlan,
    recompute: &[bool],
    task_fn: &F,
) -> (Result<(), E>, HostSchedule)
where
    F: Fn(usize, &mut Workspace) -> Result<(), E>,
{
    let epoch = supernova_trace::epoch_seconds();
    let origin = Instant::now();
    let mut ws = exec.checkout(plan);
    // lint: allow(hot-alloc) — per-execution schedule record, not the task path
    let mut spans = Vec::new();
    let mut err = None;
    for &s in plan.postorder() {
        if !recompute[s] {
            continue;
        }
        if let Err(e) = run_task(task_fn, s, 0, origin, &mut ws, &mut spans) {
            err = Some(e);
            break;
        }
    }
    exec.checkin(ws);
    let sched = HostSchedule {
        spans,
        workers: 1,
        origin: epoch,
        mode: DispatchMode::Serial,
        numeric: exec.numeric,
        split_units: 0,
    };
    (err.map_or(Ok(()), Err), sched)
}

/// A sense-reversing barrier that spins briefly before parking on a
/// condvar. `std::sync::Barrier` always takes its mutex; a batched
/// execution crosses one barrier per level, so the microseconds each
/// crossing costs sit directly on the critical path.
/// Workers spin for a short budget (the common case: the level's last
/// task finishes within it) and only then fall back to blocking — so an
/// idle machine still sleeps instead of burning a core. When the pool
/// oversubscribes the host (more parties than CPUs), spinning would
/// steal cycles from the very worker everyone is waiting on, so the
/// budget drops to zero and waiters park immediately.
struct SpinBarrier {
    parties: usize,
    spin_budget_micros: u128,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// How long a worker spins at a barrier before parking. Roughly two
/// orders of magnitude above a barrier crossing itself, two below a
/// typical panel kernel.
const BARRIER_SPIN_BUDGET_MICROS: u128 = 50;

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SpinBarrier {
            parties,
            spin_budget_micros: if parties > host {
                0
            } else {
                BARRIER_SPIN_BUDGET_MICROS
            },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `parties` workers have called `wait` for the
    /// current generation.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* publishing the new
            // generation, so a worker racing into the next barrier cannot
            // observe the stale count.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            // Taking the lock orders this wake-up after any parker's
            // generation re-check, closing the missed-notify window.
            // lint: allow(unwrap) — poisoning requires a prior worker panic
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
            return;
        }
        if self.spin_budget_micros > 0 {
            // lint: allow(wall-clock) — spin budget, already in the
            // executor's wall-clock allowlist
            let spin_start = Instant::now();
            loop {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                if spin_start.elapsed().as_micros() > self.spin_budget_micros {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        // lint: allow(unwrap) — poisoning as above
        let mut guard = self.lock.lock().unwrap();
        while self.generation.load(Ordering::Acquire) == generation {
            // lint: allow(unwrap) — poisoning as above
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

/// Level-batched worker-pool execution for certified plans: one atomic
/// claim cursor per topological task level and a [`SpinBarrier`] between
/// levels.
///
/// Inside a level there is no ordering at all — the plan's
/// [`certificate`](ExecutionPlan::certificate) proves same-level tasks
/// access-disjoint, so any interleaving computes identical bits.
/// *Between* levels the barrier provides the happens-before edge every
/// cross-level read needs (a parent consuming a child's published update
/// matrix): a worker passes the level-`k` barrier only after every
/// level-`k` task has completed and published.
/// Levels with nothing to recompute are skipped outright.
///
/// The task path holds no locks: claiming a task is one `fetch_add` on
/// the level cursor. On error the abort flag stops further claims, but
/// every worker still reaches every barrier so nobody deadlocks.
fn run_batched<E, F>(
    exec: &ParallelExecutor,
    plan: &ExecutionPlan,
    recompute: &[bool],
    task_fn: &F,
) -> (Result<(), E>, HostSchedule)
where
    E: Send,
    F: Fn(usize, &mut Workspace) -> Result<(), E> + Sync,
{
    let epoch = supernova_trace::epoch_seconds();
    let origin = Instant::now();
    // Per-level worklists of recomputed tasks, ascending id so claim order
    // is deterministic given claim timing.
    // lint: allow(hot-alloc) — per-execution dispatch tables, not the task path
    let levels: Vec<Vec<usize>> = plan
        .levels()
        .iter()
        .map(|members| {
            let mut v: Vec<usize> = members.iter().copied().filter(|&s| recompute[s]).collect();
            v.sort_unstable();
            v
        })
        .filter(|v| !v.is_empty())
        .collect();
    let total: usize = levels.iter().map(Vec::len).sum();
    let cursors: Vec<AtomicUsize> = levels.iter().map(|_| AtomicUsize::new(0)).collect();
    let abort = AtomicBool::new(false);
    // lint: allow(hot-alloc) — per-execution error collector, not the task path
    let errors: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());
    let nworkers = exec.threads.min(total.max(1));
    let barrier = SpinBarrier::new(nworkers);

    // lint: allow(hot-alloc) — per-execution schedule record, not the task path
    let mut all_spans: Vec<TaskSpan> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        // lint: allow(hot-alloc) — per-execution worker handles, not the task path
        let mut handles = Vec::with_capacity(nworkers);
        for worker in 0..nworkers {
            let levels = &levels;
            let cursors = &cursors;
            let abort = &abort;
            let errors = &errors;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let mut ws = exec.checkout(plan);
                // lint: allow(hot-alloc) — per-execution schedule record, not the task path
                let mut spans: Vec<TaskSpan> = Vec::new();
                for (lvl, members) in levels.iter().enumerate() {
                    while !abort.load(Ordering::Acquire) {
                        let idx = cursors[lvl].fetch_add(1, Ordering::AcqRel);
                        let Some(&s) = members.get(idx) else {
                            break;
                        };
                        if let Err(e) = run_task(task_fn, s, worker, origin, &mut ws, &mut spans) {
                            // lint: allow(unwrap) — poisoning needs a prior worker panic
                            errors.lock().unwrap().push((s, e));
                            abort.store(true, Ordering::Release);
                        }
                    }
                    // Every worker reaches every barrier — including after
                    // an abort — so no one is left waiting.
                    barrier.wait();
                }
                exec.checkin(ws);
                spans
            }));
        }
        for h in handles {
            if let Ok(spans) = h.join() {
                all_spans.extend(spans);
            }
        }
    });

    all_spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.node.cmp(&b.node))
    });
    let sched = HostSchedule {
        spans: all_spans,
        workers: nworkers,
        origin: epoch,
        mode: DispatchMode::LevelBatched,
        numeric: exec.numeric,
        split_units: 0,
    };
    let mut errs = errors.into_inner().unwrap_or_default();
    if errs.is_empty() {
        (Ok(()), sched)
    } else {
        errs.sort_by_key(|&(t, _)| t);
        let (_, e) = errs.swap_remove(0);
        (Err(e), sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPattern, SymbolicFactor};
    use std::sync::atomic::AtomicU64;

    /// A chain of `n` blocks: one task per level.
    fn plan_of(n: usize) -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; n]);
        for i in 0..n - 1 {
            p.add_block_edge(i, i + 1);
        }
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    /// `n` leaf blocks all coupled to one root: `n` tasks share a level.
    fn fan_plan(n: usize) -> ExecutionPlan {
        let mut p = BlockPattern::new(vec![2; n + 1]);
        for i in 0..n {
            p.add_block_edge(i, n);
        }
        ExecutionPlan::from_symbolic(&SymbolicFactor::analyze(&p, 0))
    }

    fn expected_mode(threads: usize) -> DispatchMode {
        if threads == 1 {
            DispatchMode::Serial
        } else {
            DispatchMode::LevelBatched
        }
    }

    #[test]
    fn serial_and_pool_run_every_task_once() {
        for plan in [plan_of(24), fan_plan(12)] {
            let recompute = vec![true; plan.num_tasks()];
            for threads in [1usize, 2, 4] {
                let counts: Vec<AtomicUsize> =
                    (0..plan.num_tasks()).map(|_| AtomicUsize::new(0)).collect();
                let exec = ParallelExecutor::new(threads);
                let (res, sched) = exec.run::<(), _>(&plan, &recompute, |s, _ws| {
                    counts[s].fetch_add(1, Ordering::SeqCst);
                    Ok(())
                });
                assert!(res.is_ok());
                assert_eq!(sched.mode, expected_mode(threads));
                assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                assert_eq!(sched.spans.len(), plan.num_tasks());
                assert!(sched.workers >= 1 && sched.workers <= threads);
            }
        }
    }

    #[test]
    fn children_complete_before_parents_start() {
        for plan in [plan_of(16), fan_plan(8)] {
            let recompute = vec![true; plan.num_tasks()];
            // A shared logical clock: each task records (start_tick, end_tick).
            let clock = AtomicU64::new(0);
            let marks: Vec<(AtomicU64, AtomicU64)> = (0..plan.num_tasks())
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect();
            let exec = ParallelExecutor::new(3);
            let (res, sched) = exec.run::<(), _>(&plan, &recompute, |s, _ws| {
                marks[s]
                    .0
                    .store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                marks[s]
                    .1
                    .store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                Ok(())
            });
            assert!(res.is_ok());
            assert_eq!(sched.mode, DispatchMode::LevelBatched);
            for task in plan.tasks() {
                for mg in &task.merges {
                    let child_end = marks[mg.child].1.load(Ordering::SeqCst);
                    let parent_start = marks[task.node].0.load(Ordering::SeqCst);
                    assert!(
                        child_end < parent_start,
                        "child {} overlapped parent {}",
                        mg.child,
                        task.node
                    );
                }
            }
        }
    }

    #[test]
    fn skips_non_recomputed_tasks() {
        let plan = plan_of(10);
        let n = plan.num_tasks();
        // Only the root (a single task runs inline), and an upper slice of
        // the tree so some levels are empty (batched).
        let tail = *plan.postorder().last().expect("nonempty"); // lint: allow(unwrap)
        let mut only_tail = vec![false; n];
        only_tail[tail] = true;
        let upper: Vec<bool> = (0..n).map(|s| s >= n / 2).collect();
        for (recompute, mode) in [
            (only_tail, DispatchMode::Serial),
            (upper, DispatchMode::LevelBatched),
        ] {
            let want = recompute.iter().filter(|&&r| r).count();
            let ran = AtomicUsize::new(0);
            let exec = ParallelExecutor::new(4);
            let (res, sched) = exec.run::<(), _>(&plan, &recompute, |s, _ws| {
                assert!(recompute[s], "task {s} was not flagged");
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            assert!(res.is_ok());
            assert_eq!(sched.mode, mode);
            assert_eq!(ran.load(Ordering::SeqCst), want);
            assert_eq!(sched.spans.len(), want);
        }
    }

    #[test]
    fn error_reported_from_lowest_failing_task() {
        let plan = plan_of(12);
        let recompute = vec![true; plan.num_tasks()];
        for threads in [1usize, 2, 4] {
            let exec = ParallelExecutor::new(threads);
            let (res, sched) = exec.run(&plan, &recompute, |s, _ws| match s {
                0 => Err(s),
                _ => Ok(()),
            });
            assert_eq!(res, Err(0));
            assert_eq!(sched.mode, expected_mode(threads));
        }
    }

    #[test]
    fn batched_path_matches_serial_errors_and_spans() {
        let plan = fan_plan(9);
        let recompute = vec![true; plan.num_tasks()];
        // Leaves 2 and 5 fail; the root never starts.
        let root = *plan.postorder().last().expect("nonempty"); // lint: allow(unwrap)
        let failing = |s: usize| s == 2 || s == 5;
        let task_fn = |s: usize, _ws: &mut Workspace| if failing(s) { Err(s) } else { Ok(()) };
        let (serial_res, serial) = ParallelExecutor::serial().run(&plan, &recompute, task_fn);
        assert_eq!(serial_res, Err(2));
        for threads in [2usize, 4] {
            let exec = ParallelExecutor::new(threads);
            let (res, sched) = exec.run(&plan, &recompute, task_fn);
            assert_eq!(res, serial_res, "{threads} threads");
            assert_eq!(sched.mode, DispatchMode::LevelBatched);
            assert_eq!(sched.split_units, 0);
            assert!(sched.spans.iter().all(|sp| sp.node != root));
            // Clean run: one whole-task span per task, as serial.
            let (res, sched) = exec.run::<usize, _>(&plan, &recompute, |_s, _ws| Ok(()));
            assert!(res.is_ok());
            assert_eq!(sched.mode, DispatchMode::LevelBatched);
            assert!(sched.workers > 1);
            assert_eq!(sched.split_units, 0);
            let mut nodes: Vec<usize> = sched.spans.iter().map(|sp| sp.node).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, (0..plan.num_tasks()).collect::<Vec<_>>());
        }
        assert!(serial.spans.iter().all(|sp| sp.node != root));
    }

    #[test]
    fn coverage_gate_selects_batching() {
        let recompute = vec![true; plan_of(12).num_tasks()];
        let run = |exec: ParallelExecutor, plan: &ExecutionPlan| {
            exec.run::<(), _>(plan, &recompute, |_s, _ws| Ok(()))
        };
        // A plan that proves level-safe batches; a serial executor stamps
        // it Serial all the same.
        let plan = plan_of(12);
        let (res, sched) = run(ParallelExecutor::new(2), &plan);
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::LevelBatched);
        let (res, sched) = run(ParallelExecutor::serial(), &plan);
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::Serial);
        // A plan corrupted after it was certified — a level-table
        // duplicate, or a scatter target moved out of its parent's front —
        // drops its proof and runs serial on one worker: never parallel
        // without proof.
        let corruptions: [fn(&mut ExecutionPlan); 2] = [
            |p| {
                let dup = p.levels()[0][0];
                p.levels_mut()[0].push(dup);
            },
            |p| {
                let s = p.postorder()[p.num_tasks() - 1];
                let front = p.tasks()[s].front_dim();
                p.tasks_mut()[s].merges[0].blocks[0].dst_row += front;
            },
        ];
        for corrupt in corruptions {
            let mut plan = plan_of(12);
            assert!(plan.certificate().is_some());
            corrupt(&mut plan);
            assert!(plan.certificate().is_none());
            let (res, sched) = run(ParallelExecutor::new(2), &plan);
            assert!(res.is_ok());
            assert_eq!(sched.mode, DispatchMode::Serial);
            assert_eq!(sched.workers, 1);
            assert_eq!(sched.spans.len(), plan.num_tasks());
        }
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert!(ParallelExecutor::from_env().threads() >= 1);
    }

    #[test]
    fn workspace_pool_persists_and_stops_growing() {
        let plan = fan_plan(20);
        let recompute = vec![true; plan.num_tasks()];
        for threads in [1usize, 3] {
            let exec = ParallelExecutor::new(threads);
            // One pre-created (empty) workspace per worker, nothing grown.
            assert_eq!(
                exec.pool_stats(),
                PoolStats {
                    workspaces: threads,
                    ..PoolStats::default()
                }
            );
            // Tasks touch buffers up to the plan's bounds, which `run`
            // already grew every pooled workspace to before dispatch —
            // so which worker claims which task cannot decide growth.
            let pack = plan.max_pack_elems();
            assert!(pack > 0);
            let task = |_s: usize, ws: &mut Workspace| -> Result<(), ()> {
                let (front, scratch) = ws.parts();
                front.reset(2, 2);
                scratch.reserve(pack);
                Ok(())
            };
            let (res, sched) = exec.run(&plan, &recompute, task);
            assert!(res.is_ok());
            assert_eq!(sched.mode, expected_mode(threads));
            let warm = exec.pool_stats();
            assert_eq!(warm.workspaces, threads);
            assert!(warm.high_water_elems >= pack);
            // Clones share the same pool; re-running must not grow it.
            let alias = exec.clone();
            for _ in 0..3 {
                let (res, _) = alias.run(&plan, &recompute, task);
                assert!(res.is_ok());
            }
            let steady = exec.pool_stats();
            assert_eq!(steady.workspaces, warm.workspaces, "pool count flat");
            assert_eq!(steady.grow_events, warm.grow_events, "no arena growth");
            assert_eq!(steady.high_water_elems, warm.high_water_elems);
        }
    }

    #[test]
    fn kernel_flops_are_recorded_per_span() {
        let plan = fan_plan(6);
        let recompute = vec![true; plan.num_tasks()];
        let exec = ParallelExecutor::new(2);
        let (res, sched) = exec.run::<(), _>(&plan, &recompute, |_s, _ws| Ok(()));
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::LevelBatched);
        // No kernels ran, so every span meters zero — but the field is
        // present and the schedule total agrees.
        assert!(sched.spans.iter().all(|s| s.kernel_flops == 0));
        assert_eq!(sched.kernel_flops(), 0);
    }

    #[test]
    fn dispatch_overhead_metrics_are_finite() {
        let plan = fan_plan(10);
        let recompute = vec![true; plan.num_tasks()];
        let exec = ParallelExecutor::new(2);
        let (res, sched) = exec.run::<(), _>(&plan, &recompute, |_s, _ws| Ok(()));
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::LevelBatched);
        assert!(sched.dispatch_overhead_s() >= 0.0);
        assert!(sched.dispatch_overhead_per_task_s() >= 0.0);
        assert!(sched.dispatch_overhead_per_task_s().is_finite());
        assert_eq!(HostSchedule::default().dispatch_overhead_per_task_s(), 0.0);
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        let parties = 4usize;
        let rounds = 200usize;
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // After the barrier every increment of this round
                        // must be visible.
                        assert!(counter.load(Ordering::SeqCst) >= (round + 1) * parties);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), parties * rounds);
    }

    #[test]
    fn makespan_and_busy_time_are_consistent() {
        let plan = fan_plan(10);
        let recompute = vec![true; plan.num_tasks()];
        let exec = ParallelExecutor::new(2);
        let (res, sched) = exec.run::<(), _>(&plan, &recompute, |_s, ws| {
            // Touch the workspace so the buffer path is exercised.
            ws.front_mut().reset(4, 4);
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(sched.mode, DispatchMode::LevelBatched);
        assert!(sched.makespan() >= 0.0);
        assert!(sched.busy_time() >= 0.0);
        for w in sched.spans.windows(2) {
            assert!(w[0].start <= w[1].start, "spans sorted by start");
        }
    }
}
