//! # gridsteer_exec — the shared deterministic parallel executor
//!
//! Every hot path in the tree (LBM passes, PEPC force evaluation, the viz
//! rasterizer/isosurface/codec) dispatches through one persistent worker
//! pool instead of spawning OS threads per pass. The pool provides a scoped
//! `parallel_for` / `parallel_chunks` API with a **determinism contract**:
//!
//! * **Fixed chunk→index mapping.** Work is split into chunks whose
//!   boundaries depend only on the input length and the caller-chosen grain
//!   — never on the pool's thread count. Which worker executes which chunk
//!   is scheduling noise; *what* each chunk computes and *where* it writes
//!   is fixed.
//! * **Disjoint outputs.** Each chunk owns a disjoint `&mut` slice of the
//!   output, so there are no write races to order.
//! * **Ordered reduction.** [`ExecPool::map`] returns one result slot per
//!   chunk, in chunk order; callers fold that `Vec` sequentially, so
//!   floating-point reductions associate identically for any thread count.
//!
//! Together these guarantee **bit-identical results at any thread count**,
//! which is what lets the CI determinism matrix run the whole test suite at
//! `EXEC_THREADS=1` and `EXEC_THREADS=8` and demand equal bytes.
//!
//! ## Thread-count resolution
//!
//! [`default_threads`] auto-detects `available_parallelism()`, clamps it to
//! [`MAX_AUTO_THREADS`], and honours an explicit `EXEC_THREADS` environment
//! override for reproducible runs. Config structs across the tree default
//! their `threads` field to this value; an explicitly set field still wins
//! (it is passed to [`shared`] verbatim).
//!
//! ## Pool sharing
//!
//! [`shared`] hands out process-wide pools keyed by thread count, so every
//! simulation, scenario run and experiment that asks for the same
//! parallelism reuses one set of persistent workers instead of re-spawning.
//! [`global`] is the default-sized shared pool.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Cap applied to the *auto-detected* thread count. An explicit request
/// (config field or `EXEC_THREADS`) may exceed it.
pub const MAX_AUTO_THREADS: usize = 8;

/// The auto-detected-but-overridable default worker count:
/// `EXEC_THREADS` if set and parseable, else `available_parallelism()`
/// clamped to `1..=MAX_AUTO_THREADS`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("EXEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_AUTO_THREADS)
}

/// Resolve a config `threads` field: `0` means "use the default".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ExecPool>>>> = OnceLock::new();

/// The process-wide shared pool for `threads` workers (`0` = default).
/// Pools are created on first use and persist for the process lifetime, so
/// all subsystems asking for the same parallelism share one worker set.
pub fn shared(threads: usize) -> Arc<ExecPool> {
    let t = resolve_threads(threads);
    let mut map = lock(POOLS.get_or_init(Default::default));
    map.entry(t)
        .or_insert_with(|| Arc::new(ExecPool::new(t)))
        .clone()
}

/// The default-sized shared pool (see [`default_threads`]).
pub fn global() -> Arc<ExecPool> {
    shared(0)
}

/// A job published to the workers: a type- and lifetime-erased task closure
/// plus its chunk counter. Sound because [`ExecPool::run`] does not return
/// until every worker has detached from the job, and clears the slot before
/// the referenced stack frames die.
#[derive(Clone, Copy)]
struct RawJob {
    task: *const (dyn Fn(usize) + Sync),
    count: usize,
    next: *const AtomicUsize,
    panic_slot: *const PanicSlot,
}
// SAFETY: the raw pointers reference stack frames the dispatcher keeps
// alive until every worker detaches (see dispatch's barrier).
unsafe impl Send for RawJob {}

/// First caught task-panic payload; re-raised by the dispatcher so the
/// original message survives parallel dispatch.
type PanicSlot = Mutex<Option<Box<dyn std::any::Any + Send>>>;

struct Slot {
    /// Bumped once per published job so sleeping workers can tell a new job
    /// from a spurious wakeup.
    epoch: u64,
    job: Option<RawJob>,
    /// Workers currently holding a copy of `job`.
    attached: usize,
    shutdown: bool,
}

struct Shared {
    /// Held for the duration of one dispatch: concurrent `run` calls on a
    /// shared pool serialize here (tasks of one job never interleave with
    /// another job's).
    dispatch: Mutex<()>,
    slot: Mutex<Slot>,
    /// Workers wait here for the next job.
    work_cv: Condvar,
    /// The dispatcher waits here for every attached worker to detach.
    done_cv: Condvar,
}

/// A persistent, deterministic worker pool (see the crate docs for the
/// determinism contract). The dispatching thread always participates in
/// the work, so a 1-thread pool runs jobs inline with zero synchronization.
pub struct ExecPool {
    threads: usize,
    shared: Arc<Shared>,
    /// Persistent workers parked on a condvar between jobs.
    workers: Vec<JoinHandle<()>>,
}

// Tasks running on this thread must not re-dispatch to the pool (the
// dispatch lock is not reentrant); nested calls run inline instead.
thread_local! {
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A task panic is caught outside the lock, so poisoning can only come
    // from a panic in the pool's own bookkeeping; recover rather than
    // cascade.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ExecPool {
    /// A pool of `threads` total workers (the dispatching thread counts as
    /// one, so this spawns `threads - 1` OS threads). `0` means
    /// [`default_threads`].
    pub fn new(threads: usize) -> ExecPool {
        let threads = resolve_threads(threads);
        let shared = Arc::new(Shared::new());
        let workers = (1..threads)
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool {
            threads,
            shared,
            workers,
        }
    }

    /// Total worker count (including the dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `count` independent tasks, `task(i)` for `i in 0..count`, across
    /// the pool. Blocks until all tasks finish. Task index → work mapping
    /// is the caller's; which thread runs which index is unspecified, so
    /// tasks must write only to disjoint data (the `parallel_*` helpers
    /// guarantee this). Panics if any task panicked. Nested calls from
    /// inside a task run inline on the calling thread.
    pub fn run<F: Fn(usize) + Sync>(&self, count: usize, task: F) {
        if count == 0 {
            return;
        }
        let serial = count == 1 || self.threads == 1 || IN_TASK.with(Cell::get);
        if serial {
            let was = IN_TASK.with(|t| t.replace(true));
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..count {
                    task(i);
                }
            }));
            IN_TASK.with(|t| t.set(was));
            if let Err(p) = result {
                std::panic::resume_unwind(p);
            }
            return;
        }
        self.dispatch(count, &task);
    }

    /// Publish one job to the parked workers, take part in it, and wait
    /// until every worker that picked it up has let go of it.
    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        let _dispatch = lock(&shared.dispatch);
        let next = AtomicUsize::new(0);
        let panic_slot: PanicSlot = Mutex::new(None);
        let job = RawJob {
            // erase the borrow lifetime; see RawJob's safety comment
            task: unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    task as *const _,
                )
            },
            count,
            next: &next,
            panic_slot: &panic_slot,
        };
        {
            let mut slot = lock(&shared.slot);
            debug_assert!(slot.job.is_none(), "concurrent dispatch on one pool");
            slot.epoch += 1;
            slot.job = Some(job);
            shared.work_cv.notify_all();
        }
        // The dispatcher is a full participant.
        drain(task, count, &next, &panic_slot);
        // Wait for every worker that picked the job up, then retire it so a
        // late-waking worker can never observe dangling pointers.
        let mut slot = lock(&shared.slot);
        while slot.attached > 0 {
            slot = shared.done_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.job = None;
        drop(slot);
        let payload = lock(&panic_slot).take();
        if let Some(p) = payload {
            std::panic::resume_unwind(p); // original payload, original message
        }
    }

    /// Parallel iteration over `0..len` in fixed chunks of `grain`
    /// consecutive indices: `f` receives each half-open range. Chunk
    /// boundaries depend only on `len` and `grain`, never on the thread
    /// count.
    pub fn parallel_for<F: Fn(Range<usize>) + Sync>(&self, len: usize, grain: usize, f: F) {
        let grain = grain.max(1);
        let tasks = len.div_ceil(grain);
        self.run(tasks, move |i| {
            let start = i * grain;
            f(start..(start + grain).min(len));
        });
    }

    /// Split `data` into fixed chunks of `chunk_len` elements (last chunk
    /// may be short) and run `f(chunk_index, chunk)` for each in parallel.
    pub fn parallel_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        let cl = chunk_len.max(1);
        let tasks = len.div_ceil(cl);
        let base = SendPtr(data.as_mut_ptr());
        self.run(tasks, move |i| {
            let start = i * cl;
            let n = cl.min(len - start);
            // disjoint by construction: chunk i covers [i*cl, i*cl + n)
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), n) };
            f(i, chunk);
        });
    }

    /// Like [`ExecPool::parallel_chunks`] but over two slices chunked with
    /// identical chunk *counts*: chunk `i` covers `a[i*ca ..]` and
    /// `b[i*cb ..]`. Panics if the chunk counts disagree.
    pub fn parallel_chunks2<T, U, F>(
        &self,
        a: &mut [T],
        b: &mut [U],
        chunk_len_a: usize,
        chunk_len_b: usize,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T], &mut [U]) + Sync,
    {
        let (la, lb) = (a.len(), b.len());
        let ca = chunk_len_a.max(1);
        let cb = chunk_len_b.max(1);
        let tasks = la.div_ceil(ca);
        assert_eq!(
            tasks,
            lb.div_ceil(cb),
            "parallel_chunks2: slices disagree on chunk count"
        );
        let pa = SendPtr(a.as_mut_ptr());
        let pb = SendPtr(b.as_mut_ptr());
        self.run(tasks, move |i| {
            let (sa, sb) = (i * ca, i * cb);
            let (na, nb) = (ca.min(la - sa), cb.min(lb - sb));
            // SAFETY: chunk i of each slice covers [i*c, i*c + n) — the
            // regions handed to distinct tasks are disjoint by construction.
            let chunk_a = unsafe { std::slice::from_raw_parts_mut(pa.add(sa), na) };
            let chunk_b = unsafe { std::slice::from_raw_parts_mut(pb.add(sb), nb) };
            f(i, chunk_a, chunk_b);
        });
    }

    /// Run `tasks` independent tasks and collect their results **in task
    /// order** — the ordered-reduction primitive: fold the returned `Vec`
    /// sequentially and the reduction order is independent of the thread
    /// count.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(tasks, || None);
        {
            let base = SendPtr(out.as_mut_ptr());
            self.run(tasks, move |i| {
                // SAFETY: task i writes only slot i; slots are disjoint
                // and `out` outlives the scoped dispatch.
                let slot = unsafe { &mut *base.add(i) };
                *slot = Some(f(i));
            });
        }
        out.into_iter()
            .map(|r| r.expect("pool task completed"))
            .collect()
    }
}

/// A mutable slice pre-split into fixed chunks that [`ExecPool::run`]
/// tasks claim by index — the n-buffer companion to
/// [`ExecPool::parallel_chunks2`]. A structure-of-arrays kernel updates
/// many parallel buffers per chunk (six velocity components, nineteen
/// distribution rows); rather than grow a `parallel_chunksN` for every
/// arity, each buffer wraps itself in a `DisjointChunks` and the task for
/// chunk `ci` claims `ci` from each:
///
/// ```
/// # use gridsteer_exec::{ExecPool, DisjointChunks};
/// let pool = ExecPool::new(2);
/// let (mut a, mut b, mut c) = (vec![0u64; 64], vec![0u64; 64], vec![0u64; 64]);
/// let (da, db, dc) = (
///     DisjointChunks::new(&mut a, 16),
///     DisjointChunks::new(&mut b, 16),
///     DisjointChunks::new(&mut c, 16),
/// );
/// pool.run(da.chunk_count(), |ci| {
///     let (ca, cb, cc) = (da.claim(ci), db.claim(ci), dc.claim(ci));
///     for k in 0..ca.len() {
///         ca[k] = ci as u64;
///         cb[k] = 1;
///         cc[k] = 2;
///     }
/// });
/// assert_eq!(a[17], 1);
/// ```
///
/// Soundness is enforced at runtime: each chunk index is claimable exactly
/// once per `DisjointChunks` (an atomic turnstile per chunk), so two tasks
/// — or one task calling twice — can never hold aliasing `&mut` chunks;
/// the second claim panics. The chunk map is fixed by `(len, chunk_len)`
/// alone, preserving the pool's thread-count-independence contract.
pub struct DisjointChunks<'a, T> {
    base: SendPtr<T>,
    len: usize,
    chunk_len: usize,
    taken: Vec<AtomicBool>,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> DisjointChunks<'a, T> {
    /// Split `data` into chunks of `chunk_len` (the last may be short).
    pub fn new(data: &'a mut [T], chunk_len: usize) -> DisjointChunks<'a, T> {
        let chunk_len = chunk_len.max(1);
        let chunks = data.len().div_ceil(chunk_len);
        let mut taken = Vec::with_capacity(chunks);
        taken.resize_with(chunks, || AtomicBool::new(false));
        DisjointChunks {
            base: SendPtr(data.as_mut_ptr()),
            len: data.len(),
            chunk_len,
            taken,
            _borrow: std::marker::PhantomData,
        }
    }

    /// Number of chunks (pass to [`ExecPool::run`]).
    pub fn chunk_count(&self) -> usize {
        self.taken.len()
    }

    /// Element range covered by chunk `ci`.
    pub fn range(&self, ci: usize) -> Range<usize> {
        let start = ci * self.chunk_len;
        start..(start + self.chunk_len).min(self.len)
    }

    /// Claim chunk `ci`, exactly once. Panics on out-of-range or repeat
    /// claims — the aliasing guard that keeps this API safe.
    #[allow(clippy::mut_from_ref)] // one &mut per chunk, enforced by the turnstile below
    pub fn claim(&self, ci: usize) -> &mut [T] {
        assert!(
            !self.taken[ci].swap(true, Ordering::AcqRel),
            "chunk {ci} claimed twice"
        );
        let r = self.range(ci);
        // SAFETY: the turnstile above hands each chunk out at most once,
        // chunk regions are disjoint by construction, and the PhantomData
        // borrow keeps the underlying slice alive and exclusively ours.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(r.start), r.len()) }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Shared {
    fn new() -> Shared {
        Shared {
            dispatch: Mutex::new(()),
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                attached: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }
}

/// Claim and run task indices until the counter is exhausted.
fn drain(task: &(dyn Fn(usize) + Sync), count: usize, next: &AtomicUsize, panic_slot: &PanicSlot) {
    let was = IN_TASK.with(|t| t.replace(true));
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut slot = lock(panic_slot);
            // keep the first payload; later panics are dropped
            slot.get_or_insert(p);
        }
    }
    IN_TASK.with(|t| t.set(was));
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    if let Some(job) = slot.job {
                        seen = slot.epoch;
                        slot.attached += 1;
                        break job;
                    }
                    // the job this epoch was already retired; skip it
                    seen = slot.epoch;
                }
                slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Pointers stay valid while we are attached: the dispatcher blocks
        // until `attached == 0` before retiring the job.
        unsafe {
            drain(&*job.task, job.count, &*job.next, &*job.panic_slot);
        }
        let mut slot = lock(&shared.slot);
        slot.attached -= 1;
        if slot.attached == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A raw pointer that may cross threads. Safety rests on the chunk math in
/// the `parallel_*` helpers handing out disjoint regions. Accessed only
/// through [`SendPtr::add`] so closures capture the wrapper (with its
/// `Sync` impl), not the bare pointer field.
struct SendPtr<T>(*mut T);
// SAFETY: see above — disjoint-region chunk math is the whole contract.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same contract; shared references only ever read the pointer value.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// `self.0 + n` elements. Caller guarantees the offset stays in bounds
    /// and the resulting region is not aliased by another task.
    fn add(&self, n: usize) -> *mut T {
        unsafe { self.0.add(n) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_pool(threads: usize) -> ExecPool {
        ExecPool::new(threads)
    }

    #[test]
    fn run_covers_every_index_exactly_once() {
        let pool = counting_pool(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = counting_pool(4);
        pool.run(0, |_| panic!("must not run"));
        pool.parallel_for(0, 8, |_| panic!("must not run"));
        let empty: Vec<u64> = pool.map(0, |i| i as u64);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_slice_chunks_are_a_noop() {
        let pool = counting_pool(4);
        let mut data: Vec<u32> = Vec::new();
        pool.parallel_chunks(&mut data, 16, |_, _| panic!("must not run"));
        let mut a: Vec<u32> = Vec::new();
        let mut b: Vec<u8> = Vec::new();
        pool.parallel_chunks2(&mut a, &mut b, 4, 8, |_, _, _| panic!("must not run"));
    }

    #[test]
    fn more_threads_than_tasks() {
        // threads > chunk count: extra workers find the counter exhausted
        let pool = counting_pool(8);
        let mut data = vec![0u32; 3];
        pool.parallel_chunks(&mut data, 1, |i, c| c[0] = i as u32 + 1);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn single_element_slice() {
        let pool = counting_pool(4);
        let mut data = vec![7u64];
        pool.parallel_chunks(&mut data, 100, |i, c| {
            assert_eq!(i, 0);
            c[0] *= 2;
        });
        assert_eq!(data, vec![14]);
    }

    #[test]
    fn parallel_for_ranges_tile_exactly() {
        let pool = counting_pool(3);
        let seen = Mutex::new(vec![false; 23]);
        pool.parallel_for(23, 5, |r| {
            assert!(r.len() <= 5 && !r.is_empty());
            let mut s = lock(&seen);
            for i in r {
                assert!(!s[i], "index {i} covered twice");
                s[i] = true;
            }
        });
        assert!(lock(&seen).iter().all(|&b| b));
    }

    #[test]
    fn ragged_tail_chunk_is_short() {
        let pool = counting_pool(2);
        let mut data = vec![0u8; 10];
        let sizes = Mutex::new(Vec::new());
        pool.parallel_chunks(&mut data, 4, |i, c| {
            lock(&sizes).push((i, c.len()));
        });
        let mut s = lock(&sizes).clone();
        s.sort();
        assert_eq!(s, vec![(0, 4), (1, 4), (2, 2)]);
    }

    #[test]
    fn chunks2_pairs_matching_chunks() {
        let pool = counting_pool(4);
        let mut nodes = vec![0u32; 12];
        let mut wide = vec![0u32; 36]; // 3 per node
        pool.parallel_chunks2(&mut nodes, &mut wide, 4, 12, |i, a, b| {
            for v in a.iter_mut() {
                *v = i as u32;
            }
            for v in b.iter_mut() {
                *v = 10 + i as u32;
            }
        });
        assert_eq!(nodes, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(wide[..12].iter().all(|&v| v == 10));
        assert!(wide[24..].iter().all(|&v| v == 12));
    }

    #[test]
    #[should_panic(expected = "disagree on chunk count")]
    fn chunks2_mismatched_counts_panic() {
        let pool = counting_pool(2);
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 10];
        pool.parallel_chunks2(&mut a, &mut b, 2, 5, |_, _, _| {});
    }

    #[test]
    fn map_preserves_task_order() {
        let pool = counting_pool(4);
        let out = pool.map(50, |i| i * i);
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // the determinism contract, end to end: fixed grain, ordered fold
        let work = |pool: &ExecPool| -> (Vec<f64>, f64) {
            let partials = pool.map(10, |i| {
                let mut s = 0.0f64;
                for k in 0..100 {
                    s += ((i * 100 + k) as f64).sqrt();
                }
                s
            });
            let total = partials.iter().fold(0.0, |a, b| a + b); // ordered
            (partials, total)
        };
        let (p1, t1) = work(&counting_pool(1));
        let (p4, t4) = work(&counting_pool(4));
        let (p8, t8) = work(&counting_pool(8));
        assert_eq!(p1, p4);
        assert_eq!(p1, p8);
        assert_eq!(t1.to_bits(), t4.to_bits());
        assert_eq!(t1.to_bits(), t8.to_bits());
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let pool = counting_pool(4);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 16);
    }

    #[test]
    fn task_panic_propagates_and_pool_remains_usable() {
        let pool = counting_pool(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            })
        }));
        // the original payload must survive parallel dispatch, so a
        // diagnostic message is never reduced to a generic wrapper
        let payload = r.expect_err("panic must propagate to the dispatcher");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // the pool still works afterwards
        let out = pool.map(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = Arc::new(counting_pool(4));
        let inner_total = AtomicUsize::new(0);
        let p2 = pool.clone();
        pool.run(4, |_| {
            // would deadlock if it tried to take the dispatch path
            p2.run(4, |_| {
                inner_total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn shared_registry_reuses_pools() {
        let a = shared(3);
        let b = shared(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
        let g = global();
        assert_eq!(g.threads(), default_threads());
    }

    #[test]
    fn resolve_and_default_threads_sane() {
        assert!(default_threads() >= 1);
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(resolve_threads(0), default_threads());
    }

    #[test]
    fn concurrent_dispatchers_on_one_pool_serialize() {
        // two threads hammering the same shared pool: dispatches must
        // serialize, never interleave or corrupt each other's jobs
        let pool = Arc::new(counting_pool(4));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let p = pool.clone();
                let t = total.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        p.run(8, |_| {
                            t.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 3 * 100 * 8);
    }

    #[test]
    fn concurrent_dispatchers_on_distinct_pools() {
        // two threads driving two pools at once must not interfere
        let p1 = Arc::new(counting_pool(4));
        let p2 = Arc::new(counting_pool(4));
        let t1 = {
            let p = p1.clone();
            std::thread::spawn(move || {
                let mut v = vec![0u32; 1000];
                for _ in 0..50 {
                    p.parallel_chunks(&mut v, 100, |i, c| {
                        for x in c.iter_mut() {
                            *x = x.wrapping_add(i as u32);
                        }
                    });
                }
                v
            })
        };
        let mut v2 = vec![0u32; 1000];
        for _ in 0..50 {
            p2.parallel_chunks(&mut v2, 100, |i, c| {
                for x in c.iter_mut() {
                    *x = x.wrapping_add(i as u32);
                }
            });
        }
        let v1 = t1.join().unwrap();
        assert_eq!(v1, v2);
    }

    #[test]
    fn disjoint_chunks_cover_multiple_buffers_per_chunk() {
        let pool = counting_pool(4);
        let mut a = vec![0u64; 103]; // last chunk short
        let mut b = vec![0u64; 103];
        {
            let da = DisjointChunks::new(&mut a, 16);
            let db = DisjointChunks::new(&mut b, 16);
            assert_eq!(da.chunk_count(), 7);
            assert_eq!(da.range(6), 96..103);
            pool.run(da.chunk_count(), |ci| {
                let (ca, cb) = (da.claim(ci), db.claim(ci));
                for (k, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                    *x = (ci * 16 + k) as u64;
                    *y = 2 * (ci * 16 + k) as u64;
                }
            });
        }
        assert!(a.iter().enumerate().all(|(i, &v)| v == i as u64));
        assert!(b.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn disjoint_chunk_double_claim_panics() {
        let mut a = vec![0u8; 32];
        let d = DisjointChunks::new(&mut a, 8);
        let _first = d.claim(1);
        let _second = d.claim(1);
    }
}
