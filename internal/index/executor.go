package index

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Process-wide shard executor: a fixed pool of workers with per-worker
// run queues and work-stealing that replaces the per-query goroutine
// fan-out on the read path (search, count, facets). One query used to
// spawn one goroutine per shard per call — under load that is pure
// scheduler churn, since the runtime only has GOMAXPROCS lanes anyway.
// The executor caps the process at a fixed worker set and lets the
// submitting goroutine participate in its own job, so
//
//   - goroutine creation on the query path drops to zero,
//   - a saturated server degrades to inline single-threaded execution
//     (flat throughput) instead of drowning in runnable goroutines,
//   - an idle server still fans a big query out across all workers.
//
// Progress is never owed to the pool: the caller claims tasks from its
// own job until none remain, so a job completes even if every worker
// is busy elsewhere. Workers are strictly an acceleration.
//
// Job lifecycle and the scratch-safety contract: jobs are pooled and
// recycled. A job is only reset and returned to the pool when its
// reference count — one for the submitter, one per queued worker ref —
// reaches zero, so a worker that dequeues a stale reference after the
// job completed can never observe the next query's task function or
// double-complete into its scratch. Combined with the join in
// runShards (the submitter always waits for every task, even when the
// request context is already cancelled), nothing downstream can
// release per-query scratch while an executor task still writes to it.

// execJob is one fan-out: run fn(i) for i in [0, n).
type execJob struct {
	fn func(int)
	n  int32
	// next is the claim cursor: a worker (or the submitter) owns index
	// i by winning next.Add(1)-1 == i.
	next atomic.Int32
	// done counts completed tasks; whoever completes the last one
	// signals fin.
	done atomic.Int32
	// refs pins the job: 1 for the submitter plus 1 per queued worker
	// reference. The job recycles only at zero, so stale queue entries
	// can never touch a reset job.
	refs atomic.Int32
	fin  chan struct{}
}

var execJobPool = sync.Pool{
	New: func() any { return &execJob{fin: make(chan struct{}, 1)} },
}

// run claims and executes tasks until the claim cursor passes n.
func (j *execJob) run() {
	n := j.n
	for {
		i := j.next.Add(1) - 1
		if i >= n {
			return
		}
		j.fn(int(i))
		if j.done.Add(1) == n {
			j.fin <- struct{}{}
		}
	}
}

// release drops one reference; the last reference resets and pools
// the job.
func (j *execJob) release() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil
		execJobPool.Put(j)
	}
}

// execWorker is one pool worker: a mutex-guarded run queue plus a
// one-slot wake channel (the buffered token survives the race between
// a submitter's wake and the worker's park, so wakeups are never
// lost).
type execWorker struct {
	mu   sync.Mutex
	q    []*execJob
	wake chan struct{}
}

func (w *execWorker) pop() *execJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.q) == 0 {
		return nil
	}
	j := w.q[len(w.q)-1]
	w.q[len(w.q)-1] = nil
	w.q = w.q[:len(w.q)-1]
	return j
}

// steal takes from the queue's front — the oldest job — so stolen work
// is the work least likely to still be contended by the queue's owner.
func (w *execWorker) steal() *execJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.q) == 0 {
		return nil
	}
	j := w.q[0]
	copy(w.q, w.q[1:])
	w.q[len(w.q)-1] = nil
	w.q = w.q[:len(w.q)-1]
	return j
}

// executor is one immutable generation of the pool. configureExecutor
// swaps the whole value so resizing never locks the submit path.
type executor struct {
	workers []*execWorker
	quit    chan struct{}
	// idle counts parked workers — the adaptive fan-out signal: a
	// query only queues helper references when somebody is free to take
	// them, and degrades to inline execution when the pool is
	// saturated.
	idle atomic.Int32
	// rr round-robins which worker queue a submission lands on.
	rr atomic.Uint32
	// wg tracks worker goroutines for leak-free shutdown.
	wg sync.WaitGroup
}

func newExecutor(n int) *executor {
	e := &executor{quit: make(chan struct{})}
	e.workers = make([]*execWorker, n)
	for i := range e.workers {
		e.workers[i] = &execWorker{wake: make(chan struct{}, 1)}
	}
	for i := range e.workers {
		e.wg.Add(1)
		go e.workerLoop(i)
	}
	return e
}

func (e *executor) workerLoop(self int) {
	defer e.wg.Done()
	w := e.workers[self]
	for {
		j := w.pop()
		if j == nil {
			for o := range e.workers {
				if o == self {
					continue
				}
				if j = e.workers[o].steal(); j != nil {
					execStolen.Add(1)
					break
				}
			}
		}
		if j != nil {
			j.run()
			j.release()
			continue
		}
		// Park: declare idleness, re-check for work submitted in the
		// window, then block on the wake token.
		e.idle.Add(1)
		if e.anyQueued() {
			e.idle.Add(-1)
			continue
		}
		select {
		case <-w.wake:
			e.idle.Add(-1)
		case <-e.quit:
			e.idle.Add(-1)
			return
		}
	}
}

func (e *executor) anyQueued() bool {
	for _, w := range e.workers {
		w.mu.Lock()
		n := len(w.q)
		w.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// offer queues helpers references to j on distinct worker queues and
// wakes their owners. It never blocks.
func (e *executor) offer(j *execJob, helpers int) {
	start := int(e.rr.Add(1))
	for k := 0; k < helpers; k++ {
		w := e.workers[(start+k)%len(e.workers)]
		w.mu.Lock()
		w.q = append(w.q, j)
		w.mu.Unlock()
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// close stops the workers after their queues drain naturally: quit
// only wins the park select, so a worker holding queued jobs finishes
// them first (job references are pinned regardless, and submitters
// self-complete, so even an abandoned queue entry would be safe —
// this just keeps the common shutdown tidy).
func (e *executor) close() {
	close(e.quit)
	e.wg.Wait()
}

// Global executor state. The pool is process-wide by design: it exists
// to bound total query parallelism across every index in the process,
// which a per-index pool cannot do.
var (
	execPtr      atomic.Pointer[executor]
	execInitOnce sync.Once
	execMu       sync.Mutex // serializes configureExecutor

	// Counters for /statusz and the benchmarks.
	execParallel atomic.Uint64 // fan-outs that queued helper refs
	execInline   atomic.Uint64 // fan-outs executed fully inline
	execTasks    atomic.Uint64 // shard tasks executed (any path)
	execStolen   atomic.Uint64 // jobs taken from another worker's queue
)

func currentExecutor() *executor {
	if e := execPtr.Load(); e != nil {
		return e
	}
	execInitOnce.Do(func() {
		execMu.Lock()
		defer execMu.Unlock()
		if execPtr.Load() == nil {
			execPtr.Store(newExecutor(runtime.GOMAXPROCS(0)))
		}
	})
	return execPtr.Load()
}

// configureExecutor resizes the process-wide shard executor to n
// workers (n < 1 means GOMAXPROCS). The previous pool's workers drain
// and exit; in-flight jobs are unaffected because submitters always
// self-complete their jobs. Only tests resize the pool; production
// sizes it once from GOMAXPROCS in currentExecutor.
func configureExecutor(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	execMu.Lock()
	defer execMu.Unlock()
	old := execPtr.Load()
	execPtr.Store(newExecutor(n))
	if old != nil {
		old.close()
	}
}

// ExecutorStats is the operator view of the shard executor.
type ExecutorStats struct {
	Workers  int    `json:"workers"`
	Idle     int    `json:"idle"`
	Parallel uint64 `json:"parallelRuns"`
	Inline   uint64 `json:"inlineRuns"`
	Tasks    uint64 `json:"tasks"`
	Stolen   uint64 `json:"stolen"`
}

// GetExecutorStats reports the process-wide executor counters.
func GetExecutorStats() ExecutorStats {
	e := currentExecutor()
	return ExecutorStats{
		Workers:  len(e.workers),
		Idle:     int(e.idle.Load()),
		Parallel: execParallel.Load(),
		Inline:   execInline.Load(),
		Tasks:    execTasks.Load(),
		Stolen:   execStolen.Load(),
	}
}

// workHint estimates the postings work a query will score — the sum of
// the global document frequencies of its terms, which upper-bounds the
// candidate set. Below inlineWorkHint the fixed cost of queueing and
// waking helpers exceeds the work itself and the fan-out runs inline.
func (st *searchStats) workHint() int {
	n := 0
	for _, df := range st.df {
		n += df
	}
	return n
}

// inlineWorkHint is the postings-work floor under which a query never
// fans out: scoring a few hundred postings is faster than one
// queue/wake round trip.
const inlineWorkHint = 512

// runShards executes fn once per shard of the ring for the query read
// path. Parallelism is adaptive: the fan-out degree is the number of
// currently idle pool workers (capped by shard count), further capped
// to 1 when the estimated postings work is too small to amortize a
// wakeup. Degree 1 runs fully inline on the submitting goroutine —
// the saturation behaviour: when every worker is busy, new queries
// cost zero goroutines and zero queue traffic, so throughput holds
// flat instead of collapsing under scheduler churn.
//
// The submitter always participates and always joins: runShards
// returns only after every fn(i) has returned, even when the request
// context is long cancelled (tasks observe cancellation via st and
// finish within one posting block). Callers may therefore recycle
// any scratch fn wrote to as soon as runShards returns.
func (ix *Index) runShards(st *searchStats, r *ring, fn func(i int, s *shard)) {
	n := len(r.shards)
	if n == 1 {
		execTasks.Add(1)
		fn(0, r.shards[0])
		return
	}
	e := currentExecutor()
	degree := int(e.idle.Load()) + 1
	if degree > n {
		degree = n
	}
	if degree > 1 && st != nil && st.workHint() < inlineWorkHint {
		degree = 1
	}
	execTasks.Add(uint64(n))
	if degree <= 1 {
		execInline.Add(1)
		for i, s := range r.shards {
			fn(i, s)
		}
		return
	}
	execParallel.Add(1)
	j := execJobPool.Get().(*execJob)
	j.fn = func(i int) { fn(i, r.shards[i]) }
	j.n = int32(n)
	j.next.Store(0)
	j.done.Store(0)
	j.refs.Store(int32(degree)) // submitter + degree-1 helper refs
	e.offer(j, degree-1)
	j.run()
	<-j.fin
	j.release()
}
