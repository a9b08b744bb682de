// Package parallel is the shared parallel-execution substrate of the AdaFGL
// reproduction. It provides three primitives used across the hot layers of
// the system (sparse propagation, dense GEMM, per-client federated training):
//
//   - Pool: a bounded worker pool with non-blocking submission. Tasks that
//     cannot be enqueued run on the caller's goroutine, so composing Pool
//     with nested parallel code can never deadlock.
//   - For: a deterministic row-range parallel loop. [0, n) is split into
//     contiguous blocks, each processed by exactly one invocation of the
//     body, so any computation whose per-row output is independent of other
//     rows produces bit-identical results for every worker count.
//   - Group: an errgroup-style fan-out helper with a concurrency bound and
//     first-error capture, used for per-client federated work.
//
// The process-wide worker count defaults to GOMAXPROCS and is configurable
// via SetWorkers (RegisterFlag declares the -workers flag every binary and
// example takes). Workers() == 1 makes every primitive run serially on the
// calling goroutine.
package parallel

import (
	"flag"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

var workerCount atomic.Int64

func init() { workerCount.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the process-wide default worker count used by For, Group
// and the shared pool. n <= 0 resets to GOMAXPROCS. It returns the previous
// value so tests can restore it.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workerCount.Swap(int64(n)))
}

// Workers returns the current process-wide worker count.
func Workers() int { return int(workerCount.Load()) }

// RegisterFlag declares the -workers flag on fs — its one declaration for
// every binary and example. The flag applies itself: parsing "-workers N"
// calls SetWorkers(N).
func RegisterFlag(fs *flag.FlagSet) {
	fs.Func("workers", "parallel worker count (0 = GOMAXPROCS); results are identical for every value", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		SetWorkers(n)
		return nil
	})
}

// Pool is a bounded worker pool: a fixed set of goroutines draining a task
// queue. Submission is non-blocking — TrySubmit refuses when the queue is
// full and Submit falls back to running the task on the caller's goroutine —
// which keeps nested parallel constructs deadlock-free by construction.
type Pool struct {
	tasks   chan func()
	workers sync.WaitGroup
	mu      sync.RWMutex // guards closed against concurrent submission
	closed  bool
}

// NewPool starts a pool with n workers (n <= 0 means GOMAXPROCS) and a task
// queue of 4n entries.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func(), 4*n)}
	p.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.workers.Done()
			for fn := range p.tasks {
				fn()
				telPoolTasks.Inc()
			}
		}()
	}
	return p
}

// TrySubmit enqueues fn if queue space is available, reporting whether it
// was accepted. It never blocks and never runs fn on the caller.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// Submit runs fn via the pool, executing it on the calling goroutine when
// the queue is full or the pool is closed. fn always runs exactly once.
func (p *Pool) Submit(fn func()) {
	if !p.TrySubmit(fn) {
		fn()
		telInlineTasks.Inc()
	}
}

// runOne pops and runs one queued task, reporting whether it did. Waiters
// use it to help drain the queue, so a task blocked on subtasks can never
// starve them of workers.
func (p *Pool) runOne() bool {
	select {
	case fn, ok := <-p.tasks:
		if !ok {
			return false
		}
		fn()
		telPoolTasks.Inc()
		return true
	default:
		return false
	}
}

// Close stops accepting tasks, drains the queue and waits for the workers to
// exit. Pending tasks still run.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.workers.Wait()
}

// sharedPool lazily starts the process-wide pool backing For. Sized to the
// machine (GOMAXPROCS), not to Workers(): the per-call block count already
// honours Workers(), the pool only caps physical concurrency.
var (
	sharedOnce sync.Once
	shared     *Pool
)

func sharedPool() *Pool {
	sharedOnce.Do(func() {
		shared = NewPool(runtime.GOMAXPROCS(0))
		sharedPtr.Store(shared)
	})
	return shared
}

// minBlock is the smallest row-block For will hand to a worker; below this
// the scheduling overhead outweighs the work for the row-wise kernels in
// this repository.
const minBlock = 16

// For executes body over contiguous blocks covering [0, n) exactly once.
// The block layout depends only on n and Workers(), never on scheduling, so
// computations whose rows are mutually independent are bit-reproducible for
// any worker count. The first block runs on the calling goroutine; the rest
// are offloaded to the shared pool (or run inline when it is saturated).
// While waiting for offloaded blocks the caller helps drain the pool queue,
// so nested For — including from inside a pool worker — cannot deadlock.
// With Workers() <= 1 or n < 2*minBlock the body runs serially as
// body(0, n).
func For(n int, body func(lo, hi int)) { forBlocks(n, 1, body) }

// ForGrain is For with a block-alignment grain: every block boundary except
// the final n is a multiple of grain. Tiled kernels that process rows in
// grain-sized groups (e.g. the blocked GEMM micro-kernel) therefore see at
// most one partial group per call instead of one per worker block. The
// layout is a pure function of (n, grain, Workers()), preserving For's
// bit-reproducibility contract; grain <= 1 is exactly For.
func ForGrain(n, grain int, body func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	forBlocks(n, grain, body)
}

// forBlocks implements For/ForGrain: split [0, n) into up to Workers()
// contiguous blocks of at least minBlock rows, each starting on a multiple
// of grain.
func forBlocks(n, grain int, body func(lo, hi int)) {
	w := Workers()
	if n <= 0 {
		return
	}
	nb := n / minBlock
	if nb > w {
		nb = w
	}
	units := (n + grain - 1) / grain
	if nb > units {
		nb = units
	}
	if w <= 1 || nb < 2 {
		body(0, n)
		return
	}
	// Even split (in grain units) with the remainder spread over the first
	// blocks keeps the layout a pure function of (n, grain, nb).
	size, rem := units/nb, units%nb
	bounds := func(b int) (int, int) {
		ulo := b*size + min(b, rem)
		uhi := ulo + size
		if b < rem {
			uhi++
		}
		lo, hi := ulo*grain, uhi*grain
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	var pending atomic.Int64
	pending.Store(int64(nb - 1))
	done := make(chan struct{})
	pool := sharedPool()
	for b := 1; b < nb; b++ {
		lo, hi := bounds(b)
		pool.Submit(func() {
			body(lo, hi)
			if pending.Add(-1) == 0 {
				close(done)
			}
		})
	}
	lo, hi := bounds(0)
	body(lo, hi)
	// Help-drain until our blocks finish: every waiter doing this guarantees
	// queued tasks always have a goroutine to run on, even when all pool
	// workers are themselves blocked waiting on nested submissions.
	for {
		select {
		case <-done:
			return
		default:
		}
		if !pool.runOne() {
			// Queue empty: our remaining blocks are running on other
			// goroutines; block until the last one signals.
			<-done
			return
		}
	}
}

// MinWork is the default approximate per-call work (flops or elements
// touched) below which ForWork runs serially; smaller kernels are dominated
// by scheduling overhead.
const MinWork = 1 << 14

// ForWork is For with a work gate: callers pass an estimate of the total
// work and the loop stays serial below MinWork. Shared by the sparse and
// dense kernel layers so their parallelization thresholds cannot drift
// apart.
func ForWork(n, work int, body func(lo, hi int)) {
	if work < MinWork {
		body(0, n)
		return
	}
	For(n, body)
}

// ForWorkGrain is ForGrain with the same work gate as ForWork.
func ForWorkGrain(n, work, grain int, body func(lo, hi int)) {
	if work < MinWork {
		body(0, n)
		return
	}
	ForGrain(n, grain, body)
}

// Group is an errgroup-style fan-out: Go launches tasks bounded by a
// concurrency limit, Wait blocks until all complete and returns the first
// error. The zero value is not usable; use NewGroup.
type Group struct {
	sem  chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

// NewGroup returns a Group running at most limit tasks concurrently
// (limit <= 0 means Workers()).
func NewGroup(limit int) *Group {
	if limit <= 0 {
		limit = Workers()
	}
	return &Group{sem: make(chan struct{}, limit)}
}

// Go schedules fn, blocking the caller while the group is at its
// concurrency limit (errgroup.SetLimit semantics). Do not call Go from
// inside a task of the same group.
func (g *Group) Go(fn func() error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every task launched with Go has finished and returns
// the first error encountered (nil if none).
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
