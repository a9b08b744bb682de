package parallel

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSetWorkersRoundTrip(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)

	if prev := SetWorkers(3); prev != orig {
		t.Fatalf("SetWorkers returned prev=%d, want %d", prev, orig)
	}
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", w)
	}
	SetWorkers(0) // reset to GOMAXPROCS
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0), want >= 1", w)
	}

	// The -workers flag applies itself at parse and refuses non-integers.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlag(fs)
	if err := fs.Parse([]string{"-workers", "2"}); err != nil || Workers() != 2 {
		t.Fatalf("-workers 2: err %v, Workers() = %d", err, Workers())
	}
	if err := fs.Parse([]string{"-workers", "two"}); err == nil {
		t.Fatal("-workers two must fail the parse")
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)

	for _, w := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 15, 16, 31, 32, 100, 1000, 1024} {
			SetWorkers(w)
			counts := make([]int32, n)
			For(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("w=%d n=%d: bad block [%d,%d)", w, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, c)
				}
			}
		}
	}
}

// TestForBlockLayoutIsDeterministic locks in that the block boundaries are a
// pure function of (n, workers) — the property that makes row-parallel
// kernels bit-reproducible.
func TestForBlockLayoutIsDeterministic(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)

	layout := func() [][2]int {
		var mu sync.Mutex
		var blocks [][2]int
		For(1000, func(lo, hi int) {
			mu.Lock()
			blocks = append(blocks, [2]int{lo, hi})
			mu.Unlock()
		})
		return blocks
	}
	a, b := layout(), layout()
	if len(a) != len(b) {
		t.Fatalf("block count varies across runs: %d vs %d", len(a), len(b))
	}
	seen := make(map[[2]int]bool, len(a))
	for _, blk := range a {
		seen[blk] = true
	}
	for _, blk := range b {
		if !seen[blk] {
			t.Fatalf("block %v appears in one run but not the other", blk)
		}
	}
}

// TestForGrainAlignsBlockBoundaries verifies ForGrain's contract: full
// coverage, each index exactly once, and every block boundary except the
// final n on a multiple of the grain.
func TestForGrainAlignsBlockBoundaries(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)

	for _, w := range []int{1, 2, 4, 8} {
		for _, grain := range []int{1, 3, 4, 7, 16} {
			for _, n := range []int{0, 1, 5, 63, 64, 100, 1000, 1021} {
				SetWorkers(w)
				counts := make([]int32, n)
				var mu sync.Mutex
				var blocks [][2]int
				ForGrain(n, grain, func(lo, hi int) {
					if lo%grain != 0 {
						t.Errorf("w=%d grain=%d n=%d: block start %d not grain-aligned", w, grain, n, lo)
					}
					if hi != n && hi%grain != 0 {
						t.Errorf("w=%d grain=%d n=%d: block end %d not grain-aligned", w, grain, n, hi)
					}
					mu.Lock()
					blocks = append(blocks, [2]int{lo, hi})
					mu.Unlock()
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("w=%d grain=%d n=%d: index %d visited %d times", w, grain, n, i, c)
					}
				}
			}
		}
	}
}

// TestForGrainOneMatchesFor locks in that grain <= 1 degenerates to exactly
// For's block layout, so ForGrain is a strict generalization.
func TestForGrainOneMatchesFor(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)

	layout := func(run func(n int, body func(lo, hi int))) map[[2]int]bool {
		var mu sync.Mutex
		blocks := make(map[[2]int]bool)
		run(1000, func(lo, hi int) {
			mu.Lock()
			blocks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return blocks
	}
	a := layout(For)
	b := layout(func(n int, body func(lo, hi int)) { ForGrain(n, 1, body) })
	if len(a) != len(b) {
		t.Fatalf("For produced %d blocks, ForGrain(1) %d", len(a), len(b))
	}
	for blk := range a {
		if !b[blk] {
			t.Fatalf("block %v in For but not ForGrain(1)", blk)
		}
	}
}

func TestForWorkGrainStaysSerialBelowThreshold(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(8)

	calls := 0
	ForWorkGrain(1000, MinWork-1, 4, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Fatalf("serial ForWorkGrain got block [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("ForWorkGrain below threshold ran body %d times, want 1", calls)
	}

	var covered atomic.Int64
	ForWorkGrain(1000, MinWork, 4, func(lo, hi int) {
		if lo%4 != 0 {
			t.Fatalf("ForWorkGrain block start %d not grain-aligned", lo)
		}
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != 1000 {
		t.Fatalf("ForWorkGrain covered %d rows, want 1000", covered.Load())
	}
}

func TestForSerialWhenOneWorker(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(1)

	calls := 0
	For(500, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 500 {
			t.Fatalf("serial For got block [%d,%d), want [0,500)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial For ran body %d times, want 1", calls)
	}
}

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(4)
	var sum atomic.Int64
	const n = 200
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			sum.Add(int64(i))
		})
	}
	wg.Wait()
	p.Close()
	if got, want := sum.Load(), int64(n*(n+1)/2); got != want {
		t.Fatalf("task sum = %d, want %d", got, want)
	}
}

func TestPoolSubmitAfterCloseRunsInline(t *testing.T) {
	p := NewPool(2)
	p.Close()
	ran := false
	p.Submit(func() { ran = true })
	if !ran {
		t.Fatal("Submit after Close did not run the task inline")
	}
	if p.TrySubmit(func() {}) {
		t.Fatal("TrySubmit accepted a task after Close")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 50; i++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			<-gate
			cur.Add(-1)
		}
		// Only count tasks the pool actually accepted; overflow runs on the
		// caller and would block this loop on the gate, so skip those.
		if !p.TrySubmit(task) {
			wg.Done()
		}
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("pool ran %d tasks at once, bound is %d", got, workers)
	}
}

func TestGroupWaitsForAllTasks(t *testing.T) {
	g := NewGroup(4)
	var done atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() error {
			done.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
	if done.Load() != 100 {
		t.Fatalf("only %d/100 tasks ran before Wait returned", done.Load())
	}
}

func TestGroupReturnsFirstError(t *testing.T) {
	g := NewGroup(2)
	want := errors.New("boom")
	for i := 0; i < 10; i++ {
		g.Go(func() error {
			if i == 4 {
				return want
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait() = %v, want %v", err, want)
	}
}

func TestGroupConcurrencyLimit(t *testing.T) {
	const limit = 2
	g := NewGroup(limit)
	var cur, peak atomic.Int64
	for i := 0; i < 20; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			defer cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > limit {
		t.Fatalf("group ran %d tasks at once, limit is %d", got, limit)
	}
}

// TestNestedForUnderGroupDoesNotDeadlock exercises the federated shape:
// a bounded fan-out whose tasks each run row-parallel loops. The pool's
// run-inline overflow policy must keep this deadlock-free.
func TestNestedForUnderGroupDoesNotDeadlock(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)

	g := NewGroup(4)
	var total atomic.Int64
	for c := 0; c < 8; c++ {
		g.Go(func() error {
			For(512, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8*512 {
		t.Fatalf("nested For covered %d rows, want %d", total.Load(), 8*512)
	}
}

// TestNestedForInsideForDoesNotDeadlock covers For bodies that themselves
// call For: the offloaded outer blocks run on pool workers, which then wait
// on their inner blocks. Without waiters help-draining the queue this
// deadlocks (all workers parked, inner blocks stuck in the queue).
func TestNestedForInsideForDoesNotDeadlock(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)

	var total atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		For(256, func(lo, hi int) {
			For(256, func(l2, h2 int) {
				total.Add(int64(h2 - l2))
			})
		})
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
	// 256/minBlock = 16 candidate blocks capped at 4 workers → 4 outer
	// blocks, each running a full inner For over 256 rows.
	if total.Load() != 4*256 {
		t.Fatalf("nested For covered %d rows, want %d", total.Load(), 4*256)
	}
}

func TestForWorkStaysSerialBelowThreshold(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(8)

	calls := 0
	ForWork(1000, MinWork-1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Fatalf("serial ForWork got block [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("ForWork below threshold ran body %d times, want 1", calls)
	}

	var covered atomic.Int64
	ForWork(1000, MinWork, func(lo, hi int) {
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != 1000 {
		t.Fatalf("ForWork above threshold covered %d rows, want 1000", covered.Load())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			orig := SetWorkers(w)
			defer SetWorkers(orig)
			x := make([]float64, 1<<16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				For(len(x), func(lo, hi int) {
					for j := lo; j < hi; j++ {
						x[j] += 1
					}
				})
			}
		})
	}
}
