package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// BenchmarkZooRouting prices the registry's routing layer: 64 concurrent
// single-node queries answered by a directly held serve.Server (path=direct,
// the baseline benchjson divides by) versus the same queries routed through
// Registry.Predict with its acquire/stats/A-B machinery (path=routed), with
// and without an active A/B split. ns/op covers one full 64-query wave; the
// routed/direct ratio is the fleet-routing overhead the zoo experiment
// asserts stays under 10%.
func BenchmarkZooRouting(b *testing.B) {
	const conc = 64
	dir := zooDir(b, "base@1", "ada@1")
	opt := Options{Serve: serve.Options{MaxBatch: conc, MaxWait: 2 * time.Millisecond, Seed: 1}}

	wave := func(b *testing.B, predict func(q int) error) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for q := 0; q < conc; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					if err := predict(q); err != nil {
						b.Error(err)
					}
				}(q)
			}
			wg.Wait()
		}
		b.StopTimer()
		if el := b.Elapsed().Seconds(); el > 0 {
			b.ReportMetric(float64(conc*b.N)/el, "queries/s")
		}
	}

	for _, mode := range []struct {
		path string
		ab   bool
	}{
		{"direct", false},
		{"routed", false},
		{"routed-ab", true},
	} {
		b.Run(fmt.Sprintf("conc=%d/path=%s", conc, mode.path), func(b *testing.B) {
			r := New(opt)
			defer r.Close()
			if _, err := r.LoadDir(dir); err != nil {
				b.Fatal(err)
			}
			if mode.ab {
				if err := r.ConfigureAB(ABConfig{Control: "base", Candidate: "ada", Fraction: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
			h, err := r.Acquire("base")
			if err != nil {
				b.Fatal(err)
			}
			defer h.Release()
			nodes := h.Server().Nodes()
			if mode.path == "direct" {
				srv := h.Server()
				wave(b, func(q int) error {
					_, err := srv.Predict([]int{(q * 17) % nodes})
					return err
				})
				return
			}
			wave(b, func(q int) error {
				_, err := r.Predict("base", []int{(q * 17) % nodes})
				return err
			})
		})
	}
}

// BenchmarkRegistryStats guards the stats-path lock contract over full
// reservoirs: Stats and ABReportNow copy the counters under Registry.mu but
// sort the latency samples outside it, so a stats poller never stalls the
// record every predict makes under that lock. The timed loop is that record
// — one version's and one arm's — while a poller renders both reports
// concurrently. If a sort moves back under the lock, ns/op about doubles on
// two cores (not more: Go's mutex hands the lock to a waiter starved for
// 1 ms, which bounds how often the poller can stall the loop).
func BenchmarkRegistryStats(b *testing.B) {
	dir := zooDir(b, "base@1", "ada@1")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	if _, err := r.LoadDir(dir); err != nil {
		b.Fatal(err)
	}
	if err := r.ConfigureAB(ABConfig{Control: "base", Candidate: "ada", Fraction: 0.5}); err != nil {
		b.Fatal(err)
	}
	e := r.models["base"].versions[1]
	record := func(i int) {
		lat := time.Duration(i%2048) * time.Microsecond
		r.mu.Lock()
		e.stats.record(1, 1, 1, lat)
		r.ab.control.record(1, 1, 1, lat)
		r.mu.Unlock()
	}
	for i := 0; i < statsWindow; i++ {
		record(i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := r.Stats("base"); err != nil {
					b.Error(err)
				}
				if _, err := r.ABReportNow(); err != nil {
					b.Error(err)
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record(i)
	}
	b.StopTimer()
	close(done)
	wg.Wait()
}
