package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
)

// BenchmarkServeBatching prices request coalescing: 64 concurrent
// single-node queries answered by a single-request server (path=single, the
// baseline) versus a batching server (path=batch64), across worker counts and
// both architectures (coupled GCN, decoupled SGC; either way a window is a
// row gather from the logits table the artifact carries). ns/op covers one
// full 64-query wave, so the ns/op ratio is the throughput ratio.
// TestServeDeterminism holds the batched answers to the single-request ones
// bit for bit.
func BenchmarkServeBatching(b *testing.B) {
	const conc = 64
	for _, arch := range []string{"GCN", "SGC"} {
		ck := trainedCheckpoint(b, arch, 31)
		for _, workers := range []int{1, 4} {
			for _, mode := range []struct {
				path  string
				batch int
				wait  time.Duration
			}{
				{"single", 1, 0},
				{"batch64", conc, 2 * time.Millisecond},
			} {
				name := fmt.Sprintf("arch=%s/conc=%d/workers=%d/path=%s", arch, conc, workers, mode.path)
				b.Run(name, func(b *testing.B) {
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					srv, err := New(ck, Options{MaxBatch: mode.batch, MaxWait: mode.wait, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var wg sync.WaitGroup
						for q := 0; q < conc; q++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								if _, err := srv.Predict([]int{(q * 17) % srv.Nodes()}); err != nil {
									b.Error(err)
								}
							}()
						}
						wg.Wait()
					}
					b.StopTimer()
					if el := b.Elapsed().Seconds(); el > 0 {
						b.ReportMetric(float64(conc*b.N)/el, "queries/s")
					}
				})
			}
		}
	}
}
