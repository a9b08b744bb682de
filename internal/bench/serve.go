package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/serve"
)

// serveConc is the query concurrency of the serving experiment (the 64-way
// load of the acceptance scenario).
const serveConc = 64

// serveQueriesPerWorker is how many single-node queries each concurrent
// client fires per mode.
const serveQueriesPerWorker = 16

// Serve regenerates the serving-layer comparison: a model is trained at
// quickstart scale, checkpointed, and served twice — once with batching
// disabled (every request is its own window) and once with a 64-node batch
// window — under 64-way concurrent single-node query load. Reported are
// queries/sec and p50/p99 latency, timed on the client side, with the
// batched predictions cross-checked bit-identical to the unbatched ones.
// Both kinds of architecture run: GCN (a full-graph forward) and SGC (the
// dense head over its propagated embedding) each fill their logits table
// once, at export (checkpoint.FromResult), and every window is a row gather
// from it. Neither does
// per-window work that grows with the graph, so what the two rows compare is
// the dispatcher's per-window overhead against the MaxWait a window spends
// collecting company — the "speedup" column reads below 1 whenever the
// clients cannot fill a window faster than that wait.
func Serve(s Scale) ([]string, error) {
	if s.Factor <= 0 {
		s.Factor = 0.5 // quickstart scale
	}
	lines := []string{
		fmt.Sprintf("Serving: single-request vs batched inference, %d concurrent clients x %d queries",
			serveConc, serveQueriesPerWorker),
	}
	for _, arch := range []string{"GCN", "SGC"} {
		ck, err := serveCheckpoint(arch, s)
		if err != nil {
			return nil, err
		}
		single, singlePreds, err := serveLoad(ck, serve.Options{MaxBatch: 1, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		batched, batchedPreds, err := serveLoad(ck, serve.Options{MaxBatch: serveConc, MaxWait: 2 * time.Millisecond, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		if err := comparePredSlices(singlePreds, batchedPreds); err != nil {
			return nil, fmt.Errorf("bench: serve: %s: %w", arch, err)
		}
		lines = append(lines,
			fmt.Sprintf("%-4s nodes=%d  single : %9.0f q/s  p50=%-8v p99=%v",
				arch, ck.Graph.N, single.qps, single.p50.Round(time.Microsecond), single.p99.Round(time.Microsecond)),
			fmt.Sprintf("%-4s nodes=%d  batched: %9.0f q/s  p50=%-8v p99=%-8v  speedup %.1fx  (bit-identical ok)",
				arch, ck.Graph.N, batched.qps, batched.p50.Round(time.Microsecond), batched.p99.Round(time.Microsecond),
				batched.qps/single.qps),
		)
	}
	return lines, nil
}

// serveCheckpoint trains arch briefly over a community split of a scaled
// Cora and packages the global model on the full graph.
func serveCheckpoint(arch string, s Scale) (*checkpoint.Checkpoint, error) {
	s.Clients = 5
	g, subs, err := split("Cora", Community, nil, s, s.Seed)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg()
	clients := federated.BuildClients(subs, models.Registry[arch], cfg, s.Seed)
	opt := s.fedOpts(s.Seed)
	if opt.Rounds > 10 {
		opt.Rounds = 10 // training cost is not what this experiment measures
	}
	res, err := federated.Run(clients, s.Seed+1, opt)
	if err != nil {
		return nil, err
	}
	return checkpoint.FromResult(res, arch, cfg, g)
}

// loadStats is one query storm measured on the client side: node queries
// per second of wall time, and the p50/p99 of the per-query latencies.
type loadStats struct {
	qps      float64
	p50, p99 time.Duration
}

// serveLoad drives the concurrent query storm against one server config and
// returns its client-side timing plus every answer, in query order (client
// by client) — the same order for every config, so two loads compare
// positionally.
func serveLoad(ck *checkpoint.Checkpoint, opt serve.Options) (loadStats, []serve.Prediction, error) {
	srv, err := serve.New(ck, opt)
	if err != nil {
		return loadStats{}, nil, err
	}
	defer srv.Close()
	preds := make([]serve.Prediction, serveConc*serveQueriesPerWorker)
	lats := make([]time.Duration, len(preds))
	var wg sync.WaitGroup
	errs := make(chan error, serveConc)
	start := time.Now()
	for w := 0; w < serveConc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < serveQueriesPerWorker; q++ {
				node := (w*serveQueriesPerWorker + q*131) % srv.Nodes()
				t0 := time.Now()
				ps, err := srv.Predict([]int{node})
				if err != nil {
					errs <- err
					return
				}
				lats[w*serveQueriesPerWorker+q] = time.Since(t0)
				preds[w*serveQueriesPerWorker+q] = ps[0]
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return loadStats{}, nil, err
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return loadStats{
		qps: float64(len(lats)) / elapsed.Seconds(),
		p50: lats[len(lats)/2],
		p99: lats[(len(lats)*99)/100],
	}, preds, nil
}
