package bench

import (
	"fmt"
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
// queries/sec, p50/p99 latency and the achieved batch size, with the batched
// predictions cross-checked bit-identical to the unbatched ones. Both kinds
// of architecture run: GCN (a full-graph forward) and SGC (the dense head
// over its propagated embedding) each fill their logits table once, in
// serve.New, and every window is a row gather from it. Neither does
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
			fmt.Sprintf("%-4s nodes=%d  single : %9.0f q/s  p50=%-8v p99=%-8v batch=%.1f",
				arch, ck.Graph.N, single.QueriesPerSec, single.P50.Round(time.Microsecond), single.P99.Round(time.Microsecond), single.MeanBatch),
			fmt.Sprintf("%-4s nodes=%d  batched: %9.0f q/s  p50=%-8v p99=%-8v batch=%.1f  speedup %.1fx  (bit-identical ok)",
				arch, ck.Graph.N, batched.QueriesPerSec, batched.P50.Round(time.Microsecond), batched.P99.Round(time.Microsecond), batched.MeanBatch,
				batched.QueriesPerSec/single.QueriesPerSec),
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

// serveLoad drives the concurrent query storm against one server config and
// returns the metrics snapshot plus every answer, in query order (client by
// client) — the same order for every config, so two loads compare
// positionally.
func serveLoad(ck *checkpoint.Checkpoint, opt serve.Options) (serve.Snapshot, []serve.Prediction, error) {
	srv, err := serve.New(ck, opt)
	if err != nil {
		return serve.Snapshot{}, nil, err
	}
	defer srv.Close()
	preds := make([]serve.Prediction, serveConc*serveQueriesPerWorker)
	var wg sync.WaitGroup
	errs := make(chan error, serveConc)
	for w := 0; w < serveConc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < serveQueriesPerWorker; q++ {
				node := (w*serveQueriesPerWorker + q*131) % srv.Nodes()
				ps, err := srv.Predict([]int{node})
				if err != nil {
					errs <- err
					return
				}
				preds[w*serveQueriesPerWorker+q] = ps[0]
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return serve.Snapshot{}, nil, err
	}
	return srv.Stats(), preds, nil
}
