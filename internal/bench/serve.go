package bench

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/serve"
)

// serveConc is the query concurrency of serveLoad's storm.
const serveConc = 64

// serveQueriesPerWorker is how many single-node queries each concurrent
// client of serveLoad fires.
const serveQueriesPerWorker = 16

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

// serveLoad drives a storm of serveConc concurrent clients, each firing
// serveQueriesPerWorker single-node queries, against one server config and
// returns every answer in query order (client by client) — the same order
// for every config, so two loads compare positionally.
func serveLoad(ck *checkpoint.Checkpoint, opt serve.Options) ([]serve.Prediction, error) {
	srv, err := serve.New(ck, opt)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	return preds, nil
}

// comparePredSlices requires bit-identical positional predictions.
func comparePredSlices(a, b []serve.Prediction) error {
	if len(a) != len(b) {
		return fmt.Errorf("answer lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Class != b[i].Class {
			return fmt.Errorf("position %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Logits {
			if a[i].Logits[j] != b[i].Logits[j] {
				return fmt.Errorf("node %d logit %d differs bitwise", a[i].Node, j)
			}
		}
	}
	return nil
}
