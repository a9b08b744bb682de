package fgl

import (
	"math/rand"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
)

// FedGL implements Chen et al.'s global self-supervision mechanism: clients
// upload local predictions; the server fuses them into global pseudo-labels
// for confident unlabeled nodes; clients then train with the densified
// supervision. Its failure mode under topology heterogeneity — low-quality
// pseudo-labels from topology-misled local models — emerges naturally.
type FedGL struct {
	// Confidence is the softmax threshold above which an unlabeled node
	// receives a pseudo-label.
	Confidence float64
	// RefreshEvery controls how often (in rounds) pseudo-labels are rebuilt.
	RefreshEvery int
}

// NewFedGL returns FedGL with the defaults used in the experiments.
func NewFedGL() *FedGL { return &FedGL{Confidence: 0.9, RefreshEvery: 10} }

// Name implements Method.
func (m *FedGL) Name() string { return "FedGL" }

// Run implements Method.
func (m *FedGL) Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	build, err := models.BuilderFor("GCN")
	if err != nil {
		return nil, err
	}
	// Work on copies: pseudo-labeling mutates labels/masks.
	work := make([]*graph.Graph, len(subgraphs))
	orig := make([]*graph.Graph, len(subgraphs))
	for i, g := range subgraphs {
		work[i] = g.Clone()
		orig[i] = g
	}
	clients := federated.BuildClients(work, build, cfg, opt.Seed)
	rng := freshRNG(opt, 17)

	dim := len(nn.Flatten(clients[0].Model))
	global := nn.Flatten(clients[0].Model)
	// Communication: model params both ways, plus each client's uploaded
	// node predictions and embeddings (N_i × classes + N_i × classes soft
	// scores) that the server fuses into global supervision (Table VIII).
	extra := 0
	for _, g := range work {
		extra += 2 * g.N * g.Classes * 8
	}
	res := &federated.Result{BytesPerRound: len(clients)*dim*8*2 + extra}

	for round := 0; round < opt.Rounds; round++ {
		agg := make([]float64, dim)
		var totalW float64
		for _, c := range clients {
			if err := nn.Unflatten(c.Model, global); err != nil {
				return nil, err
			}
			c.TrainLocal(opt.LocalEpochs)
			w := float64(c.TrainSize())
			if w == 0 {
				w = 1
			}
			for i, v := range nn.Flatten(c.Model) {
				agg[i] += w * v
			}
			totalW += w
		}
		for i := range agg {
			agg[i] /= totalW
		}
		global = agg

		if (round+1)%m.RefreshEvery == 0 {
			m.refreshPseudoLabels(clients, orig, global, rng)
		}
		acc, _, err := evalOnOriginal(clients, orig, global, 0)
		if err != nil {
			return nil, err
		}
		res.RoundAcc = append(res.RoundAcc, acc)
	}
	res.GlobalParams = global
	res.TestAcc, res.PerClient, err = evalOnOriginal(clients, orig, global, opt.LocalCorrection)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// refreshPseudoLabels loads the global model into each client and marks
// confident unlabeled nodes as pseudo-training nodes (the server-side
// "pseudo graph + pseudo prediction" of Table VIII).
func (m *FedGL) refreshPseudoLabels(clients []*federated.Client, orig []*graph.Graph, global []float64, rng *rand.Rand) {
	for ci, c := range clients {
		if err := nn.Unflatten(c.Model, global); err != nil {
			return
		}
		probs := matrix.SoftmaxRows(c.Model.Logits(false))
		og := orig[ci]
		for v := 0; v < c.Graph.N; v++ {
			if og.TrainMask[v] || og.ValMask[v] {
				continue
			}
			row := probs.Row(v)
			best, bi := 0.0, 0
			for j, p := range row {
				if p > best {
					best, bi = p, j
				}
			}
			if best >= m.Confidence {
				c.Graph.TrainMask[v] = true
				c.Graph.Labels[v] = bi
			} else if c.Graph.TrainMask[v] && !og.TrainMask[v] {
				// Drop stale pseudo-labels that lost confidence.
				c.Graph.TrainMask[v] = false
				c.Graph.Labels[v] = og.Labels[v]
			}
		}
	}
}

// evalOnOriginal is federated.Evaluate for the one method that cannot use it:
// the working graphs carry pseudo-labels on test nodes, so accuracy is scored
// against the ORIGINAL labels and test mask (correction still trains on the
// pseudo-labelled graph).
func evalOnOriginal(clients []*federated.Client, orig []*graph.Graph, global []float64, correction int) (acc float64, perClient []float64, err error) {
	perClient = make([]float64, len(clients))
	var weighted, total float64
	for ci, c := range clients {
		if err := nn.Unflatten(c.Model, global); err != nil {
			return 0, nil, err
		}
		if correction > 0 {
			c.TrainLocal(correction)
		}
		perClient[ci] = models.AccuracyFromLogits(c.Model.Logits(false), orig[ci].Labels, orig[ci].TestMask)
		w := float64(graph.CountMask(orig[ci].TestMask))
		weighted += perClient[ci] * w
		total += w
	}
	if total > 0 {
		acc = weighted / total
	}
	return acc, perClient, nil
}
