package fgl

import (
	"math"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
)

// FedPub implements the FED-PUB mechanism of Baek et al.: the server builds
// a personalised aggregate for every client, weighting other clients by the
// (temperature-scaled, softmaxed) cosine similarity of their uploaded model
// weights; each client additionally keeps a personalised sparse mask that
// pins its most locally important parameters to their local values, so only
// the subgraph-relevant subset of the aggregate is adopted.
type FedPub struct {
	// Tau is the similarity softmax temperature.
	Tau float64
	// MaskFraction is the fraction of parameters each client keeps local
	// (the personalised sparse mask).
	MaskFraction float64
}

// NewFedPub returns FED-PUB with the defaults used in the experiments.
func NewFedPub() *FedPub { return &FedPub{Tau: 5, MaskFraction: 0.3} }

// Name implements Method.
func (m *FedPub) Name() string { return "FED-PUB" }

// Run implements Method.
func (m *FedPub) Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	build, err := models.BuilderFor("GCN")
	if err != nil {
		return nil, err
	}
	clients := federated.BuildClients(subgraphs, build, cfg, opt.Seed)
	dim := len(nn.Flatten(clients[0].Model))
	n := len(clients)

	// Per-client personalised models, initialised identically.
	personal := make([][]float64, n)
	init := nn.Flatten(clients[0].Model)
	for i := range personal {
		personal[i] = append([]float64(nil), init...)
	}
	// Communication: model params both ways plus the personalised sparse
	// mask (one bit per parameter) each client maintains (Table VIII).
	res := &federated.Result{BytesPerRound: n*dim*8*2 + n*dim/8}
	locals := make([][]float64, n)
	personalFor := func(ci int) []float64 { return personal[ci] }

	for round := 0; round < opt.Rounds; round++ {
		for ci, c := range clients {
			if err := nn.Unflatten(c.Model, personal[ci]); err != nil {
				return nil, err
			}
			c.TrainLocal(opt.LocalEpochs)
			locals[ci] = nn.Flatten(c.Model)
		}
		// Weight-similarity personalised aggregation.
		for i := 0; i < n; i++ {
			weights := make([]float64, n)
			var wsum float64
			for j := 0; j < n; j++ {
				weights[j] = math.Exp(m.Tau * cosineVec(locals[i], locals[j]))
				wsum += weights[j]
			}
			agg := make([]float64, dim)
			for j := 0; j < n; j++ {
				w := weights[j] / wsum
				for t, v := range locals[j] {
					agg[t] += w * v
				}
			}
			// Personalised sparse mask: pin the locally most-changed
			// parameters (highest |local - personal_prev|) to local values.
			kLocal := int(m.MaskFraction * float64(dim))
			if kLocal > 0 {
				thresh := kthLargestAbsDiff(locals[i], personal[i], kLocal)
				for t := range agg {
					if abs(locals[i][t]-personal[i][t]) >= thresh {
						agg[t] = locals[i][t]
					}
				}
			}
			personal[i] = agg
		}
		acc, _, err := federated.Evaluate(clients, personalFor, 0)
		if err != nil {
			return nil, err
		}
		res.RoundAcc = append(res.RoundAcc, acc)
	}
	// The mean personalised model stands in for a global model.
	mean := make([]float64, dim)
	for _, p := range personal {
		for t, v := range p {
			mean[t] += v / float64(n)
		}
	}
	res.GlobalParams = mean

	res.TestAcc, res.PerClient, err = federated.Evaluate(clients, personalFor, opt.LocalCorrection)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// kthLargestAbsDiff returns the k-th largest |a[i]-b[i]| via a partial
// selection (quickselect on a copy).
func kthLargestAbsDiff(a, b []float64, k int) float64 {
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = abs(a[i] - b[i])
	}
	if k >= len(diffs) {
		k = len(diffs) - 1
	}
	return quickselect(diffs, k)
}

// quickselect finds the k-th largest element (0-based) in place.
func quickselect(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := v[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for v[i] > p {
				i++
			}
			for v[j] < p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return v[k]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
