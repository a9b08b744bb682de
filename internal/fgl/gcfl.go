package fgl

import (
	"math"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
)

// GCFL implements Xie et al.'s GCFL+ mechanism: the server observes each
// client's model-update (gradient) sequence, bipartitions clients whose
// update directions diverge, and aggregates per cluster. Clustered
// aggregation shields homophilous clients from heterophilous ones — but only
// coarsely, which is why it trails personalised methods in the paper.
type GCFL struct {
	// SplitThreshold triggers a cluster bipartition when the mean pairwise
	// cosine dissimilarity of updates inside a cluster exceeds it.
	SplitThreshold float64
	// MaxClusters bounds recursive splitting.
	MaxClusters int
}

// NewGCFL returns GCFL+ with the defaults used in the experiments.
func NewGCFL() *GCFL { return &GCFL{SplitThreshold: 0.4, MaxClusters: 4} }

// Name implements Method.
func (m *GCFL) Name() string { return "GCFL+" }

// Run implements Method.
func (m *GCFL) Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	build, err := models.BuilderFor("GCN")
	if err != nil {
		return nil, err
	}
	clients := federated.BuildClients(subgraphs, build, cfg, opt.Seed)
	dim := len(nn.Flatten(clients[0].Model))

	// cluster[i] = cluster id of client i; one global model per cluster.
	cluster := make([]int, len(clients))
	clusterModels := map[int][]float64{0: nn.Flatten(clients[0].Model)}
	nClusters := 1
	clusterModelFor := func(ci int) []float64 { return clusterModels[cluster[ci]] }

	// Communication: model params both ways plus the per-client gradient
	// (update) sequence the server clusters on (Table VIII).
	res := &federated.Result{BytesPerRound: len(clients) * dim * 8 * 3}
	updates := make([][]float64, len(clients))

	for round := 0; round < opt.Rounds; round++ {
		// Per-cluster FedAvg with update recording.
		agg := map[int][]float64{}
		wsum := map[int]float64{}
		for ci, c := range clients {
			g := clusterModels[cluster[ci]]
			if err := nn.Unflatten(c.Model, g); err != nil {
				return nil, err
			}
			c.TrainLocal(opt.LocalEpochs)
			local := nn.Flatten(c.Model)
			upd := make([]float64, dim)
			for i := range upd {
				upd[i] = local[i] - g[i]
			}
			updates[ci] = upd
			w := float64(c.TrainSize())
			if w == 0 {
				w = 1
			}
			if agg[cluster[ci]] == nil {
				agg[cluster[ci]] = make([]float64, dim)
			}
			for i, v := range local {
				agg[cluster[ci]][i] += w * v
			}
			wsum[cluster[ci]] += w
		}
		for cid, a := range agg {
			for i := range a {
				a[i] /= wsum[cid]
			}
			clusterModels[cid] = a
		}

		// Gradient-sequence clustering: split divergent clusters.
		if nClusters < m.MaxClusters && (round+1)%5 == 0 {
			nClusters = m.maybeSplit(cluster, updates, clusterModels, nClusters)
		}

		acc, _, err := federated.Evaluate(clients, clusterModelFor, 0)
		if err != nil {
			return nil, err
		}
		res.RoundAcc = append(res.RoundAcc, acc)
	}
	// Report the largest cluster's model as "global" for knowledge-extractor
	// style consumers.
	res.GlobalParams = clusterModels[largestCluster(cluster, nClusters)]

	res.TestAcc, res.PerClient, err = federated.Evaluate(clients, clusterModelFor, opt.LocalCorrection)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// maybeSplit bipartitions any cluster whose internal update dissimilarity
// exceeds the threshold, seeding the two halves from the most dissimilar
// pair (the GCFL dynamic bipartition).
func (m *GCFL) maybeSplit(cluster []int, updates [][]float64, clusterModels map[int][]float64, nClusters int) int {
	for cid := 0; cid < nClusters && nClusters < m.MaxClusters; cid++ {
		members := []int{}
		for ci, c := range cluster {
			if c == cid {
				members = append(members, ci)
			}
		}
		if len(members) < 2 {
			continue
		}
		// Mean pairwise dissimilarity and the worst pair.
		var sum float64
		var count int
		worstA, worstB, worst := -1, -1, -1.0
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				d := 1 - cosineVec(updates[members[i]], updates[members[j]])
				sum += d
				count++
				if d > worst {
					worst, worstA, worstB = d, members[i], members[j]
				}
			}
		}
		if count == 0 || sum/float64(count) <= m.SplitThreshold {
			continue
		}
		// Bipartition: assign each member to the nearer seed.
		newID := nClusters
		nClusters++
		for _, ci := range members {
			da := 1 - cosineVec(updates[ci], updates[worstA])
			db := 1 - cosineVec(updates[ci], updates[worstB])
			if db < da {
				cluster[ci] = newID
			} else {
				cluster[ci] = cid
			}
		}
		clusterModels[newID] = append([]float64(nil), clusterModels[cid]...)
	}
	return nClusters
}

func largestCluster(cluster []int, n int) int {
	counts := make([]int, n)
	for _, c := range cluster {
		counts[c]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

func cosineVec(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
