package datasets

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// referenceGenerate is Generate as it stood before its dedup became a flat
// edge set: a map of ordered pairs for the rejection sampling and a map from
// community to members. It is kept as the statement of what Generate must
// return, draw for draw. (SplitTransductive is held to its own map-based
// reference in package graph.)
func referenceGenerate(s Spec, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := s.Nodes

	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % s.Classes
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })

	commPerClass := 3
	community := make([]int, n)
	for i := range community {
		community[i] = labels[i]*commPerClass + rng.Intn(commPerClass)
	}
	byClass := make([][]int, s.Classes)
	byComm := make(map[int][]int)
	for i, c := range labels {
		byClass[c] = append(byClass[c], i)
		byComm[community[i]] = append(byComm[community[i]], i)
	}

	target := int(float64(n) * s.AvgDegree / 2)
	edges := make([][2]int, 0, target)
	seen := make(map[[2]int]bool, target)
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if seen[k] {
			return false
		}
		seen[k] = true
		edges = append(edges, k)
		return true
	}
	pool := make([]int, 0, n+4*target)
	for i := 0; i < n; i++ {
		pool = append(pool, i)
	}
	pick := func(candidates []int) int {
		return candidates[rng.Intn(len(candidates))]
	}
	for len(edges) < target {
		u := pool[rng.Intn(len(pool))]
		var v int
		if rng.Float64() < s.EdgeHomophily {
			if rng.Float64() < 0.8 {
				v = pick(byComm[community[u]])
			} else {
				v = pick(byClass[labels[u]])
			}
		} else {
			for tries := 0; tries < 16; tries++ {
				v = pool[rng.Intn(len(pool))]
				if labels[v] != labels[u] {
					break
				}
			}
			if labels[v] == labels[u] {
				continue
			}
		}
		if addEdge(u, v) {
			pool = append(pool, u, v)
		}
	}

	x := matrix.New(n, s.Features)
	means := make([][]float64, s.Classes)
	for c := range means {
		means[c] = make([]float64, s.Features)
		for j := range means[c] {
			means[c][j] = rng.NormFloat64() * s.FeatureSignal
		}
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		mu := means[labels[i]]
		for j := range row {
			row[j] = mu[j] + rng.NormFloat64()
		}
	}

	g := graph.New(n, edges, x, labels, s.Classes)
	g.SplitTransductive(s.TrainFrac, s.ValFrac, rng)
	return g
}

// TestGenerateMatchesReference holds Generate to the map-based reference on
// every registered spec at three scales and three seeds: the same edges,
// feature bits, labels and masks.
func TestGenerateMatchesReference(t *testing.T) {
	for _, s := range Registry {
		for _, factor := range []float64{0.25, 1, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s x%g seed %d", s.Name, factor, seed)
				got := GenerateScaled(s, factor, seed)
				scaled := s
				scaled.Nodes = got.N
				want := referenceGenerate(scaled, seed)
				switch {
				case !reflect.DeepEqual(got.Edges, want.Edges):
					t.Errorf("%s: edges differ from the reference", name)
				case !reflect.DeepEqual(got.X, want.X):
					t.Errorf("%s: features differ from the reference", name)
				case !reflect.DeepEqual(got.Labels, want.Labels):
					t.Errorf("%s: labels differ from the reference", name)
				case !reflect.DeepEqual(got.TrainMask, want.TrainMask) ||
					!reflect.DeepEqual(got.ValMask, want.ValMask) ||
					!reflect.DeepEqual(got.TestMask, want.TestMask):
					t.Errorf("%s: masks differ from the reference", name)
				}
			}
		}
	}
}
