// Package datasets generates the synthetic stand-ins for the 12 graph
// benchmarks of Table I of the AdaFGL paper. The generator plants a label
// partition, wires edges with a per-edge homophily Bernoulli calibrated to
// the dataset's published edge homophily, and draws class-conditional
// Gaussian features, so homophilous specs behave like Cora/PubMed and
// heterophilous specs like Chameleon/Squirrel. Node counts of the largest
// graphs are scaled down to laptop scale (documented in DESIGN.md); scale
// does not change the direction of any comparison the paper reports.
package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// Task distinguishes the two evaluation protocols of the paper.
type Task int

const (
	// Transductive: test nodes and their edges are visible during training.
	Transductive Task = iota
	// Inductive: test nodes are held out of the training topology.
	Inductive
)

// Spec describes one benchmark dataset to synthesise.
type Spec struct {
	Name     string
	Nodes    int
	Features int
	Classes  int
	// AvgDegree controls edge count: M ≈ Nodes*AvgDegree/2.
	AvgDegree float64
	// EdgeHomophily is the target fraction of intra-class edges (Table I).
	EdgeHomophily float64
	// TrainFrac/ValFrac follow Table I (remainder is test).
	TrainFrac, ValFrac float64
	// FeatureSignal controls class separation of the Gaussian features;
	// larger means more linearly separable.
	FeatureSignal float64
	Task          Task
	Description   string
}

// Registry lists the 12 paper datasets with laptop-scaled sizes. Original
// sizes are recorded in the description for traceability.
var Registry = []Spec{
	{Name: "Cora", Nodes: 1400, Features: 64, Classes: 7, AvgDegree: 4.0, EdgeHomophily: 0.810, TrainFrac: 0.2, ValFrac: 0.4, FeatureSignal: 0.45, Task: Transductive, Description: "citation network (orig 2708 nodes, 1433 feats)"},
	{Name: "CiteSeer", Nodes: 1300, Features: 80, Classes: 6, AvgDegree: 2.8, EdgeHomophily: 0.736, TrainFrac: 0.2, ValFrac: 0.4, FeatureSignal: 0.35, Task: Transductive, Description: "citation network (orig 3327 nodes, 3703 feats)"},
	{Name: "PubMed", Nodes: 2000, Features: 48, Classes: 3, AvgDegree: 4.5, EdgeHomophily: 0.802, TrainFrac: 0.2, ValFrac: 0.4, FeatureSignal: 0.5, Task: Transductive, Description: "citation network (orig 19717 nodes, 500 feats)"},
	{Name: "Computer", Nodes: 1800, Features: 56, Classes: 10, AvgDegree: 18.0, EdgeHomophily: 0.777, TrainFrac: 0.2, ValFrac: 0.4, FeatureSignal: 0.4, Task: Transductive, Description: "co-purchase network (orig 13381 nodes)"},
	{Name: "Physics", Nodes: 2200, Features: 96, Classes: 5, AvgDegree: 14.0, EdgeHomophily: 0.931, TrainFrac: 0.2, ValFrac: 0.4, FeatureSignal: 0.5, Task: Transductive, Description: "co-authorship network (orig 34493 nodes, 8415 feats)"},
	{Name: "Chameleon", Nodes: 1200, Features: 48, Classes: 5, AvgDegree: 16.0, EdgeHomophily: 0.234, TrainFrac: 0.6, ValFrac: 0.2, FeatureSignal: 0.4, Task: Transductive, Description: "wiki pages network (orig 2277 nodes)"},
	{Name: "Squirrel", Nodes: 1600, Features: 44, Classes: 5, AvgDegree: 20.0, EdgeHomophily: 0.223, TrainFrac: 0.6, ValFrac: 0.2, FeatureSignal: 0.35, Task: Transductive, Description: "wiki pages network (orig 5201 nodes)"},
	{Name: "Actor", Nodes: 1500, Features: 40, Classes: 5, AvgDegree: 7.0, EdgeHomophily: 0.216, TrainFrac: 0.6, ValFrac: 0.2, FeatureSignal: 0.3, Task: Transductive, Description: "movie co-occurrence network (orig 7600 nodes)"},
	{Name: "Penn94", Nodes: 2000, Features: 5, Classes: 2, AvgDegree: 30.0, EdgeHomophily: 0.470, TrainFrac: 0.6, ValFrac: 0.2, FeatureSignal: 0.5, Task: Transductive, Description: "dating network (orig 41554 nodes, scaled)"},
	{Name: "arxiv-year", Nodes: 2400, Features: 32, Classes: 5, AvgDegree: 12.0, EdgeHomophily: 0.222, TrainFrac: 0.6, ValFrac: 0.2, FeatureSignal: 0.4, Task: Transductive, Description: "publish network (orig 169343 nodes, scaled)"},
	{Name: "Reddit", Nodes: 2600, Features: 64, Classes: 7, AvgDegree: 18.0, EdgeHomophily: 0.756, TrainFrac: 0.5, ValFrac: 0.25, FeatureSignal: 0.45, Task: Inductive, Description: "social network (orig 89250 nodes, scaled)"},
	{Name: "Flickr", Nodes: 2400, Features: 48, Classes: 7, AvgDegree: 10.0, EdgeHomophily: 0.319, TrainFrac: 0.66, ValFrac: 0.1, FeatureSignal: 0.4, Task: Inductive, Description: "image network (orig 232965 nodes, 41 classes, scaled)"},
}

// ByName returns the registered Spec or an error.
func ByName(name string) (Spec, error) {
	for _, s := range Registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names lists the registered dataset names in registry order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, s := range Registry {
		out[i] = s.Name
	}
	return out
}

// Generate synthesises the dataset deterministically from the seed.
//
// Wiring: nodes receive labels (balanced with Zipf-ish class-size noise) and
// a community id within their class to create clustered topology (Louvain
// needs real community structure). Each edge flips a homophily coin with
// p = EdgeHomophily: heads connects two same-label nodes (same community
// preferentially), tails connects nodes of different labels. A preferential-
// attachment bias gives a heavy-ish degree tail.
func Generate(s Spec, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := s.Nodes

	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % s.Classes
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })

	// Community structure: each class is split into a few communities; each
	// node also gets a geographic block to correlate heterophilous wiring.
	commPerClass := 3
	community := make([]int, n)
	for i := range community {
		community[i] = labels[i]*commPerClass + rng.Intn(commPerClass)
	}
	byClass := make([][]int, s.Classes)
	byComm := make([][]int, s.Classes*commPerClass)
	for i, c := range labels {
		byClass[c] = append(byClass[c], i)
		byComm[community[i]] = append(byComm[community[i]], i)
	}

	target := int(float64(n) * s.AvgDegree / 2)
	edges := make([][2]int, 0, target)
	seen := graph.NewEdgeSet(target)
	addEdge := func(u, v int) bool {
		if u == v || !seen.Add(u, v) {
			return false
		}
		edges = append(edges, [2]int{min(u, v), max(u, v)})
		return true
	}
	// Degree-biased sampling pool: start uniform, append endpoints of placed
	// edges to approximate preferential attachment.
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
			// Homophilous edge: same label, preferring the same community.
			if rng.Float64() < 0.8 {
				v = pick(byComm[community[u]])
			} else {
				v = pick(byClass[labels[u]])
			}
		} else {
			// Heterophilous edge: different label.
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

	// Class-conditional Gaussian features with per-class mean vectors.
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

// GenerateScaled generates the dataset with the node count multiplied by
// factor (min 50 nodes), used by smoke tests and quick benches.
func GenerateScaled(s Spec, factor float64, seed int64) *graph.Graph {
	s.Nodes = int(float64(s.Nodes) * factor)
	if s.Nodes < 50 {
		s.Nodes = 50
	}
	return Generate(s, seed)
}
