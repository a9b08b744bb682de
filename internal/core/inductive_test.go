package core

import (
	"math/rand"
	"testing"

	"repro/internal/federated"
	"repro/internal/graph"
)

// perturbHidden rewrites what, under graph.MakeInductive, only the full graph
// holds: the feature rows of g's test nodes (redrawn from seed) and the
// edges among them (every test–test edge dropped, a fresh pairing of the
// test nodes added). It assigns a new feature matrix rather than writing
// into the bound one, as graph.Graph.X requires.
func perturbHidden(g *graph.Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	x := g.X.Clone()
	var test []int
	for v := 0; v < g.N; v++ {
		if !g.TestMask[v] {
			continue
		}
		test = append(test, v)
		for j := range x.Row(v) {
			x.Row(v)[j] = rng.NormFloat64()
		}
	}
	g.X = x
	var drop, add [][2]int
	for _, e := range g.Edges {
		if g.TestMask[e[0]] && g.TestMask[e[1]] {
			drop = append(drop, e)
		}
	}
	rng.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	for i := 0; i+1 < len(test); i += 2 {
		add = append(add, [2]int{test[i], test[i+1]})
	}
	g.RemoveEdges(drop)
	g.AddEdges(add)
}

// TestInductiveNoLeak is the leakage proof of the inductive protocol: hidden
// test nodes' features and the edges among them exist only in the full
// graph evaluation reads, so perturbing both must leave every training-time
// quantity bit-identical — Step 1's GlobalParams and every client's HCS —
// while the evaluation, which does read them, moves.
func TestInductiveNoLeak(t *testing.T) {
	run := func(perturb bool) (*federated.Result, []ClientReport) {
		subs := adaSubgraphs(t, "Cora", 3, false, 37)
		for i, g := range subs {
			if perturb {
				perturbHidden(g, int64(100+i))
			}
			subs[i] = graph.MakeInductive(g)
		}
		fo := quickFed()
		fo.Rounds = 3
		a := &AdaFGL{Opt: quickAda()}
		a.Opt.Epochs = 6
		res, err := a.Run(subs, quickCfg(), fo)
		if err != nil {
			t.Fatal(err)
		}
		return res, a.Reports
	}
	clean, cleanRep := run(false)
	moved, movedRep := run(true)

	if len(moved.GlobalParams) != len(clean.GlobalParams) {
		t.Fatalf("GlobalParams length %d, want %d", len(moved.GlobalParams), len(clean.GlobalParams))
	}
	for i, v := range clean.GlobalParams {
		if moved.GlobalParams[i] != v {
			t.Fatalf("Step-1 GlobalParams[%d] = %v after perturbing hidden test nodes, want %v", i, moved.GlobalParams[i], v)
		}
	}
	evalMoved := false
	for ci := range cleanRep {
		if movedRep[ci].HCS != cleanRep[ci].HCS {
			t.Fatalf("client %d HCS = %v after perturbing hidden test nodes, want %v", ci, movedRep[ci].HCS, cleanRep[ci].HCS)
		}
		evalMoved = evalMoved || movedRep[ci].TestAccuracy != cleanRep[ci].TestAccuracy
	}
	if !evalMoved {
		t.Fatal("no client's test accuracy moved: the perturbation never reached the evaluation graph")
	}
}
