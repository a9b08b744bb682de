package shard

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/sparse"
)

// gatherGlobal reassembles per-shard local rows into the global matrix.
func gatherGlobal(sh *Sharded, locals []*matrix.Dense) *matrix.Dense {
	out := matrix.New(sh.Plan.N(), locals[0].Cols)
	for i, s := range sh.Shards {
		for l, v := range s.Nodes {
			copy(out.Row(v), locals[i].Row(l))
		}
	}
	return out
}

// TestEmbeddingMatchesUnshardedPropagation is the halo-exchange bit-identity
// anchor: K hops of sharded propagation, reassembled, must equal the
// unsharded blocked-plan propagation bit for bit — final-hop (SGC) and
// weighted-combination (GAMLP) recipes both.
func TestEmbeddingMatchesUnshardedPropagation(t *testing.T) {
	spec := datasets.DefaultStream(350, 13)
	g := spec.Materialize()
	p, err := PlanFromGraph(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildFromGraph(g, p, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}
	const hops = 3
	stack := models.PropagateK(g.NormAdjPlan(sparse.NormSym), g.X, hops)

	// Final-hop recipe (SGC).
	locals, err := sh.Embedding(hops, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := gatherGlobal(sh, locals)
	want := stack[hops]
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("final-hop embedding differs at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}

	// Weighted-combination recipe (GAMLP): Σ_k w_k·X^(k) in ascending k.
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	locals, err = sh.Embedding(hops, weights)
	if err != nil {
		t.Fatal(err)
	}
	got = gatherGlobal(sh, locals)
	want = matrix.New(g.N, g.X.Cols)
	for k, w := range weights {
		matrix.AddScaled(want, w, stack[k])
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("combined embedding differs at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}

	// Hop zero with no weights is the raw feature matrix, exactly.
	locals, err = sh.Embedding(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = gatherGlobal(sh, locals)
	for i := range g.X.Data {
		if got.Data[i] != g.X.Data[i] {
			t.Fatalf("hop-zero embedding differs at %d", i)
		}
	}
}

// TestEmbeddingShardCountInvariance checks the reassembled embedding is the
// same bit pattern at every shard count — the distributed answer does not
// depend on how the fleet is cut.
func TestEmbeddingShardCountInvariance(t *testing.T) {
	spec := datasets.DefaultStream(240, 29)
	g := spec.Materialize()
	var ref *matrix.Dense
	for _, shards := range []int{1, 2, 4} {
		p, err := PlanFromGraph(g, shards, 11)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := BuildFromGraph(g, p, sparse.NormSym)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := sh.Embedding(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := gatherGlobal(sh, locals)
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("%d shards: embedding differs at %d from 1-shard reference", shards, i)
			}
		}
	}
}

// TestEmbeddingErrors covers the recipe validation.
func TestEmbeddingErrors(t *testing.T) {
	spec := datasets.DefaultStream(120, 3)
	p, err := PlanFromStream(spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildFromStream(spec, p, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Embedding(-1, nil); err == nil {
		t.Fatal("expected error for negative hops")
	}
	if _, err := sh.Embedding(2, []float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong weight count")
	}
}
