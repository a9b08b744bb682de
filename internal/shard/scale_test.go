package shard

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestScaleSmoke is the CI-sized slice of the million-node story: a
// 100k-node graph is stream-built into 4 shards without ever materialising
// the full edge list, every shard stays within a balanced memory budget,
// and the server filled from them answers bit-identically to the one filled
// from a single shard on the same seed. The 1M+ sweep lives in `adafgl-bench -exp shard`
// (make shard-demo); this test keeps the invariant on every CI run.
// Skipped in -short mode and under the race detector, where instrumented
// 100k-node builds dominate the package's runtime.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scale smoke skipped under the race detector")
	}
	const shards = 4
	spec := datasets.DefaultStream(100_000, 77)

	p, err := PlanFromStream(spec, shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildFromStream(spec, p, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}
	// Memory budget: the largest shard must stay near the balanced share —
	// its footprint is what a per-process fleet provisions for.
	budget := int(float64(sh.Bytes()) / shards * 1.35)
	if got := sh.MaxShardBytes(); got > budget {
		t.Fatalf("largest shard %d bytes exceeds balanced budget %d (total %d)", got, budget, sh.Bytes())
	}

	one, err := NewPlan(make([]int32, spec.Nodes), 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := BuildFromStream(spec, one, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}

	// The reassembled 2-hop embedding must match the single-shard one bit
	// for bit before any serving machinery is involved.
	gotLoc, err := sh.Embedding(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLoc, err := whole.Embedding(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, want := gatherGlobal(sh, gotLoc), gatherGlobal(whole, wantLoc)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("100k embedding differs from unsharded at %d", i)
		}
	}

	// Serving path: both fills behind the same head answer one strided
	// sample of nodes bit-identically.
	w := matrix.New(spec.Features, spec.Classes)
	for i := range w.Data {
		w.Data[i] = float64(i%13) - 6
	}
	head := []models.HeadLayer{{W: w, Bias: make([]float64, spec.Classes)}}
	rec := models.EmbeddingSpec{Hops: 2, Norm: sparse.NormSym}
	srv := tableServer(t, sh, "SGC", head, rec, serve.Options{})
	defer srv.Close()
	ref := tableServer(t, whole, "SGC", head, rec, serve.Options{})
	defer ref.Close()
	var nodes []int
	for v := 0; v < spec.Nodes; v += 97 {
		nodes = append(nodes, v)
	}
	a, err := srv.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Class != b[i].Class {
			t.Fatalf("query %d: sharded (%d,%d) vs unsharded (%d,%d)",
				i, a[i].Node, a[i].Class, b[i].Node, b[i].Class)
		}
		for j := range a[i].Logits {
			if a[i].Logits[j] != b[i].Logits[j] {
				t.Fatalf("query %d logit %d differs", i, j)
			}
		}
	}
}
