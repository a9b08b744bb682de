package checkpoint

import (
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// BenchmarkDecode times Decode on a checkpoint of the shape the repo
// benchmark's serving workloads load at every cold start and swap: a GCN
// bound to Cora ×4 (5.6k nodes) with the normalised adjacency embedded. The
// parameters are untrained — Decode's cost depends on the byte layout only.
func BenchmarkDecode(b *testing.B) {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 4, 7)
	cfg := models.DefaultConfig()
	m := models.Registry["GCN"](g, cfg, rand.New(rand.NewSource(7)))
	ck := &Checkpoint{
		Arch: "GCN", Config: cfg, Norm: sparse.NormSym,
		Params: nn.Flatten(m), Graph: g, Adj: g.NormAdj(sparse.NormSym),
	}
	enc, err := ck.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
