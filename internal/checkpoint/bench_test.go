package checkpoint

import (
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/nn"
)

// BenchmarkDecode times Decode on a checkpoint of the shape the repo
// benchmark's serving workloads load at every cold start and swap: a GCN
// bound to Cora ×4 (5.6k nodes) with the normalised adjacency and the
// 5.6k×7 logits table embedded. The parameters are untrained — Decode's cost
// depends on the byte layout only.
func BenchmarkDecode(b *testing.B) {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 4, 7)
	cfg := models.DefaultConfig()
	m := models.Registry["GCN"](g, cfg, rand.New(rand.NewSource(7)))
	ck, err := FromResult(&federated.Result{GlobalParams: nn.Flatten(m)}, "GCN", cfg, g)
	if err != nil {
		b.Fatal(err)
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
