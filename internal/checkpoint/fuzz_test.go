package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/sparse"
)

// miniCheckpoint builds a small seeded checkpoint by hand (a 12-node ring
// with features, labels and masks, and a seeded logits table) so fuzz seeds
// stay ~1 KB — large trained graphs would slow every mutation to a crawl.
// Nothing here runs a model: the parameters and the table are arbitrary
// values, which is all the codec reads.
func miniCheckpoint(seed int64, withAdj bool) *Checkpoint {
	rng := rand.New(rand.NewSource(seed))
	const n = 12
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	x := matrix.New(n, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	g := graph.New(n, edges, x, labels, 3)
	for i := 0; i < n; i++ {
		g.TrainMask[i] = i%3 == 0
		g.ValMask[i] = i%3 == 1
		g.TestMask[i] = i%3 == 2
	}
	cfg := models.DefaultConfig()
	cfg.Hidden = 4
	params := make([]float64, 8)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	logits := matrix.New(n, 3)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64()
	}
	ck := &Checkpoint{Arch: "GCN", Config: cfg, Norm: sparse.NormSym, Params: params, Graph: g, Logits: logits}
	if withAdj {
		ck.Adj = g.NormAdj(sparse.NormSym)
	}
	return ck
}

// FuzzCheckpointRoundTrip is the format's safety and determinism net:
// arbitrary bytes must never panic the decoder (only named-op errors), and
// anything the decoder accepts must re-encode canonically — Encode(Decode(b))
// decodes again to the exact same bytes. The seed corpus (testdata/fuzz)
// carries real encoded checkpoints of seeded trained models, so mutation
// explores the format's interior, not just the header.
func FuzzCheckpointRoundTrip(f *testing.F) {
	for _, seed := range []int64{2, 4} {
		enc, err := miniCheckpoint(seed, seed == 2).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		enc, err := ck.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint fails to encode: %v", err)
		}
		ck2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		enc2, err := ck2.Encode()
		if err != nil {
			t.Fatalf("second encode fails: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode→decode→encode not bit-identical: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}
