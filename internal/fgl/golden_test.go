package fgl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/parallel"
)

// goldenFGLBaselines pins the four FGL baselines that own (part of) their
// training or evaluation loop bit for bit: the SHA-256 over the float64 bits
// of GlobalParams, TestAcc, PerClient and RoundAcc on four structure-Non-iid
// Cora ×0.3 clients (hidden 16, dropout 0.5, so every client's dropout stream
// is pinned too), seed 11, 12 rounds × 2 local epochs (FedGL refreshes its
// pseudo-labels at round 10, GCFL+ may split at rounds 5 and 10) and 2 epochs
// of local correction. Recorded with this very file on the commit before the
// eight hand-written evaluation reductions became federated.Evaluate.
var goldenFGLBaselines = []struct{ name, digest string }{
	{"FedGL", "b43d768f9a27150ad866ff2b63917b29f9628a6f123e2a198e43b3529e8ea22e"},
	{"FED-PUB", "e347cf247e83dc6332c49888b9ee0f0ba749ae39b0a0b7803c0b4880bc93bbe7"},
	{"FedSage+", "20894d96690ac20912bc4de483e8898792517858d11bef219d4fb5c2dba1da66"},
	{"GCFL+", "1c47d941fea527d868821bccd3c79deaaf2572ab04c783c112b701ea5f97074e"},
}

func TestGoldenFGLBaselines(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are recorded on amd64 (AVX2+FMA micro-kernel); compilers for other architectures fuse multiply-adds")
	}
	cfg := models.DefaultConfig()
	cfg.Hidden = 16
	opt := quickOpts()
	opt.Rounds = 12
	opt.LocalCorrection = 2
	opt.Seed = 11
	for _, workers := range []int{1, 3} {
		for _, g := range goldenFGLBaselines {
			m, err := MethodByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			orig := parallel.SetWorkers(workers)
			res, err := m.Run(nonIIDSubgraphs(t, "Cora", 4, 11), cfg, opt)
			parallel.SetWorkers(orig)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			h := sha256.New()
			var b [8]byte
			for _, vs := range [][]float64{res.GlobalParams, {res.TestAcc}, res.PerClient, res.RoundAcc} {
				for _, v := range vs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
				t.Errorf("%s workers=%d: digest %s, golden %s", g.name, workers, got, g.digest)
			}
		}
	}
}
