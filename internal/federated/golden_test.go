package federated

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// goldenFedAvgGCN pins federated.Run over GCN bit for bit: the SHA-256 over
// the float64 bits of GlobalParams, TestAcc, PerClient and RoundAcc of
// four community-split Cora ×0.3 clients (hidden 16, dropout 0.5, so every
// client's dropout stream is pinned too), seed 11, 6 rounds × 2 local epochs.
// It was recorded with this very file on the commit before GCN stopped
// recomputing Ã·X every forward pass and stopped back-propagating into it
// (see internal/core's TestGoldenAdaFGLRun for the Step-2 half).
const goldenFedAvgGCN = "43daff17791448fa880c0efa806baf9c2069a854fa4d20547324704d61a2a971"

func goldenClients(t *testing.T) []*Client {
	t.Helper()
	s, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(s, 0.3, 11)
	cd := partition.CommunitySplit(g, 4, rand.New(rand.NewSource(11)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 16
	return BuildClients(cd.Subgraphs, models.Registry["GCN"], cfg, 11)
}

func TestGoldenFedAvgGCN(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digest is recorded on amd64 (AVX2+FMA micro-kernel); compilers for other architectures fuse multiply-adds")
	}
	for _, workers := range []int{1, 3} {
		orig := parallel.SetWorkers(workers)
		clients := goldenClients(t)
		o := quickOpts()
		o.Rounds = 6
		o.Seed = 11
		res, err := Run(clients, o.Seed+1, o)
		parallel.SetWorkers(orig)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, vs := range [][]float64{res.GlobalParams, {res.TestAcc}, res.PerClient, res.RoundAcc} {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenFedAvgGCN {
			t.Errorf("workers=%d: digest %s, golden %s", workers, got, goldenFedAvgGCN)
		}
	}
}
