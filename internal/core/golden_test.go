package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// goldenAdaFGL pins AdaFGL.Run bit for bit (ROADMAP 4a, first slice): the
// SHA-256 over the float64 bits of GlobalParams, TestAcc, PerClient and every
// client's flattened Step-2 module parameters, on Cora ×0.32 split into two
// structure Non-iid clients of 224 nodes — large enough that Step 2's
// n_i×n_i·n_i×C products take the blocked GEMM engine — at seed 11. The
// constants were recorded with this very file on the commit before the
// training loops stopped recomputing constants (cached Ã·X, leaf layers,
// Step-2 scratch), so a refactor of those loops that moves one bit fails
// here, and an intended numeric change is an explicit edit of this table.
var goldenAdaFGL = []struct {
	name   string
	mod    func(*Options)
	digest string
}{
	{"default", func(*Options) {}, "4b79f9c38a4a53b6a912c168980c6933bf4cbcf94167b4692d09375e17fbcdd7"},
	{"DisableLT", func(o *Options) { o.DisableLT = true }, "69894b3b84748d475ef7af1945c82693d4b1fe2570a58484ebcf67b329e7a947"},
	{"DisableLM", func(o *Options) { o.DisableLM = true }, "384c97b4653d8f366e63cafa998dcbd8a6218b85a808d4013682952844463c3d"},
	{"DisableTF", func(o *Options) { o.DisableTF = true }, "b181e3fc6cf76286a8f892f9e5c5215ce84f84ccbb2e00b975696fa57ed96bf0"},
	{"DisableKP", func(o *Options) { o.DisableKP = true }, "505de3af31c778630aae9edde98a13c3efc3e64c5c73d4853de7fdccc87f8ab9"},
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// adaFGLDigest runs the pipeline, then replays every client's Step 2 with
// Run's own seeding — Run does not hand out the trained modules — and folds
// their parameters into the digest.
func adaFGLDigest(t *testing.T, opt Options) string {
	t.Helper()
	const seed = 11
	spec, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.32, seed)
	subs := partition.StructureNonIIDSplit(g, 2, partition.DefaultNonIID(), rand.New(rand.NewSource(seed))).Subgraphs
	cfg := quickCfg()
	cfg.Dropout = 0.5 // the extractor's dropout stream is part of what is pinned
	fo := quickFed()
	fo.Rounds = 4
	fo.Seed = seed

	a := &AdaFGL{Opt: opt}
	res, err := a.Run(subs, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashFloats(h, res.GlobalParams...)
	hashFloats(h, res.TestAcc)
	hashFloats(h, res.PerClient...)

	clients := federated.BuildClients(subs, models.Registry["GCN"], cfg, fo.Seed)
	for ci, c := range clients {
		if err := nn.Unflatten(c.Model, res.GlobalParams); err != nil {
			t.Fatal(err)
		}
		p := newPersonal(c.Graph, c.Model, cfg, opt, rand.New(rand.NewSource(fo.Seed*7919+int64(ci))))
		p.train(opt.Epochs)
		if acc := p.testAccuracy(); acc != res.PerClient[ci] {
			t.Fatalf("client %d: replayed Step 2 scores %v, Run reported %v", ci, acc, res.PerClient[ci])
		}
		hashFloats(h, nn.Flatten(p.modules())...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenAdaFGLRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64 (AVX2+FMA micro-kernel); compilers for other architectures fuse multiply-adds")
	}
	for _, tc := range goldenAdaFGL {
		for _, workers := range []int{1, 3} {
			opt := quickAda()
			opt.Epochs = 12
			tc.mod(&opt)
			orig := parallel.SetWorkers(workers)
			got := adaFGLDigest(t, opt)
			parallel.SetWorkers(orig)
			if got != tc.digest {
				t.Errorf("%s, workers=%d: digest %s, golden %s", tc.name, workers, got, tc.digest)
			}
		}
	}
}
