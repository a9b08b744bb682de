package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/federated"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// goldenServedLogits pins what a server answers, bit for bit: SHA-256 over the
// little-endian float64 bits of every PredictAll logit, in node order, for
// trainedCheckpoint(arch, 23) of every architecture in models.Registry. The
// digests were recorded on the commit before serving became one logits table
// for every architecture — against serve.New and the routed per-shard fleet
// that commit still had, at 1, 2 and 4 shards — identical at workers 1 and 3,
// on the portable build and under GOAMD64=v3. They are held now by the
// artifact's table section as Load decodes it, by serve.New over the loaded
// artifact and over a fresh export at each worker count, and, for the
// decoupled architectures, by a 2- and a 4-shard fill, so a serving or export
// refactor that moves one answered bit fails here, and an intended numeric
// change is an explicit edit of this table.
var goldenServedLogits = map[string]string{
	"GAMLP":  "64f1f3fafdf132465ee47c6cc71b30951d0c0f47601f0275090b8efd9781729c",
	"GCN":    "5341d5bff1d981ca4b56cd25fa7bc11f7adb07c808040e54d119ac20a160dabd",
	"GCNII":  "d8933afb87fb9330903140ea166a81bfbcbb20b727bd7edd4912e288881a095c",
	"GGCN":   "a2f13568c8a9beee095cf742dc45f37d6f3e2ddfb5c79ebb938ebae9ac6093b2",
	"GPRGNN": "5150e641400e947225fb0d3967017fc5d87c1dfa3d3339d1b975e678763f8a30",
	"GloGNN": "63583975ca60d75746f33afeccfe0fd4b5077eb97e9f08d84052b10cffa554b4",
	"MLP":    "8bc2e3793ecdbbf93b3bc2869e069362bf3929880b540350662217624a9826a5",
	"SGC":    "59616d6611ce74a4bf40a11f85d2c8a552facd633299a4d87521577d92ef019c",
}

// logitsDigest hashes a full-graph logit table in node order.
func logitsDigest(logits [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range logits {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenServedLogits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded for amd64 kernels (GOARCH=%s)", runtime.GOARCH)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	opt := serve.Options{MaxBatch: 16}
	dir := t.TempDir()
	for arch, want := range goldenServedLogits {
		trained := trainedCheckpoint(t, arch, 23)

		// The artifact: Save, Load, and the decoded table section is the
		// pinned answer, which is what serve.New serves.
		path := filepath.Join(dir, arch+".ckpt")
		if err := checkpoint.Save(path, trained); err != nil {
			t.Fatal(err)
		}
		loaded, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		table, err := loaded.Table()
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if got := logitsDigest([][]float64{table.Data}); got != want {
			t.Errorf("%s: decoded table section digest %s, want %s", arch, got, want)
		}
		fromFile, err := serve.New(loaded, opt)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if got := logitsDigest(predictAllLogits(t, fromFile)); got != want {
			t.Errorf("%s: served-from-file logits digest %s, want %s", arch, got, want)
		}
		fromFile.Close()

		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			// A fresh export at this worker count, on a graph with no
			// propagation plan cached, so the fill itself runs here.
			ck, err := checkpoint.FromResult(&federated.Result{GlobalParams: trained.Params}, arch, trained.Config, trained.Graph.Clone())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", arch, workers, err)
			}
			plain, err := serve.New(ck, opt)
			if err != nil {
				t.Fatalf("%s: %v", arch, err)
			}
			if got := logitsDigest(predictAllLogits(t, plain)); got != want {
				t.Errorf("%s workers=%d unsharded: served logits digest %s, want %s", arch, workers, got, want)
			}
			plain.Close()
			if arch != "SGC" && arch != "GAMLP" && arch != "MLP" {
				continue // nothing to shard: the table is the whole serving state
			}
			for _, shards := range []int{2, 4} {
				srv := shardedServer(t, ck, shards, opt)
				if got := logitsDigest(predictAllLogits(t, srv)); got != want {
					t.Errorf("%s workers=%d shards=%d: served logits digest %s, want %s", arch, workers, shards, got, want)
				}
				srv.Close()
			}
		}
	}
}
