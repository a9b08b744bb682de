package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/partition"
)

// trainedCheckpoint runs a tiny federation of arch over a scaled Cora and
// packages the global model on the full graph.
func trainedCheckpoint(t testing.TB, arch string, seed int64) *checkpoint.Checkpoint {
	t.Helper()
	spec, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.2, seed)
	cd := partition.CommunitySplit(g, 3, rand.New(rand.NewSource(seed)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 8
	cfg.Dropout = 0
	clients := federated.BuildClients(cd.Subgraphs, models.Registry[arch], cfg, seed)
	opt := federated.DefaultOptions()
	opt.Rounds = 3
	opt.LocalEpochs = 1
	res, err := federated.Run(clients, seed+1, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.FromResult(res, arch, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// reference computes the expected logits matrix for a checkpoint by direct
// model evaluation.
func reference(t testing.TB, ck *checkpoint.Checkpoint) [][]float64 {
	t.Helper()
	m, err := ck.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	return denseRows(m.Logits(false))
}

// denseRows copies a logits matrix into per-node rows, the form checkPred
// compares against.
func denseRows(lg *matrix.Dense) [][]float64 {
	out := make([][]float64, lg.Rows)
	for i := range out {
		out[i] = append([]float64(nil), lg.Row(i)...)
	}
	return out
}

// TestPredictMatchesModel checks both kinds of fill answer what the
// underlying model computes, for single-node, node-set and full-graph
// queries. A message-passing table is the model's own logits, so it must
// match bit for bit; a decoupled table is the head evaluated in serve's fixed
// per-row GEMV order (chosen for row-subset bit-identity, which matrix.Mul's
// size-dependent dispatch cannot give), so it is held to the kernels' 1e-12
// equivalence bound instead.
func TestPredictMatchesModel(t *testing.T) {
	for _, arch := range []string{"GCN", "SGC", "GAMLP", "MLP"} {
		ck := trainedCheckpoint(t, arch, 11)
		want := reference(t, ck)
		srv, err := New(ck, Options{MaxBatch: 16, MaxWait: time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		tol := 0.0
		if arch != "GCN" {
			tol = 1e-12
		}

		single, err := srv.Predict([]int{3})
		if err != nil {
			t.Fatalf("%s: single: %v", arch, err)
		}
		checkPred(t, arch, single[0], 3, want, tol)

		set, err := srv.Predict([]int{7, 0, 3, 7})
		if err != nil {
			t.Fatalf("%s: set: %v", arch, err)
		}
		for i, node := range []int{7, 0, 3, 7} {
			checkPred(t, arch, set[i], node, want, tol)
		}

		all, err := srv.PredictAll()
		if err != nil {
			t.Fatalf("%s: all: %v", arch, err)
		}
		if len(all) != srv.Nodes() {
			t.Fatalf("%s: PredictAll returned %d of %d nodes", arch, len(all), srv.Nodes())
		}
		for i, p := range all {
			checkPred(t, arch, p, i, want, tol)
		}
		srv.Close()
	}
}

// checkPred asserts one prediction equals the reference row within tol
// (0 = bit-identical) and is internally consistent.
func checkPred(t *testing.T, arch string, p Prediction, node int, want [][]float64, tol float64) {
	t.Helper()
	if p.Node != node {
		t.Fatalf("%s: predicted node %d, queried %d", arch, p.Node, node)
	}
	ref := want[node]
	if len(p.Logits) != len(ref) {
		t.Fatalf("%s: node %d: %d logits, want %d", arch, node, len(p.Logits), len(ref))
	}
	for j, v := range ref {
		d := p.Logits[j] - v
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("%s: node %d logit %d: %v != %v (tol %g)", arch, node, j, p.Logits[j], v, tol)
		}
	}
	if p.Class != rowArgmax(p.Logits) {
		t.Fatalf("%s: node %d class %d inconsistent with its logits", arch, node, p.Class)
	}
	if p.Class != rowArgmax(ref) {
		t.Fatalf("%s: node %d class %d, want %d", arch, node, p.Class, rowArgmax(ref))
	}
}

// TestPredictValidation covers the named-op error paths.
func TestPredictValidation(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 13)
	srv, err := New(ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict(nil); err == nil {
		t.Fatal("empty query must fail")
	}
	if _, err := srv.Predict([]int{-1}); err == nil {
		t.Fatal("negative node must fail")
	}
	if _, err := srv.Predict([]int{srv.Nodes()}); err == nil {
		t.Fatal("out-of-range node must fail")
	}
	srv.Close()
	if _, err := srv.Predict([]int{0}); err == nil {
		t.Fatal("predict after Close must fail")
	}
	srv.Close() // second Close must be safe
	if _, err := New(ck, Options{MaxBatch: -3}); err == nil {
		t.Fatal("negative MaxBatch must fail")
	}
	if _, err := New(&checkpoint.Checkpoint{Arch: "SGC"}, Options{}); err == nil {
		t.Fatal("a checkpoint without a graph must fail")
	}
	if _, err := New(&checkpoint.Checkpoint{Arch: "SGC", Graph: ck.Graph}, Options{}); err == nil {
		t.Fatal("a checkpoint without a logits table must fail")
	}
	table := matrix.New(ck.Graph.N, ck.Graph.Classes)
	if _, err := NewFromTable("SGC", nil, nil, Options{}); err == nil {
		t.Fatal("nil table must fail")
	}
	if _, err := NewFromTable("SGC", table, ck.Graph.Labels[1:], Options{}); err == nil {
		t.Fatal("labels of the wrong length must fail")
	}
	if _, err := NewFromTable("SGC", table, nil, Options{RequestTimeout: -1}); err == nil {
		t.Fatal("negative RequestTimeout must fail")
	}
	bare, err := NewFromTable("SGC", table, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, ok := bare.Label(0); ok {
		t.Fatal("a server without labels must not answer one")
	}
}

// TestStats checks the serving counts: every request and node once, one
// latency sample per request, and at least one and at most one window per
// request.
func TestStats(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 17)
	srv, err := New(ck, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	count := countServed(t, srv.tel)
	for i := 0; i < 10; i++ {
		if _, err := srv.Predict([]int{i % srv.Nodes()}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // a window is counted after its callers are released
	st := count()
	if st.requests != 10 || st.nodes != 10 {
		t.Fatalf("counted %d requests / %d nodes, want 10/10", st.requests, st.nodes)
	}
	if st.batches == 0 || st.batches > 10 {
		t.Fatalf("batches %d out of range", st.batches)
	}
	if st.latency != 10 {
		t.Fatalf("latency histogram holds %d samples, want 10", st.latency)
	}
	if st.shed != 0 || st.deadlines != 0 || st.panics != 0 {
		t.Fatalf("failures counted for ten answered requests: %+v", st)
	}
}
