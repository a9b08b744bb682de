package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// trainedCheckpoint runs a tiny federation of arch over a scaled Cora and
// packages the global model on the full graph (the serve package's fixture).
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

// predictAllLogits returns a Predictor's full-graph logits indexed by node.
func predictAllLogits(t testing.TB, p serve.Predictor) [][]float64 {
	t.Helper()
	preds, err := p.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, p.Nodes())
	for _, pr := range preds {
		out[pr.Node] = pr.Logits
	}
	return out
}

// sameLogits fails unless two full-graph logit tables agree bit for bit.
func sameLogits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes answered, want %d", label, len(got), len(want))
	}
	for v := range want {
		for j := range want[v] {
			if got[v][j] != want[v][j] {
				t.Fatalf("%s: node %d logit %d: %v != %v", label, v, j, got[v][j], want[v][j])
			}
		}
	}
}

// unshardedLogits is the reference every shard count is held to: the plain
// single-process server's full-graph answer for ck.
func unshardedLogits(t *testing.T, ck *checkpoint.Checkpoint) [][]float64 {
	t.Helper()
	ref, err := serve.New(ck, serve.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	return predictAllLogits(t, ref)
}

// TestEveryArchitectureServesSharded is the one-answer-per-checkpoint
// contract: every architecture of the zoo starts under every shard count and
// answers the unsharded server's bits.
func TestEveryArchitectureServesSharded(t *testing.T) {
	for arch := range models.Registry {
		ck := trainedCheckpoint(t, arch, 29)
		want := unshardedLogits(t, ck)
		for _, shards := range []int{1, 2, 4} {
			srv, err := NewServer(ck, shards, serve.Options{Seed: 1})
			if err != nil {
				t.Errorf("%s/%d shards: %v", arch, shards, err)
				continue
			}
			sameLogits(t, fmt.Sprintf("%s/%d shards", arch, shards), predictAllLogits(t, srv), want)
			srv.Close()
		}
	}
}

// TestDecoupledShardedBitIdentical is the serving half of the tentpole
// claim: for every decoupled architecture, the shard-routed server answers
// bit-identically to the single-process server at every shard count.
func TestDecoupledShardedBitIdentical(t *testing.T) {
	for _, arch := range []string{"SGC", "GAMLP", "MLP"} {
		ck := trainedCheckpoint(t, arch, 23)
		want := unshardedLogits(t, ck)
		for _, shards := range []int{1, 2, 4} {
			srv, err := NewServer(ck, shards, serve.Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s/%d: %v", arch, shards, err)
			}
			if !srv.Decoupled() {
				t.Fatalf("%s/%d: Decoupled() = false", arch, shards)
			}
			if _, routed := srv.(*Server); routed != (shards > 1) {
				t.Fatalf("%s/%d shards: got a %T", arch, shards, srv)
			}
			sameLogits(t, fmt.Sprintf("%s/%d shards", arch, shards), predictAllLogits(t, srv), want)
			srv.Close()
		}
	}
}

// TestCoupledShardedInvariantAndClose checks the message-passing path: at
// every shard count a GCN checkpoint is served by the plain single-process
// server and answers its bits.
func TestCoupledShardedInvariantAndClose(t *testing.T) {
	ck := trainedCheckpoint(t, "GCN", 37)
	want := unshardedLogits(t, ck)
	for _, shards := range []int{1, 2, 4} {
		srv, err := NewServer(ck, shards, serve.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if _, ok := srv.(*serve.Server); !ok || srv.Decoupled() {
			t.Fatalf("%d shards: got %T (decoupled %v), want the plain coupled *serve.Server", shards, srv, srv.Decoupled())
		}
		sameLogits(t, fmt.Sprintf("%d shards", shards), predictAllLogits(t, srv), want)
		srv.Close()
	}
}

// TestCoupledShardedRepeatedWindows: a coupled model under a shard count
// keeps one answer over the life of a server — thirty windows of
// single-node, node-set and full-graph queries answer one bit pattern at 2
// and at 4 shards — and, being the unsharded server, never runs a halo
// exchange.
func TestCoupledShardedRepeatedWindows(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	ck := trainedCheckpoint(t, "GCN", 41)
	n := ck.Graph.N
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	const windows = 30
	query := func(w int) []int {
		switch w % 3 {
		case 0:
			return []int{(w * 37) % n}
		case 1:
			return []int{(w * 13) % n, n - 1 - w, (w * 7) % n}
		}
		return all
	}
	var want [][]serve.Prediction
	for _, shards := range []int{2, 4} {
		before := telExchanges.Value()
		srv, err := NewServer(ck, shards, serve.Options{MaxBatch: 4, MaxWait: 0, Seed: 1})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		var got [][]serve.Prediction
		for w := 0; w < windows; w++ {
			preds, err := srv.Predict(query(w))
			if err != nil {
				t.Fatalf("%d shards window %d: %v", shards, w+1, err)
			}
			got = append(got, preds)
		}
		if ran := telExchanges.Value() - before; ran != 0 {
			t.Errorf("%d shards: %d halo exchanges for a coupled model, want none", shards, ran)
		}
		srv.Close()
		if want == nil {
			want = got
			continue
		}
		for w := range want {
			for i, p := range want[w] {
				q := got[w][i]
				if q.Node != p.Node || q.Class != p.Class {
					t.Fatalf("%d shards window %d: answer %d is (%d,%d), 2 shards said (%d,%d)",
						shards, w+1, i, q.Node, q.Class, p.Node, p.Class)
				}
				for j := range p.Logits {
					if q.Logits[j] != p.Logits[j] {
						t.Fatalf("%d shards window %d: node %d logit %d differs from the 2-shard answer", shards, w+1, p.Node, j)
					}
				}
			}
		}
	}
}

// TestShardedRouting exercises the router surface: mixed-shard query order,
// global ids in answers, validation, labels, metadata, stats aggregation
// and context deadlines.
func TestShardedRouting(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 41)
	p, err := NewServer(ck, 3, serve.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := p.(*Server)

	if srv.Arch() != "SGC" || srv.Nodes() != ck.Graph.N || srv.Classes() != ck.Graph.Classes {
		t.Fatalf("metadata: %s %d/%d", srv.Arch(), srv.Nodes(), srv.Classes())
	}
	// A query striding across shards must come back in query order with
	// global ids.
	nodes := []int{srv.Nodes() - 1, 0, srv.Nodes() / 2, 1, srv.Nodes() / 3}
	preds, err := srv.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range preds {
		if pr.Node != nodes[i] {
			t.Fatalf("answer %d is node %d, want %d", i, pr.Node, nodes[i])
		}
	}
	if _, err := srv.Predict(nil); err == nil {
		t.Fatal("expected empty-list error")
	}
	if _, err := srv.Predict([]int{-1}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := srv.Predict([]int{srv.Nodes()}); err == nil {
		t.Fatal("expected range error")
	}
	for _, v := range nodes {
		want, ok := srv.Label(v)
		if !ok || want != ck.Graph.Labels[v] {
			t.Fatalf("Label(%d) = %d,%v want %d", v, want, ok, ck.Graph.Labels[v])
		}
	}
	if _, ok := srv.Label(-1); ok {
		t.Fatal("Label(-1) should miss")
	}
	if _, ok := srv.Label(srv.Nodes()); ok {
		t.Fatal("Label(N) should miss")
	}

	snap := srv.Stats()
	if snap.Requests == 0 || snap.Nodes < uint64(len(nodes)) {
		t.Fatalf("aggregated stats undercount: %+v", snap)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.PredictCtx(ctx, []int{0}); !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("cancelled context: %v", err)
	}
}

// TestShardedDrain checks graceful retirement propagates to every shard:
// new queries are turned away, the server unwinds cleanly.
func TestShardedDrain(t *testing.T) {
	ck := trainedCheckpoint(t, "MLP", 43)
	p, err := NewServer(ck, 2, serve.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if _, err := p.Predict([]int{0}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-drain predict: %v", err)
	}
	p.Close() // idempotent after Drain
}

// TestNewServerErrors covers the constructor validation paths.
func TestNewServerErrors(t *testing.T) {
	if _, err := NewServer(nil, 2, serve.Options{}); err == nil {
		t.Fatal("expected nil-checkpoint error")
	}
	ck := trainedCheckpoint(t, "SGC", 47)
	if _, err := NewServer(ck, ck.Graph.N+1, serve.Options{Seed: 1}); err == nil {
		t.Fatal("expected oversized shard count error")
	}
	if _, err := NewServer(ck, 2, serve.Options{MaxBatch: -1}); err == nil {
		t.Fatal("expected options error")
	}
}

// TestNewFromPartsErrors covers the parts-constructor validation.
func TestNewFromPartsErrors(t *testing.T) {
	if _, err := NewFromParts(nil, "SGC", nil, models.EmbeddingSpec{}, serve.Options{}); err == nil {
		t.Fatal("expected nil shard set error")
	}
	spec := datasets.DefaultStream(120, 7)
	p, err := PlanFromStream(spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildFromStream(spec, p, sparse.NormRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromParts(sh, "SGC", nil, models.EmbeddingSpec{Norm: sparse.NormSym}, serve.Options{}); err == nil ||
		!strings.Contains(err.Error(), "norm") {
		t.Fatalf("norm mismatch: %v", err)
	}
	sh2, err := BuildFromStream(spec, p, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromParts(sh2, "SGC", nil, models.EmbeddingSpec{Hops: 1, HopWeights: []float64{1}}, serve.Options{}); err == nil {
		t.Fatal("expected embedding recipe error")
	}
	if _, err := NewFromParts(sh2, "SGC", nil, models.EmbeddingSpec{}, serve.Options{MaxBatch: -2}); err == nil {
		t.Fatal("expected options error")
	}
}

// TestStreamServeMatchesGraphServe closes the loop on the streamed path:
// shards built from the edge stream serve the same bits as shards built
// from the materialised graph, behind the same head.
func TestStreamServeMatchesGraphServe(t *testing.T) {
	spec := datasets.DefaultStream(260, 53)
	st, gr := buildPair(t, spec, 3, sparse.NormSym)
	w := matrix.New(spec.Features, spec.Classes)
	for i := range w.Data {
		w.Data[i] = float64(i%9) - 4
	}
	head := []models.HeadLayer{{W: w, Bias: make([]float64, spec.Classes)}}
	rec := models.EmbeddingSpec{Hops: 2, Norm: sparse.NormSym}
	a, err := NewFromParts(st, "SGC", head, rec, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewFromParts(gr, "SGC", head, rec, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ga, gb := predictAllLogits(t, a), predictAllLogits(t, b)
	for v := range ga {
		for j := range ga[v] {
			if ga[v][j] != gb[v][j] {
				t.Fatalf("node %d logit %d: stream-built %v != graph-built %v", v, j, ga[v][j], gb[v][j])
			}
		}
	}
}
