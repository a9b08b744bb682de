package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/parallel"
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

// predictAllLogits returns a server's full-graph logits indexed by node.
func predictAllLogits(t testing.TB, p *serve.Server) [][]float64 {
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

// shardedParts METIS-plans ck's graph into shards and returns what Table
// needs to fill from them: the shard set, and the trained model's own head
// and embedding recipe. ck must hold a decoupled model.
func shardedParts(t testing.TB, ck *checkpoint.Checkpoint, shards int) (*Sharded, []models.HeadLayer, models.EmbeddingSpec) {
	t.Helper()
	m, err := ck.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	dec := m.(models.Decoupled)
	plan, err := PlanFromGraph(ck.Graph, shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := dec.EmbeddingSpec()
	sh, err := BuildFromGraph(ck.Graph, plan, spec.Norm)
	if err != nil {
		t.Fatal(err)
	}
	_, head := dec.InferenceFactors()
	return sh, head, spec
}

// tableServer serves the table Table fills from sh, with the shards' labels.
func tableServer(t testing.TB, sh *Sharded, arch string, head []models.HeadLayer, spec models.EmbeddingSpec, opt serve.Options) *serve.Server {
	t.Helper()
	table, err := Table(sh, head, spec)
	if err != nil {
		t.Fatalf("%s/%d shards: %v", arch, len(sh.Shards), err)
	}
	srv, err := serve.NewFromTable(arch, table, sh.Labels(), opt)
	if err != nil {
		t.Fatalf("%s/%d shards: %v", arch, len(sh.Shards), err)
	}
	return srv
}

// shardedServer starts ck's decoupled model behind a shards-way fill.
func shardedServer(t testing.TB, ck *checkpoint.Checkpoint, shards int, opt serve.Options) *serve.Server {
	t.Helper()
	sh, head, spec := shardedParts(t, ck, shards)
	return tableServer(t, sh, ck.Arch, head, spec, opt)
}

// TestEveryArchitectureServesSharded is the one-answer-per-checkpoint
// contract: every architecture of the zoo whose embedding can be built shard
// by shard — models.Decoupled: SGC, GAMLP, MLP and nothing else — fills its
// table from 1, 2 and 4 shards to the unsharded server's bits. For the rest
// there is nothing to shard: the table is their whole serving state.
func TestEveryArchitectureServesSharded(t *testing.T) {
	var decoupled []string
	for arch := range models.Registry {
		ck := trainedCheckpoint(t, arch, 29)
		m, err := ck.Model(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(models.Decoupled); !ok {
			continue
		}
		decoupled = append(decoupled, arch)
		want := unshardedLogits(t, ck)
		for _, shards := range []int{1, 2, 4} {
			srv := shardedServer(t, ck, shards, serve.Options{Seed: 1})
			sameLogits(t, fmt.Sprintf("%s/%d shards", arch, shards), predictAllLogits(t, srv), want)
			srv.Close()
		}
	}
	sort.Strings(decoupled)
	if got := strings.Join(decoupled, " "); got != "GAMLP MLP SGC" {
		t.Fatalf("decoupled architectures: %s, want GAMLP MLP SGC", got)
	}
}

// TestDecoupledShardedBitIdentical is the serving half of the sharding
// claim, over the life of a server: for every decoupled architecture, at 2
// and 4 shards and at 1 and 3 workers, thirty windows of single-node,
// node-set and full-graph queries answer the unsharded server's bits — and
// the sharded fill runs once: the halo exchanges all belong to construction,
// windows only gather.
func TestDecoupledShardedBitIdentical(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	for _, arch := range []string{"SGC", "GAMLP", "MLP"} {
		ck := trainedCheckpoint(t, arch, 23)
		want := unshardedLogits(t, ck)
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
		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			for _, shards := range []int{2, 4} {
				what := fmt.Sprintf("%s workers=%d shards=%d", arch, workers, shards)
				sh, head, spec := shardedParts(t, ck, shards)
				before := telExchanges.Value()
				srv := tableServer(t, sh, arch, head, spec, serve.Options{MaxBatch: 4, MaxWait: 0, Seed: 1})
				filled := telExchanges.Value() - before
				for w := 0; w < windows; w++ {
					nodes := query(w)
					preds, err := srv.Predict(nodes)
					if err != nil {
						t.Fatalf("%s window %d: %v", what, w+1, err)
					}
					for i, p := range preds {
						if p.Node != nodes[i] {
							t.Fatalf("%s window %d: answer %d is node %d, want %d", what, w+1, i, p.Node, nodes[i])
						}
						for j, v := range want[p.Node] {
							if p.Logits[j] != v {
								t.Fatalf("%s window %d: node %d logit %d: %v != %v", what, w+1, p.Node, j, p.Logits[j], v)
							}
						}
					}
				}
				// One exchange fills the hop-zero halos, one more per hop.
				if wantRuns := uint64(spec.Hops + 1); filled != wantRuns || telExchanges.Value()-before != wantRuns {
					t.Errorf("%s: %d halo exchanges in construction, %d after %d windows, want %d and no more",
						what, filled, telExchanges.Value()-before, windows, wantRuns)
				}
				srv.Close()
			}
		}
	}
}

// serveCounter returns arch's series of the process-wide serving counter
// adafgl_serve_<name>_total, the serving layer's one count of what it
// answered. Series are per architecture, so a test asserts their deltas.
func serveCounter(name, arch string) *telemetry.Counter {
	return telemetry.Default().CounterVec("adafgl_serve_"+name+"_total", "", "arch").With(arch)
}

// TestShardedRouting exercises the surface of a server filled from shards:
// it speaks global node ids — a query striding across shards comes back in
// query order — and validates, labels, reports metadata, is counted and
// honours context deadlines like any other serve.Server.
func TestShardedRouting(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 41)
	srv := shardedServer(t, ck, 3, serve.Options{Seed: 1})
	defer srv.Close()
	requests, nodesServed := serveCounter("requests", "SGC"), serveCounter("nodes", "SGC")
	requests0, nodes0 := requests.Value(), nodesServed.Value()

	if srv.Arch() != "SGC" || srv.Nodes() != ck.Graph.N || srv.Classes() != ck.Graph.Classes {
		t.Fatalf("metadata: %s %d/%d", srv.Arch(), srv.Nodes(), srv.Classes())
	}
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

	if r, n := requests.Value()-requests0, nodesServed.Value()-nodes0; r != 1 || n != uint64(len(nodes)) {
		t.Fatalf("serving counts: %d requests / %d nodes, want 1 / %d", r, n, len(nodes))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.PredictCtx(ctx, []int{0}); !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("cancelled context: %v", err)
	}

	// Shards of an unlabelled graph serve no labels.
	sh, head, spec := shardedParts(t, ck, 2)
	for _, shd := range sh.Shards {
		shd.Labels = nil
	}
	if sh.Labels() != nil {
		t.Fatal("unlabelled shards gathered labels")
	}
	bare := tableServer(t, sh, "SGC", head, spec, serve.Options{Seed: 1})
	defer bare.Close()
	if _, ok := bare.Label(0); ok {
		t.Fatal("unlabelled shards must not answer labels")
	}
}

// TestShardedDrain checks graceful retirement of a server filled from shards:
// new queries are turned away, the server unwinds cleanly.
func TestShardedDrain(t *testing.T) {
	ck := trainedCheckpoint(t, "MLP", 43)
	p := shardedServer(t, ck, 2, serve.Options{Seed: 1})
	if _, err := p.Predict([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if _, err := p.Predict([]int{0}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-drain predict: %v", err)
	}
	p.Close() // idempotent after Drain
}

// TestTableErrors covers the exporter's validation.
func TestTableErrors(t *testing.T) {
	if _, err := Table(nil, nil, models.EmbeddingSpec{}); err == nil {
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
	if _, err := Table(sh, nil, models.EmbeddingSpec{Norm: sparse.NormSym}); err == nil ||
		!strings.Contains(err.Error(), "norm") {
		t.Fatalf("norm mismatch: %v", err)
	}
	sh2, err := BuildFromStream(spec, p, sparse.NormSym)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table(sh2, nil, models.EmbeddingSpec{Hops: 1, HopWeights: []float64{1}}); err == nil {
		t.Fatal("expected embedding recipe error")
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
	a := tableServer(t, st, "SGC", head, rec, serve.Options{})
	defer a.Close()
	b := tableServer(t, gr, "SGC", head, rec, serve.Options{})
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
