package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// countingModel is a coupled engine that counts its full-graph passes and
// panics on the first panics of them. Every successful pass returns a fresh
// copy of logits, as a real forward does. Only New's goroutine calls it —
// the table is filled before the dispatcher starts — and tests read the
// counters after New has returned.
type countingModel struct {
	logits *matrix.Dense
	passes int
	panics int
}

func (m *countingModel) Params() []*nn.Parameter { return nil }
func (m *countingModel) Backward(*matrix.Dense)  { panic("countingModel is inference-only") }

func (m *countingModel) Logits(bool) *matrix.Dense {
	m.passes++
	if m.passes <= m.panics {
		panic(fmt.Sprintf("countingModel: injected failure of pass %d", m.passes))
	}
	return m.logits.Clone()
}

// countingDecoupled is a countingModel in decoupled shape: its embedding is
// the counted (and, on schedule, panicking) pass and its head the identity, so
// the dense head over every row lands exactly on logits.
type countingDecoupled struct{ *countingModel }

func (m countingDecoupled) InferenceFactors() (*matrix.Dense, []models.HeadLayer) {
	emb := m.Logits(false)
	eye := matrix.New(emb.Cols, emb.Cols)
	for j := 0; j < emb.Cols; j++ {
		eye.Set(j, j, 1)
	}
	return emb, []models.HeadLayer{{W: eye, Bias: make([]float64, emb.Cols)}}
}

func (m countingDecoupled) EmbeddingSpec() models.EmbeddingSpec { return models.EmbeddingSpec{} }

// stubShapes presents one countingModel to the table fill as each kind of
// engine.
var stubShapes = map[string]func(*countingModel) models.Model{
	"Model":     func(m *countingModel) models.Model { return m },
	"Decoupled": func(m *countingModel) models.Model { return countingDecoupled{m} },
}

// stubCheckpoint registers the test-only architecture arch, whose builder
// hands out m whatever graph it is bound to, until t ends, and returns a
// checkpoint of it on an unlabelled, featureless n-node, c-class graph: all
// a stub's table fill reads.
func stubCheckpoint(t *testing.T, arch string, n, c int, m models.Model) *checkpoint.Checkpoint {
	t.Helper()
	models.Registry[arch] = func(*graph.Graph, models.Config, *rand.Rand) models.Model { return m }
	t.Cleanup(func() { delete(models.Registry, arch) })
	return &checkpoint.Checkpoint{Arch: arch, Graph: graph.New(n, nil, nil, nil, c)}
}

// stubLogits fills an n×c table with distinct, recognisable scores.
func stubLogits(n, c int) *matrix.Dense {
	lg := matrix.New(n, c)
	for i := range lg.Data {
		lg.Data[i] = float64(i)*0.25 - 3
	}
	return lg
}

// TestCoupledWindowsCostOneEnginePass: a server over an engine of either
// shape runs the table fill exactly once, in New — before any request — and
// its windows run none: every window's answers are rows of that one pass.
func TestCoupledWindowsCostOneEnginePass(t *testing.T) {
	const n, c, windows = 20, 3, 25
	table := stubLogits(n, c)
	want := denseRows(table)
	for name, shape := range stubShapes {
		t.Run(name, func(t *testing.T) {
			m := &countingModel{logits: table}
			srv, err := New(stubCheckpoint(t, "stub-plain", n, c, shape(m)), Options{MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			count := countServed(t, srv.tel)
			if m.passes != 1 {
				t.Fatalf("New ran %d engine passes, want exactly 1", m.passes)
			}
			if srv.Nodes() != n || srv.Classes() != c {
				t.Fatalf("server is %d×%d, want the %d×%d table", srv.Nodes(), srv.Classes(), n, c)
			}
			for w := 0; w < windows; w++ {
				nodes := []int{w % n, (3*w + 1) % n}
				preds, err := srv.Predict(nodes)
				if err != nil {
					t.Fatalf("window %d: %v", w+1, err)
				}
				for i, p := range preds {
					checkPred(t, fmt.Sprintf("window %d", w+1), p, nodes[i], want, 0)
				}
			}
			// Stop the dispatcher before reading the count: a window is
			// counted after its callers are released.
			srv.Close()
			if got := count().batches; got != windows || m.passes != 1 {
				t.Fatalf("%d windows ran %d engine passes, want %d and still exactly 1", got, m.passes, windows)
			}
		})
	}
}

// TestPanickingPassStoresNothing: a table fill that panics — a coupled
// engine's forward or a decoupled one's factors — makes New return
// ErrModelPanic and start nothing: the goroutine count stays flat. Nothing
// is kept from it, so the next New runs the fill again and serves that
// pass's rows. Injected chaos panics fire in windows, after the fill, and
// leave the table alone.
func TestPanickingPassStoresNothing(t *testing.T) {
	const n, c = 12, 4
	table := stubLogits(n, c)
	want := denseRows(table)
	for shape, as := range stubShapes {
		m := &countingModel{logits: table, panics: 1}
		ck := stubCheckpoint(t, "stub-panic", n, c, as(m))
		before := runtime.NumGoroutine()
		if srv, err := New(ck, Options{MaxBatch: 1}); !errors.Is(err, ErrModelPanic) || srv != nil {
			t.Fatalf("%s: New over a panicking fill: server %v, err %v; want no server and ErrModelPanic", shape, srv, err)
		}
		// Goroutines of earlier tests may still be exiting; a dispatcher
		// started by the failed New would never exit.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the failed New, %d before", shape, runtime.NumGoroutine(), before)
			}
		}

		srv, err := New(ck, Options{MaxBatch: 1})
		if err != nil {
			t.Fatalf("%s: New after the panic: %v", shape, err)
		}
		count := countServed(t, srv.tel)
		for w := 1; w <= 5; w++ {
			preds, err := srv.Predict([]int{w, 0})
			if err != nil {
				t.Fatalf("%s window %d after the panic: %v", shape, w, err)
			}
			checkPred(t, shape+" after panic", preds[0], w, want, 0)
			checkPred(t, shape+" after panic", preds[1], 0, want, 0)
		}
		if m.passes != 2 {
			t.Fatalf("%s engine ran %d passes, want 2 (the panicking one and the one that filled the table)", shape, m.passes)
		}
		if got := count(); got.panics != 0 || got.requests != 5 {
			t.Fatalf("%s counts %+v: want 5 answered requests and no panicked one", shape, got)
		}
		srv.Close()
	}

	// Chaos on a real GCN: every second window is failed by injection. The
	// odd windows before and after it answer the fresh forward's rows.
	ck := trainedCheckpoint(t, "GCN", 61)
	ref := reference(t, ck)
	chaos, err := New(ck, Options{MaxBatch: 1, Seed: 1, Chaos: ChaosOptions{PanicEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	for w := 1; w <= 7; w++ {
		preds, err := chaos.Predict([]int{w})
		if w%2 == 0 {
			if !errors.Is(err, ErrModelPanic) {
				t.Fatalf("chaos window %d: want ErrModelPanic, got %v", w, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("chaos window %d: %v", w, err)
		}
		checkPred(t, "chaos survivor", preds[0], w, ref, 0)
	}
}

// TestReturnedLogitsDoNotAliasTheTable: a caller scribbling over the Logits
// it was handed never reaches the server's table — the same nodes asked again
// (alone, in a set, in a full-graph query) still carry the reference bits.
func TestReturnedLogitsDoNotAliasTheTable(t *testing.T) {
	ck := trainedCheckpoint(t, "GCN", 67)
	ref := reference(t, ck)
	srv, err := New(ck, Options{MaxBatch: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scribble := func(preds []Prediction) {
		for _, p := range preds {
			for j := range p.Logits {
				p.Logits[j] = -1e300
			}
		}
	}
	first, err := srv.Predict([]int{3, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	scribble(first)
	all, err := srv.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		checkPred(t, "PredictAll after scribble", p, p.Node, ref, 0)
	}
	scribble(all)
	again, err := srv.Predict([]int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPred(t, "re-query", again[0], 5, ref, 0)
	checkPred(t, "re-query", again[1], 3, ref, 0)
}

// headReference is the decoupled fill spelled out: the dense head over every
// row of a fresh model's propagated embedding.
func headReference(t testing.TB, ck *checkpoint.Checkpoint) [][]float64 {
	t.Helper()
	m, err := ck.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	emb, head := m.(models.Decoupled).InferenceFactors()
	return denseRows(models.ApplyHead(head, emb))
}

// TestCoupledAnswersEqualFreshForward extends the determinism contract over
// the life of a server, for every kind of architecture: every answer of the
// 1st, the 2nd and the 50th window — and of each one between — equals the row
// of a fresh fill, bit for bit, for single-node, node-set and full-graph
// queries, at MaxBatch 1 and 64 and at 1 and 3 workers. For GCN the fresh fill
// is model.Logits(false); for SGC, GAMLP and MLP it is ApplyHead over the full
// embedding, which itself stays within the kernels' 1e-12 of Logits(false)
// (matrix.Mul's size-dependent dispatch accumulates in another order).
func TestCoupledAnswersEqualFreshForward(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	for _, arch := range []string{"GCN", "SGC", "GAMLP", "MLP"} {
		ck := trainedCheckpoint(t, arch, 71)
		n := ck.Graph.N
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		kinds := map[string]func(w int) []int{
			"single":  func(w int) []int { return []int{(w * 37) % n} },
			"nodeset": func(w int) []int { return []int{(w * 13) % n, (w * 7) % n, n - 1 - w, (w * 13) % n} },
			"all":     func(int) []int { return all },
		}
		const windows = 50
		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			ref := reference(t, ck) // a fresh forward at this worker count
			if arch != "GCN" {
				forward := ref
				ref = headReference(t, ck)
				for v := range ref {
					for j := range ref[v] {
						if d := math.Abs(ref[v][j] - forward[v][j]); d > 1e-12 {
							t.Fatalf("%s workers=%d: head over the embedding is %g from Logits(false) at node %d", arch, workers, d, v)
						}
					}
				}
			}
			for _, batch := range []int{1, 64} {
				for kind, query := range kinds {
					what := fmt.Sprintf("%s workers=%d batch=%d %s", arch, workers, batch, kind)
					// MaxWait 0 with one caller: every Predict is its own window.
					srv, err := New(ck, Options{MaxBatch: batch, MaxWait: 0, Seed: 1})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					count := countServed(t, srv.tel)
					for w := 1; w <= windows; w++ {
						nodes := query(w)
						preds, err := srv.Predict(nodes)
						if err != nil {
							t.Fatalf("%s window %d: %v", what, w, err)
						}
						if len(preds) != len(nodes) {
							t.Fatalf("%s window %d: %d answers for %d nodes", what, w, len(preds), len(nodes))
						}
						for i, p := range preds {
							checkPred(t, fmt.Sprintf("%s window %d", what, w), p, nodes[i], ref, 0)
						}
					}
					srv.Close() // before reading the count: it trails the answers
					if got := count().batches; got != windows {
						t.Fatalf("%s: ran %d windows, want %d", what, got, windows)
					}
				}
			}
		}
	}
}
