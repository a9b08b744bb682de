package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/models"
	"repro/internal/parallel"
)

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
