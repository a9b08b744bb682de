package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/serve"
)

// abZoo saves a coupled control line (base@1, base@2: one graph, different
// parameters) and a decoupled candidate (ada@1) on the same graph, and
// returns the directory with every artifact's full-graph reference answers.
func abZoo(t *testing.T) (dir string, ref map[string][]serve.Prediction) {
	t.Helper()
	dir = t.TempDir()
	saveCkpt(t, dir, "base@1.ckpt", makeCkpt(t, "GCN", 3, 100))
	saveCkpt(t, dir, "base@2.ckpt", makeCkpt(t, "GCN", 3, 101))
	saveCkpt(t, dir, "ada@1.ckpt", makeCkpt(t, "SGC", 3, 102))
	ref = map[string][]serve.Prediction{}
	for _, name := range []string{"base@1", "base@2", "ada@1"} {
		ref[name] = refPreds(t, dir, name)
	}
	return dir, ref
}

// abRegistry loads dir and installs base-vs-ada at one half.
func abRegistry(t *testing.T, dir string, opt serve.Options) (*Registry, ABConfig) {
	t.Helper()
	r := New(Options{Serve: opt})
	t.Cleanup(r.Close)
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg := ABConfig{Control: "base", Candidate: "ada", Fraction: 0.5, Salt: 9}
	if err := r.ConfigureAB(cfg); err != nil {
		t.Fatal(err)
	}
	return r, cfg
}

// splitNodes returns up to k nodes of [0, n) routed to the wanted arm.
func splitNodes(cfg ABConfig, n, k int, candidate bool) []int {
	var out []int
	for v := 0; v < n && len(out) < k; v++ {
		if ABRoute(cfg, v) == candidate {
			out = append(out, v)
		}
	}
	return out
}

// TestABMergePreservesRequestOrder: with the arms answering concurrently,
// the merged answer is still in request order — position i carries node i's
// row from the arm its hash selects — for a node set that interleaves the
// arms, one that is all control and one that is all candidate.
func TestABMergePreservesRequestOrder(t *testing.T) {
	dir, ref := abZoo(t)
	r, cfg := abRegistry(t, dir, serve.Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond, Seed: 1})
	n := len(ref["base@1"])
	ctrl, cand := splitNodes(cfg, n, 12, false), splitNodes(cfg, n, 12, true)
	if len(ctrl) < 12 || len(cand) < 12 {
		t.Fatalf("hash split degenerate: %d control, %d candidate nodes", len(ctrl), len(cand))
	}
	var mixed []int
	for i := range ctrl {
		mixed = append(mixed, cand[len(cand)-1-i], ctrl[i])
	}
	mixed = append(mixed, ctrl[0], cand[0]) // repeats keep their positions too
	for name, nodes := range map[string][]int{"mixed": mixed, "only-control": ctrl, "only-candidate": cand} {
		for pass := 0; pass < 3; pass++ {
			preds, err := r.Predict("base", nodes)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(preds) != len(nodes) {
				t.Fatalf("%s: %d answers for %d nodes", name, len(preds), len(nodes))
			}
			for i, v := range nodes {
				want := ref["base@1"][v]
				if ABRoute(cfg, v) {
					want = ref["ada@1"][v]
				}
				if !samePred(preds[i], want) {
					t.Fatalf("%s pass %d: position %d (node %d) is %+v, want %+v", name, pass, i, v, preds[i], want)
				}
			}
		}
	}
}

// TestABCountersMatchSerialAccounting: on a fixed node list the per-arm
// experiment counters, the per-model counters and adafgl_registry_ab_nodes_total
// read exactly what one predict per non-empty arm, run back to back, would
// have left: one request per arm per call, the arm's share of the nodes, all
// of them labelled.
func TestABCountersMatchSerialAccounting(t *testing.T) {
	dir, ref := abZoo(t)
	r, cfg := abRegistry(t, dir, serve.Options{MaxBatch: 8, Seed: 1})
	n := len(ref["base@1"])
	ctrl, cand := splitNodes(cfg, n, 20, false), splitNodes(cfg, n, 7, true)
	mixed := append(append([]int{}, ctrl...), cand...)
	ctrl0, cand0 := telABControl.Value(), telABCandidate.Value()

	const passes = 4
	for pass := 0; pass < passes; pass++ {
		for _, nodes := range [][]int{mixed, ctrl[:5], cand[:3]} {
			if _, err := r.Predict("base", nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantCtrl := ArmStats{Requests: 2 * passes, Nodes: uint64(passes * (len(ctrl) + 5))}
	wantCand := ArmStats{Requests: 2 * passes, Nodes: uint64(passes * (len(cand) + 3))}
	correct := func(model string, sets ...[]int) (c uint64) {
		for _, set := range sets {
			for _, v := range set {
				if want, ok := labelOf(t, r, model, v); ok && ref[model][v].Class == want {
					c++
				}
			}
		}
		return passes * c
	}
	wantCtrl.Labelled, wantCtrl.Correct = wantCtrl.Nodes, correct("base@1", ctrl, ctrl[:5])
	wantCand.Labelled, wantCand.Correct = wantCand.Nodes, correct("ada@1", cand, cand[:3])

	rep, err := r.ABReportNow()
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name      string
		got, want ArmStats
	}{{"control", rep.Control.Stats, wantCtrl}, {"candidate", rep.Candidate.Stats, wantCand}} {
		g := arm.got
		if g.Requests != arm.want.Requests || g.Nodes != arm.want.Nodes || g.Labelled != arm.want.Labelled || g.Correct != arm.want.Correct {
			t.Errorf("%s arm counted %d requests / %d nodes / %d labelled / %d correct, want %d / %d / %d / %d", arm.name,
				g.Requests, g.Nodes, g.Labelled, g.Correct, arm.want.Requests, arm.want.Nodes, arm.want.Labelled, arm.want.Correct)
		}
	}
	if got := telABControl.Value() - ctrl0; got != wantCtrl.Nodes {
		t.Errorf("ab_nodes_total{arm=control} advanced by %d, want %d", got, wantCtrl.Nodes)
	}
	if got := telABCandidate.Value() - cand0; got != wantCand.Nodes {
		t.Errorf("ab_nodes_total{arm=candidate} advanced by %d, want %d", got, wantCand.Nodes)
	}
	for name, want := range map[string]ArmStats{"base": wantCtrl, "ada": wantCand} {
		st, err := r.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Versions["1"]; got.Requests != want.Requests || got.Nodes != want.Nodes || got.Correct != want.Correct {
			t.Errorf("%s@1 counted %d requests / %d nodes / %d correct, want %d / %d / %d",
				name, got.Requests, got.Nodes, got.Correct, want.Requests, want.Nodes, want.Correct)
		}
	}
}

// TestConfigureABResetsArms: installing an experiment again, even the same
// one, starts both arms at zero, while the per-version counters keep what
// they counted.
func TestConfigureABResetsArms(t *testing.T) {
	dir, ref := abZoo(t)
	r, cfg := abRegistry(t, dir, serve.Options{MaxBatch: 8, Seed: 1})
	n := len(ref["base@1"])
	mixed := append(splitNodes(cfg, n, 4, false), splitNodes(cfg, n, 4, true)...)
	if _, err := r.Predict("base", mixed); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ABReportNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Control.Stats.Requests != 1 || rep.Candidate.Stats.Requests != 1 {
		t.Fatalf("arms counted %d / %d requests before the reset, want 1 / 1",
			rep.Control.Stats.Requests, rep.Candidate.Stats.Requests)
	}
	if err := r.ConfigureAB(cfg); err != nil {
		t.Fatal(err)
	}
	if rep, err = r.ABReportNow(); err != nil {
		t.Fatal(err)
	}
	if rep.Control.Stats != (ArmStats{}) || rep.Candidate.Stats != (ArmStats{}) {
		t.Fatalf("arms after a second ConfigureAB: control %+v, candidate %+v; want both zero",
			rep.Control.Stats, rep.Candidate.Stats)
	}
	for _, name := range []string{"base", "ada"} {
		st, err := r.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Versions["1"]; got.Requests != 1 || got.Nodes != 4 {
			t.Fatalf("%s@1 after the reset: %+v, want the 1 request / 4 nodes it answered", name, got)
		}
	}
}

// labelOf reads node's label through model's serving instance.
func labelOf(t *testing.T, r *Registry, model string, node int) (int, bool) {
	t.Helper()
	h, err := r.Acquire(model)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return h.Server().Label(node)
}

// TestABErrorPrecedence: control's error is the one a split request reports
// when both arms fail; candidate's is reported when only it fails, control's
// when only it fails; either way no partial answer escapes. Arms are broken
// by corrupting their artifact before the first (lazy) start, so each arm's
// failure names its own model.
func TestABErrorPrecedence(t *testing.T) {
	dir, ref := abZoo(t)
	n := len(ref["base@1"])
	for _, tc := range []struct {
		name     string
		corrupt  []string
		wantName string
	}{
		{"both-fail", []string{"base@1", "ada@1"}, "base@1"},
		{"candidate-fails", []string{"ada@1"}, "ada@1"},
		{"control-fails", []string{"base@1"}, "base@1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := t.TempDir()
			for _, f := range []string{"base@1", "ada@1"} {
				data, err := os.ReadFile(filepath.Join(dir, f+".ckpt"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(broken, f+".ckpt"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, cfg := abRegistry(t, broken, serve.Options{MaxBatch: 8, Seed: 1})
			for _, f := range tc.corrupt {
				if err := os.WriteFile(filepath.Join(broken, f+".ckpt"), []byte("junk"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mixed := append(splitNodes(cfg, n, 4, false), splitNodes(cfg, n, 4, true)...)
			preds, err := r.Predict("base", mixed)
			if err == nil || preds != nil {
				t.Fatalf("split request over a broken arm answered %d predictions, err %v", len(preds), err)
			}
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantName) {
				t.Fatalf("reported %q, want %s's corrupt-artifact failure", err, tc.wantName)
			}
			// A node set that stays on the healthy arm is unaffected.
			if len(tc.corrupt) == 1 {
				healthy := splitNodes(cfg, n, 4, tc.corrupt[0] == "base@1")
				if _, err := r.Predict("base", healthy); err != nil {
					t.Fatalf("request on the healthy arm only: %v", err)
				}
			}
		})
	}
}

// TestABArmsRunConcurrently: with every batch window stalled by 150 ms on
// both arms' servers, a split request costs one stall, not two. The bound
// leaves 120 ms of scheduling slack above the one stall a parallel run needs
// and sits 30 ms below the two a serial run cannot beat.
func TestABArmsRunConcurrently(t *testing.T) {
	dir, ref := abZoo(t)
	const stall = 150 * time.Millisecond
	r, cfg := abRegistry(t, dir, serve.Options{MaxBatch: 8, Seed: 1,
		Chaos: serve.ChaosOptions{DelayEvery: 1, Delay: stall}})
	for _, name := range []string{"base", "ada"} { // cold starts, outside the timing
		h, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	n := len(ref["base@1"])
	mixed := append(splitNodes(cfg, n, 3, false), splitNodes(cfg, n, 3, true)...)
	start := time.Now()
	if _, err := r.Predict("base", mixed); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < stall || took >= 2*stall-30*time.Millisecond {
		t.Fatalf("split request took %v over two %v windows: want one stall (arms in parallel), not two", took, stall)
	}
}

// TestInParallelCarriesPanicToCaller: a panic on the second goroutine
// surfaces on the caller's, after the first function has finished, where a
// deferred recover (the HTTP middleware's) can catch it; without a panic both
// errors come back in argument order.
func TestInParallelCarriesPanicToCaller(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	if gotA, gotB := inParallel(func() error { return errA }, func() error { return errB }); gotA != errA || gotB != errB {
		t.Fatalf("inParallel returned (%v, %v), want (a, b)", gotA, gotB)
	}
	ranA := false
	defer func() {
		if rec := recover(); rec != "boom" || !ranA {
			t.Fatalf("recovered %v with a finished = %v; want the second goroutine's panic after a ran", rec, ranA)
		}
	}()
	inParallel(func() error { time.Sleep(5 * time.Millisecond); ranA = true; return nil }, func() error { panic("boom") })
	t.Fatal("inParallel swallowed the panic")
}

// TestABControlRowsFromOneVersionUnderSwap: while the control line's active
// version flips in a loop, every split request still gets all of its control
// rows from one version (the arm pins one handle for the whole call) and all
// of its candidate rows from the candidate, in request order.
func TestABControlRowsFromOneVersionUnderSwap(t *testing.T) {
	dir, ref := abZoo(t)
	r, cfg := abRegistry(t, dir, serve.Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond, Seed: 1})
	n := len(ref["base@1"])
	differ := false
	for v := 0; v < n && !differ; v++ {
		differ = !samePred(ref["base@1"][v], ref["base@2"][v])
	}
	if !differ {
		t.Fatal("base@1 and base@2 predict identically; the test cannot tell versions apart")
	}

	var failed atomic.Value
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				nodes := make([]int, 10)
				for i := range nodes {
					nodes[i] = (g*131 + q*17 + i*29) % n
				}
				preds, err := r.Predict("base", nodes)
				if err != nil {
					failed.CompareAndSwap(nil, fmt.Sprintf("g%d q%d: %v", g, q, err))
					return
				}
				version := ""
				for i, v := range nodes {
					if ABRoute(cfg, v) {
						if !samePred(preds[i], ref["ada@1"][v]) {
							failed.CompareAndSwap(nil, fmt.Sprintf("g%d q%d: candidate node %d answered %+v", g, q, v, preds[i]))
							return
						}
						continue
					}
					is1, is2 := samePred(preds[i], ref["base@1"][v]), samePred(preds[i], ref["base@2"][v])
					switch {
					case is1 && is2: // the versions agree on this node
					case is1 && version != "base@2":
						version = "base@1"
					case is2 && version != "base@1":
						version = "base@2"
					default:
						failed.CompareAndSwap(nil, fmt.Sprintf("g%d q%d: control node %d answered %+v after rows from %q", g, q, v, preds[i], version))
						return
					}
				}
				served.Add(1)
			}
		}(g)
	}
	swaps := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); swaps++ {
		if _, err := r.Swap("base", 2-swaps%2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatalf("after %d swaps: %s", swaps, msg)
	}
	if swaps < 5 || served.Load() < 20 {
		t.Fatalf("only %d swaps and %d split requests ran", swaps, served.Load())
	}
}
