package registry

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/serve"
)

// makeCkpt trains arch on a graph drawn from dataSeed with training stream
// trainSeed and returns the checkpoint. Distinct trainSeeds over one
// dataSeed produce different parameters on the same graph — the shape of a
// version line.
func makeCkpt(t testing.TB, arch string, dataSeed, trainSeed int64) *checkpoint.Checkpoint {
	t.Helper()
	spec, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.2, dataSeed)
	cd := partition.CommunitySplit(g, 3, rand.New(rand.NewSource(trainSeed)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 8
	cfg.Dropout = 0
	clients := federated.BuildClients(cd.Subgraphs, models.Registry[arch], cfg, trainSeed)
	opt := federated.DefaultOptions()
	opt.Rounds = 3
	opt.LocalEpochs = 1
	res, err := federated.Run(clients, trainSeed+1, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.FromResult(res, arch, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// saveCkpt writes ck into dir under name (no extension juggling: pass
// "m@1.ckpt") and returns the path.
func saveCkpt(t testing.TB, dir, name string, ck *checkpoint.Checkpoint) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := checkpoint.Save(path, ck); err != nil {
		t.Fatal(err)
	}
	return path
}

// zooDir saves one SGC artifact per given name into a temp dir and returns
// it. Each name gets its own training stream.
func zooDir(t testing.TB, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for i, n := range names {
		saveCkpt(t, dir, n+".ckpt", makeCkpt(t, "SGC", 3, int64(100+i)))
	}
	return dir
}

// TestParseRef covers the reference grammar.
func TestParseRef(t *testing.T) {
	if name, v, err := ParseRef("m"); err != nil || name != "m" || v != 0 {
		t.Fatalf("ParseRef(m) = %q %d %v", name, v, err)
	}
	if name, v, err := ParseRef("m@3"); err != nil || name != "m" || v != 3 {
		t.Fatalf("ParseRef(m@3) = %q %d %v", name, v, err)
	}
	for _, bad := range []string{"", "@1", "m@", "m@0", "m@x", "a/b", "a b", "a@1@2"} {
		if _, _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) accepted", bad)
		}
	}
}

// TestAddListRemove covers registration, duplicate rejection, filename
// parsing, listing metadata and removal protection.
func TestAddListRemove(t *testing.T) {
	dir := t.TempDir()
	ck1 := makeCkpt(t, "SGC", 3, 100)
	ck2 := makeCkpt(t, "SGC", 3, 200)
	p1 := saveCkpt(t, dir, "m@1.ckpt", ck1)
	p2 := saveCkpt(t, dir, "m@2.ckpt", ck2)

	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	if _, err := r.AddFile(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddFile(p1); err == nil {
		t.Fatal("duplicate version accepted")
	}
	if _, err := r.AddFile(p2); err != nil {
		t.Fatal(err)
	}

	infos := r.List()
	if len(infos) != 2 {
		t.Fatalf("List returned %d infos", len(infos))
	}
	if infos[0].Name != "m" || infos[0].Version != 1 || !infos[0].Active || infos[0].Loaded {
		t.Fatalf("info[0] = %+v", infos[0])
	}
	if infos[0].Arch != "SGC" || infos[0].Nodes == 0 || infos[0].Params != len(ck1.Params) {
		t.Fatalf("metadata not peeked: %+v", infos[0])
	}
	if infos[1].Version != 2 || infos[1].Active {
		t.Fatalf("info[1] = %+v", infos[1])
	}

	// Unknown model and version are ErrNotFound.
	if _, err := r.Acquire("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire(ghost) = %v", err)
	}
	if _, err := r.Acquire("m@9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire(m@9) = %v", err)
	}

	// The active version cannot be removed while siblings exist; after
	// swapping away it can.
	if err := r.Remove("m", 1); !errors.Is(err, ErrInUse) {
		t.Fatalf("Remove(active) = %v", err)
	}
	if _, err := r.Swap("m", 2); err != nil {
		t.Fatal(err)
	}
	// An acquired version cannot be removed.
	h, err := r.Acquire("m@1")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("m", 1); !errors.Is(err, ErrInUse) {
		t.Fatalf("Remove(acquired) = %v", err)
	}
	h.Release()
	if err := r.Remove("m", 1); err != nil {
		t.Fatalf("Remove after release: %v", err)
	}
	if err := r.Remove("m", 2); err != nil {
		t.Fatalf("Remove(last version): %v", err)
	}
	if len(r.List()) != 0 {
		t.Fatal("registry not empty after removals")
	}
}

// TestLoadDir covers the directory scan.
func TestLoadDir(t *testing.T) {
	dir := zooDir(t, "a@1", "b@1", "b@2")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	infos, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("LoadDir added %d artifacts", len(infos))
	}
	if _, err := r.LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestLRUNeverEvictsAcquired is the eviction contract: with MaxLoaded=2 and
// three models, starting the third evicts the idle one — never the one whose
// handle is still held, which must keep answering afterwards.
func TestLRUNeverEvictsAcquired(t *testing.T) {
	dir := zooDir(t, "a@1", "b@1", "c@1")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}, MaxLoaded: 2})
	defer r.Close()
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	ha, err := r.Acquire("a") // held for the whole test
	if err != nil {
		t.Fatal(err)
	}
	hb, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	hb.Release()
	if _, err := r.Acquire("c"); err != nil { // must evict b, not a
		t.Fatal(err)
	}

	loaded := map[string]bool{}
	for _, info := range r.List() {
		loaded[info.Name] = info.Loaded
	}
	if !loaded["a"] || loaded["b"] || !loaded["c"] {
		t.Fatalf("loaded set = %v, want a and c", loaded)
	}
	// The held handle still answers (its server was never drained).
	if _, err := ha.Server().Predict([]int{0}); err != nil {
		t.Fatalf("acquired server was evicted: %v", err)
	}
	ha.Release()
}

// TestPredictRecordsStats checks the per-model counters accumulate, carry
// accuracy, and survive a swap.
func TestPredictRecordsStats(t *testing.T) {
	dir := zooDir(t, "m@1", "m@2")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict("m", []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict("m", []int{3}); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := st.Versions["1"], st.Versions["2"]
	if v1.Requests != 1 || v1.Nodes != 3 || v1.Labelled != 3 {
		t.Fatalf("v1 stats = %+v", v1)
	}
	if v2.Requests != 1 || v2.Nodes != 1 {
		t.Fatalf("v2 stats = %+v", v2)
	}
	if st.Name != "m" || st.ActiveVersion != 2 || len(st.Versions) != 2 {
		t.Fatalf("stats header = %+v", st)
	}
	if _, err := r.Stats("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stats(ghost) = %v", err)
	}
}

// TestStatsSurviveEviction: a version's counters outlive its server. With
// MaxLoaded 1, acquiring another model evicts m@1, and the predict after it
// cold-starts a new server whose request adds to the same counters.
func TestStatsSurviveEviction(t *testing.T) {
	dir := zooDir(t, "m@1", "x@1")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}, MaxLoaded: 1})
	defer r.Close()
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict("m@1", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	for _, info := range r.List() {
		if info.Name == "m" && info.Loaded {
			t.Fatal("m@1 still loaded after x was acquired under MaxLoaded 1")
		}
	}
	if _, err := r.Predict("m@1", []int{2}); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if v1 := st.Versions["1"]; v1.Requests != 2 || v1.Nodes != 3 || v1.Labelled != 3 {
		t.Fatalf("m@1 stats across an eviction = %+v, want 2 requests / 3 nodes / 3 labelled", v1)
	}
}

// TestLatencyWindow pins the registry's reservoir: it keeps the most recent
// capacity samples, and the percentiles are the nearest-rank p50/p99 of what
// it holds (zero when empty).
func TestLatencyWindow(t *testing.T) {
	w := newLatencyWindow(4)
	if p50, p99 := latencyPercentiles(w.samples()); p50 != 0 || p99 != 0 {
		t.Fatalf("empty window percentiles = %v %v", p50, p99)
	}
	for i := 1; i <= 6; i++ {
		w.record(time.Duration(i))
	}
	got := w.samples()
	p50, p99 := latencyPercentiles(got)
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("window holds %v, want the last four samples 3..6", got)
	}
	if p50 != 5 || p99 != 6 {
		t.Fatalf("percentiles = %v %v, want 5 6", p50, p99)
	}
}

// TestRegistryClosed checks every entry point fails cleanly after Close.
func TestRegistryClosed(t *testing.T) {
	dir := zooDir(t, "m@1")
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict("m", []int{0}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.Acquire("m"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Acquire after Close = %v", err)
	}
	if _, err := r.Add("x", 1, filepath.Join(dir, "m@1.ckpt")); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Add after Close = %v", err)
	}
}
