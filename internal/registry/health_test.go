package registry

import (
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/serve"
)

// fastBreaker is a breaker configuration tests can wait out.
func fastBreaker() BreakerOptions {
	return BreakerOptions{Threshold: 2, Backoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 1}
}

// TestBreakerTripsOnLoadFailures walks the full breaker lifecycle on load
// errors: consecutive failed acquires degrade then trip the model, a tripped
// model fails fast with the typed TrippedError (Retry-After hint included),
// and once the artifact is healthy again the half-open probe closes the
// breaker.
func TestBreakerTripsOnLoadFailures(t *testing.T) {
	dir := t.TempDir()
	ck := makeCkpt(t, "SGC", 3, 100)
	path := saveCkpt(t, dir, "m@1.ckpt", ck)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}, Breaker: fastBreaker()})
	defer r.Close()
	if _, err := r.AddFile(path); err != nil {
		t.Fatal(err)
	}

	// Corrupt the artifact after registration: every load now fails.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("m"); err == nil || errors.Is(err, ErrTripped) {
		t.Fatalf("first failure must not be tripped yet: %v", err)
	}
	if got := r.List()[0].Health; got != "degraded" {
		t.Fatalf("health after 1 failure = %q, want degraded", got)
	}
	if _, err := r.Acquire("m"); err == nil {
		t.Fatal("second load must fail")
	}
	if got := r.List()[0].Health; got != "tripped" {
		t.Fatalf("health after %d failures = %q, want tripped", fastBreaker().Threshold, got)
	}

	// Tripped: the fast-fail path, typed, with a retry hint.
	_, err = r.Acquire("m")
	if !errors.Is(err, ErrTripped) {
		t.Fatalf("want ErrTripped, got %v", err)
	}
	var te *TrippedError
	if !errors.As(err, &te) {
		t.Fatalf("want *TrippedError in chain, got %v", err)
	}
	if te.RetryAfter() < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s floor", te.RetryAfter())
	}
	if info := r.List()[0]; info.RetryAt == "" || info.LastError == "" {
		t.Fatalf("tripped listing lacks retry_at/last_error: %+v", info)
	}

	// Heal the artifact, wait out the trip window: the half-open probe
	// succeeds and closes the breaker.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		h, err := r.Acquire("m")
		if err == nil {
			h.Release()
			break
		}
		if !errors.Is(err, ErrTripped) {
			t.Fatalf("probe failed with %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.List()[0].Health; got != "ok" {
		t.Fatalf("health after recovery = %q, want ok", got)
	}
}

// TestBreakerTripsOnPanics checks engine panics count toward the breaker:
// with every window panicking, consecutive predicts trip the model and the
// next predict fails fast with ErrTripped (503 at the HTTP layer).
func TestBreakerTripsOnPanics(t *testing.T) {
	dir := zooDir(t, "m@1")
	r := New(Options{
		Serve:   serve.Options{MaxBatch: 8, Seed: 1, Chaos: serve.ChaosOptions{PanicEvery: 1}},
		Breaker: fastBreaker(),
	})
	defer r.Close()
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fastBreaker().Threshold; i++ {
		if _, err := r.Predict("m", []int{0}); !errors.Is(err, serve.ErrModelPanic) {
			t.Fatalf("predict %d: want ErrModelPanic, got %v", i, err)
		}
	}
	if _, err := r.Predict("m", []int{0}); !errors.Is(err, ErrTripped) {
		t.Fatalf("want ErrTripped after %d panics, got %v", fastBreaker().Threshold, err)
	}
	if rd := r.Readiness(); rd.Ready || rd.Tripped != 1 {
		t.Fatalf("readiness with sole model tripped = %+v, want not ready", rd)
	}
}

// TestColdStartRunsNoModel: a cold start reads the artifact's logits table
// and runs no model code. Artifacts whose parameters no longer fit their
// architecture, or whose architecture's builder panics on sight, still come
// up through serve.New and through a registry acquire, and answer the stored
// table bit for bit.
func TestColdStartRunsNoModel(t *testing.T) {
	models.Registry["unbuildable"] = func(*graph.Graph, models.Config, *rand.Rand) models.Model {
		panic("unbuildable: a cold start built a model")
	}
	defer delete(models.Registry, "unbuildable")
	for name, mutate := range map[string]func(*checkpoint.Checkpoint){
		"params-do-not-fit": func(ck *checkpoint.Checkpoint) { ck.Params = ck.Params[:1] },
		"builder-panics":    func(ck *checkpoint.Checkpoint) { ck.Arch = "unbuildable" },
	} {
		ck := makeCkpt(t, "GCN", 3, 100)
		want, err := ck.Table()
		if err != nil {
			t.Fatal(err)
		}
		mutate(ck)
		path := saveCkpt(t, t.TempDir(), "m@1.ckpt", ck)
		loaded, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "params-do-not-fit" {
			if _, err := loaded.Model(1); err == nil {
				t.Fatalf("%s: the artifact still rebuilds its model", name)
			}
		}
		check := func(via string, preds []serve.Prediction) {
			t.Helper()
			for _, p := range preds {
				for j, v := range want.Row(p.Node) {
					if math.Float64bits(p.Logits[j]) != math.Float64bits(v) {
						t.Fatalf("%s via %s: node %d logit %d is %v, stored %v", name, via, p.Node, j, p.Logits[j], v)
					}
				}
			}
		}

		srv, err := serve.New(loaded, serve.Options{MaxBatch: 8})
		if err != nil {
			t.Fatalf("%s: serve.New: %v", name, err)
		}
		preds, err := srv.PredictAll()
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("serve.New", preds)

		r := New(Options{Serve: serve.Options{MaxBatch: 8}})
		if _, err := r.AddFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes := make([]int, want.Rows)
		for i := range nodes {
			nodes[i] = i
		}
		preds, err = r.Predict("m", nodes)
		if err != nil {
			t.Fatalf("%s: registry cold start: %v", name, err)
		}
		check("registry", preds)
		if info := r.List()[0]; info.Health != "ok" || !info.Loaded {
			t.Fatalf("%s: after the cold start: %+v, want ok and loaded", name, info)
		}
		r.Close()
	}
}

// TestLenientScanQuarantine pins the self-healing startup: strict LoadDir
// fails on the corrupt zoo member with the typed checkpoint cause, lenient
// LoadDir quarantines it with the right reason and serves the rest.
func TestLenientScanQuarantine(t *testing.T) {
	dir := zooDir(t, "good@1")
	if err := os.WriteFile(filepath.Join(dir, "bad@1.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	strict := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer strict.Close()
	if _, err := strict.LoadDir(dir); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("strict scan: want checkpoint.ErrCorrupt, got %v", err)
	}

	// An artifact of the retired format version 2 is corrupt too: it must
	// be re-exported, not served.
	v2, err := makeCkpt(t, "SGC", 3, 100).Encode()
	if err != nil {
		t.Fatal(err)
	}
	v2[len(checkpoint.Magic)] = 2
	if err := os.WriteFile(filepath.Join(dir, "old@1.ckpt"), v2, 0o644); err != nil {
		t.Fatal(err)
	}

	// Two more refusal classes: a bad version stem ("invalid") and a
	// dangling symlink ("unreadable").
	if err := os.WriteFile(filepath.Join(dir, "weird@x.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, "link@1.ckpt")); err != nil {
		t.Fatal(err)
	}

	lenient := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}, LenientScan: true})
	defer lenient.Close()
	infos, err := lenient.LoadDir(dir)
	if err != nil {
		t.Fatalf("lenient scan: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "good" {
		t.Fatalf("lenient scan registered %+v, want only good@1", infos)
	}
	reasons := map[string]string{}
	for _, q := range lenient.Quarantined() {
		if q.Error == "" {
			t.Fatalf("quarantine entry without error text: %+v", q)
		}
		reasons[filepath.Base(q.Path)] = q.Reason
	}
	want := map[string]string{"bad@1.ckpt": "corrupt", "old@1.ckpt": "corrupt", "weird@x.ckpt": "invalid", "link@1.ckpt": "unreadable"}
	for base, reason := range want {
		if reasons[base] != reason {
			t.Errorf("quarantine reason for %s = %q, want %q (all: %v)", base, reasons[base], reason, reasons)
		}
	}
	if preds, err := lenient.Predict("good", []int{0}); err != nil || len(preds) != 1 {
		t.Fatalf("surviving model must serve: %v", err)
	}
}

// TestLoadDirEmptyVsIOError pins the error split: a readable-but-empty
// directory is ErrNoArtifacts, a missing directory surfaces the os error and
// is NOT ErrNoArtifacts.
func TestLoadDirEmptyVsIOError(t *testing.T) {
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	if _, err := r.LoadDir(t.TempDir()); !errors.Is(err, ErrNoArtifacts) {
		t.Fatalf("empty dir: want ErrNoArtifacts, got %v", err)
	}
	_, err := r.LoadDir(filepath.Join(t.TempDir(), "nope"))
	if err == nil || errors.Is(err, ErrNoArtifacts) {
		t.Fatalf("missing dir must be an I/O error, not ErrNoArtifacts: %v", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing dir: want os.ErrNotExist in chain, got %v", err)
	}
}

// TestAddFileTypedCorrupt pins the typed-cause contract of AddFile: corrupt
// bytes are errors.Is-able as checkpoint.ErrCorrupt, a missing file is not.
func TestAddFileTypedCorrupt(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad@1.ckpt")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer r.Close()
	if _, err := r.AddFile(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupt artifact: want checkpoint.ErrCorrupt, got %v", err)
	}
	_, err := r.AddFile(filepath.Join(dir, "missing@1.ckpt"))
	if err == nil || errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("missing artifact must not read as corrupt: %v", err)
	}
}

// TestReadyzAndHealthzReadiness pins the liveness/readiness split over HTTP:
// /v1/healthz always answers 200 (liveness), /v1/readyz answers 200 only
// while something can serve and 503 with the readiness body once nothing
// can.
func TestReadyzAndHealthzReadiness(t *testing.T) {
	// An empty registry is alive but not ready.
	empty := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	tse := httptest.NewServer(empty.Handler())
	defer func() { tse.Close(); empty.Close() }()
	if status, _, body := get(t, tse.URL+"/v1/healthz"); status != 200 || body["ready"] != false {
		t.Fatalf("empty healthz = %d %v, want 200 with ready=false", status, body)
	}
	if status, _, body := get(t, tse.URL+"/v1/readyz"); status != 503 || body["ready"] != false {
		t.Fatalf("empty readyz = %d %v, want 503 with ready=false", status, body)
	}

	// A populated registry is ready, and healthz carries the summary.
	_, ts := zooServer(t, Options{})
	status, _, body := get(t, ts.URL+"/v1/readyz")
	if status != 200 || body["ready"] != true {
		t.Fatalf("readyz = %d %v, want 200 ready", status, body)
	}
	status, _, body = get(t, ts.URL+"/v1/healthz")
	if status != 200 || body["status"] != "ok" || body["ready"] != true {
		t.Fatalf("healthz = %d %v, want 200 ok+ready", status, body)
	}
	for _, key := range []string{"models", "versions", "loaded", "tripped", "quarantined"} {
		if _, ok := body[key]; !ok {
			t.Errorf("healthz missing %q: %v", key, body)
		}
	}
}

// TestTrippedModelOverHTTP pins the breaker's HTTP contract on the v1 predict
// route: the panicking predict that trips the model answers the 500 envelope,
// every predict inside the trip window the 503 envelope with Retry-After,
// and liveness stays unconditional.
func TestTrippedModelOverHTTP(t *testing.T) {
	_, ts := zooServer(t, Options{
		Serve:   serve.Options{MaxBatch: 8, Seed: 1, Chaos: serve.ChaosOptions{PanicEvery: 1}},
		Breaker: BreakerOptions{Threshold: 1, Backoff: time.Minute, Seed: 1},
	})
	status, _, body := get(t, ts.URL+"/v1/models/base/predict?node=0")
	if status != 500 {
		t.Fatalf("panicking predict status = %d, want 500: %v", status, body)
	}
	wantEnvelope(t, body, "internal")

	status, hdr, body := get(t, ts.URL+"/v1/models/base/predict?node=0")
	if status != 503 {
		t.Fatalf("tripped predict status = %d, want 503: %v", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("tripped predict missing Retry-After")
	}
	wantEnvelope(t, body, "unavailable")

	if status, _, _ := get(t, ts.URL+"/v1/healthz"); status != 200 {
		t.Fatalf("/v1/healthz liveness = %d, want 200", status)
	}
}
