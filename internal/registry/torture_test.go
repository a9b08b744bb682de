package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/serve"
)

// tortureScenario is one seeded serving-failure regime of the HTTP torture
// harness: conc clients each fire reqs requests of nodes nodes at the
// registry's full HTTP stack on a loopback listener, the registry configured
// with the scenario's serve-layer fault regime (faults: pending budget,
// deadline, chaos schedule) and circuit breaker.
type tortureScenario struct {
	name              string
	conc, reqs, nodes int
	faults            serve.Options
	breaker           BreakerOptions
}

// tortureScenarios lists every regime in presentation order. Every zoo also
// holds a corrupt artifact the lenient scan must quarantine.
//   - overload: a request storm against a 96-node pending budget; sheds
//     carry Retry-After, survivors stay bit-identical.
//   - slowmodel: every second window stalls 30 ms under a 10 ms request
//     deadline; 504s, survivors bit-identical.
//   - panic: every third window panics; 500 envelopes, three consecutive
//     failures trip the breaker for 80 ms (doubling per trip), the process
//     survives.
//   - corrupt: no fault beyond the quarantined artifact; the fleet stays
//     ready and serves.
var tortureScenarios = []tortureScenario{
	{name: "overload", conc: 24, reqs: 16, nodes: 48, faults: serve.Options{MaxPending: 96}},
	{name: "slowmodel", conc: 8, reqs: 12, nodes: 8, faults: serve.Options{
		RequestTimeout: 10 * time.Millisecond,
		Chaos:          serve.ChaosOptions{DelayEvery: 2, Delay: 30 * time.Millisecond},
	}},
	{name: "panic", conc: 8, reqs: 12, nodes: 8, faults: serve.Options{Chaos: serve.ChaosOptions{PanicEvery: 3}},
		breaker: BreakerOptions{Threshold: 3, Backoff: 80 * time.Millisecond}},
	{name: "corrupt", conc: 4, reqs: 8, nodes: 8},
}

// tortureReport is the outcome accounting of one scenario run.
type tortureReport struct {
	// requests is the number of storm requests fired; every one of them must
	// be answered exactly once.
	requests int
	// ok counts 200 answers (each cross-checked bit-identical to the
	// reference server); shed 503s, deadline 504s, enginePanic 500s,
	// otherErr everything else.
	ok, shed, deadline, enginePanic, otherErr int
	// transportErrors counts dropped or failed connections.
	transportErrors int
	// missingRetryAfter counts 503s without a Retry-After header.
	missingRetryAfter int
	// mismatches counts 200 answers that differed from the reference.
	mismatches int
	// p99 is the client-observed 99th-percentile request latency.
	p99 time.Duration
}

// tortureZoo checkpoints one SGC model as m@1.ckpt into a temp directory next
// to a deliberately corrupt bad@1.ckpt, and returns the directory with the
// never-stressed reference answer for every node: a direct server on the same
// checkpoint with no faults.
func tortureZoo(tb testing.TB) (string, []serve.Prediction) {
	tb.Helper()
	dir := tb.TempDir()
	ck := makeCkpt(tb, "SGC", 3, 100)
	saveCkpt(tb, dir, "m@1.ckpt", ck)
	if err := os.WriteFile(filepath.Join(dir, "bad@1.ckpt"), []byte("definitely not a checkpoint"), 0o644); err != nil {
		tb.Fatal(err)
	}
	ref, err := serve.New(ck, serve.Options{MaxBatch: 32, MaxWait: 0, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	defer ref.Close()
	nodes := make([]int, ck.Graph.N)
	for i := range nodes {
		nodes[i] = i
	}
	preds, err := ref.Predict(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	return dir, preds
}

// TestTorture drives the registry-backed HTTP server through every torture
// scenario and enforces the resilience invariants on each: zero dropped
// connections, every request answered exactly once, every shed carrying
// Retry-After, every success bit-identical to the never-stressed reference,
// and the server answering normally again after the storm. How much sheds,
// stalls or panics depends on machine timing, so the outcome accounting is
// what is pinned, not the counts.
func TestTorture(t *testing.T) {
	dir, ref := tortureZoo(t)

	// Strict-scan contract: the corrupt zoo member fails a strict LoadDir
	// with the typed checkpoint corruption cause.
	strict := New(Options{Serve: serve.Options{Seed: 1}})
	_, err := strict.LoadDir(dir)
	strict.Close()
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("strict LoadDir: want checkpoint.ErrCorrupt, got %v", err)
	}

	for _, sc := range tortureScenarios {
		t.Run(sc.name, func(t *testing.T) {
			rep := runTorture(t, sc, dir, ref)
			if sc.name == "overload" && rep.ok+rep.shed != rep.requests {
				t.Errorf("overload answered with statuses other than 200 and 503: %+v", rep)
			}
			t.Logf("%4d req: ok=%-4d shed=%-4d deadline=%-4d panic=%-3d p99=%v",
				rep.requests, rep.ok, rep.shed, rep.deadline, rep.enginePanic, rep.p99.Round(time.Microsecond))
		})
	}
}

// BenchmarkTortureOverload is the smoke-bench probe of serving resilience:
// one seeded overload storm per iteration, reporting the shed rate and the
// client-observed p99 under overload as extra metrics.
func BenchmarkTortureOverload(b *testing.B) {
	dir, ref := tortureZoo(b)
	for i := 0; i < b.N; i++ {
		rep := runTorture(b, tortureScenarios[0], dir, ref)
		b.ReportMetric(float64(rep.shed)/float64(rep.requests), "shed-rate")
		b.ReportMetric(float64(rep.p99.Nanoseconds()), "p99-ns")
	}
}

// runTorture serves the zoo at dir over loopback HTTP under the scenario's
// fault regime, fires the seeded storm, rides out the faults until a clean
// request answers again, and fails tb on any broken invariant.
func runTorture(tb testing.TB, sc tortureScenario, dir string, ref []serve.Prediction) tortureReport {
	tb.Helper()
	opt := Options{Serve: sc.faults, LenientScan: true, Breaker: sc.breaker}
	opt.Serve.MaxBatch, opt.Serve.MaxWait, opt.Serve.Seed = 32, 0, 1
	opt.Breaker.Seed = 1
	r := New(opt)
	defer r.Close()
	infos, err := r.LoadDir(dir)
	if err != nil {
		tb.Fatalf("lenient LoadDir: %v", err)
	}
	if len(infos) != 1 {
		tb.Fatalf("lenient LoadDir registered %d artifacts, want 1", len(infos))
	}
	if q := r.Quarantined(); len(q) != 1 || q[0].Reason != "corrupt" {
		tb.Fatalf("quarantine = %+v, want one corrupt entry", q)
	}
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	same := func(nodes []int, preds []serve.Prediction) bool {
		if len(preds) != len(nodes) {
			return false
		}
		for i, v := range nodes {
			if !samePred(preds[i], ref[v]) {
				return false
			}
		}
		return true
	}

	rep := tortureReport{requests: sc.conc * sc.reqs}
	var mu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < sc.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < sc.reqs; q++ {
				nodes := tortureNodes(w, q, len(ref), sc.nodes)
				start := time.Now()
				status, retryAfter, preds, err := torturePredict(client, ts.URL, nodes)
				lat := time.Since(start)
				mu.Lock()
				lats = append(lats, lat)
				switch {
				case err != nil:
					rep.transportErrors++
				case status == http.StatusOK:
					rep.ok++
					if !same(nodes, preds) {
						rep.mismatches++
					}
				case status == http.StatusServiceUnavailable:
					rep.shed++
					if retryAfter == "" {
						rep.missingRetryAfter++
					}
				case status == http.StatusGatewayTimeout:
					rep.deadline++
				case status == http.StatusInternalServerError:
					rep.enginePanic++
				default:
					rep.otherErr++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.p99 = lats[(len(lats)*99)/100]

	// Post-storm steady state: the server must answer a clean request
	// bit-identically again. Tripped breakers are honoured (sleep out the
	// advertised Retry-After) and permanently scheduled faults (the panic
	// scenario injects forever) are ridden out by bounded retry — the
	// invariant is liveness plus determinism, not fault-freedom.
	nodes := tortureNodes(0, 0, len(ref), sc.nodes)
	postStorm := false
	for attempt := 0; attempt < 50 && !postStorm; attempt++ {
		status, retryAfter, preds, err := torturePredict(client, ts.URL, nodes)
		switch {
		case err != nil:
			rep.transportErrors++
		case status == http.StatusOK:
			if !same(nodes, preds) {
				tb.Fatalf("post-storm answer diverged from the reference: %+v", preds)
			}
			postStorm = true
		case status == http.StatusServiceUnavailable:
			d := 20 * time.Millisecond
			if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 1 {
				d = 100 * time.Millisecond
			}
			time.Sleep(d)
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}

	answered := rep.ok + rep.shed + rep.deadline + rep.enginePanic + rep.otherErr
	switch {
	case rep.transportErrors > 0:
		tb.Fatalf("%d dropped/failed connections (want 0); report %+v", rep.transportErrors, rep)
	case answered != rep.requests:
		tb.Fatalf("%d of %d requests answered (want exactly once each)", answered, rep.requests)
	case rep.missingRetryAfter > 0:
		tb.Fatalf("%d sheds without Retry-After (want 0)", rep.missingRetryAfter)
	case rep.mismatches > 0:
		tb.Fatalf("%d answers diverged from the reference server (want bit-identical)", rep.mismatches)
	case rep.otherErr > 0:
		tb.Fatalf("%d unexpected statuses; report %+v", rep.otherErr, rep)
	case !postStorm:
		tb.Fatalf("server did not return to steady state after the storm; report %+v", rep)
	}
	return rep
}

// tortureNodes is the seeded node set of request q from worker w: the same
// (worker, request) pair always queries the same nodes.
func tortureNodes(w, q, n, k int) []int {
	rng := rand.New(rand.NewSource(1_000_003 + int64(w)*10_007 + int64(q)))
	nodes := make([]int, k)
	for i := range nodes {
		nodes[i] = rng.Intn(n)
	}
	return nodes
}

// torturePredict fires one POST predict against the v1 API and decodes the
// outcome; err is non-nil only for transport-level failures (the dropped
// connections the harness forbids).
func torturePredict(client *http.Client, base string, nodes []int) (status int, retryAfter string, preds []serve.Prediction, err error) {
	body, _ := json.Marshal(serve.PredictRequest{Nodes: nodes})
	resp, err := client.Post(base+"/v1/models/m/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var pr serve.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return 0, "", nil, fmt.Errorf("truncated 200 body: %w", err)
		}
		return resp.StatusCode, "", pr.Predictions, nil
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil, nil
}
