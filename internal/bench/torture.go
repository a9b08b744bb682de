package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// TortureScenario is one named, seeded serving-failure scenario of the HTTP
// torture harness: a registry-backed server is driven through an overload,
// slow-model, engine-panic or corrupt-artifact regime while the harness
// enforces the resilience invariants — zero connection drops, every admitted
// request answered exactly once, every shed carrying Retry-After, every
// success bit-identical to a never-stressed reference server, and the server
// answering normally again after the storm.
type TortureScenario struct {
	// Name is the registry key ("overload", "slowmodel", "panic", "corrupt").
	Name string
	// Title is the one-line description listings print.
	Title string
	// Params holds the scenario's resolved numeric parameters (registry
	// defaults overridden by the spec that built it).
	Params map[string]float64
}

// tortureSpec is one registry entry: the blueprint a TortureScenario is
// instantiated from.
type tortureSpec struct {
	name     string
	title    string
	defaults map[string]float64
}

// tortureRegistry lists every serving-failure scenario in presentation
// order. Parameter conventions: conc concurrent clients each firing reqs
// requests of nodes nodes; the rest are per-scenario knobs.
var tortureRegistry = []tortureSpec{
	{
		name:  "overload",
		title: "request storm against a tiny pending budget: sheds carry Retry-After, survivors stay bit-identical",
		// pending is the serve.Options.MaxPending node budget.
		defaults: map[string]float64{"conc": 24, "reqs": 16, "nodes": 48, "pending": 96},
	},
	{
		name:  "slowmodel",
		title: "deterministically stalled batch windows under a request deadline: 504s, survivors bit-identical",
		// every delayEvery-th window stalls delayms; requests carry a
		// timeoutms server-side deadline.
		defaults: map[string]float64{"conc": 8, "reqs": 12, "nodes": 8, "every": 2, "delayms": 30, "timeoutms": 10},
	},
	{
		name:  "panic",
		title: "engine panics on a deterministic schedule: 500 envelopes, breaker trips, process survives",
		// every panicEvery-th window panics; threshold consecutive failures
		// trip the model's breaker for backoffms (doubling per trip).
		defaults: map[string]float64{"conc": 8, "reqs": 12, "nodes": 8, "every": 3, "threshold": 3, "backoffms": 80},
	},
	{
		name:     "corrupt",
		title:    "corrupt artifact in the zoo: lenient scan quarantines it, the fleet stays ready and serves",
		defaults: map[string]float64{"conc": 4, "reqs": 8, "nodes": 8},
	},
}

// TortureNames returns every registered torture scenario name in
// presentation order.
func TortureNames() []string {
	out := make([]string, len(tortureRegistry))
	for i, sp := range tortureRegistry {
		out[i] = sp.name
	}
	return out
}

// ParseTorture compiles a torture spec — "name" or "name:key=val,key=val",
// the grammar of scenario.ParseSpec — against the scenario registry.
// Unknown names and parameters, malformed pairs and non-finite values error.
func ParseTorture(spec string) (*TortureScenario, error) {
	var title string
	name, params, err := scenario.ParseSpec(spec, func(name string) (map[string]float64, error) {
		for _, sp := range tortureRegistry {
			if sp.name == name {
				title = sp.title
				return sp.defaults, nil
			}
		}
		return nil, fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(TortureNames(), ", "))
	})
	if err != nil {
		return nil, fmt.Errorf("bench: torture: %w", err)
	}
	return &TortureScenario{Name: name, Title: title, Params: params}, nil
}

// Spec renders the scenario back into its canonical textual spec
// (parameters sorted), so ParseTorture(sc.Spec()) round-trips.
func (sc *TortureScenario) Spec() string { return scenario.RenderSpec(sc.Name, sc.Params) }

// param reads a resolved scenario parameter as int.
func (sc *TortureScenario) param(key string) int { return int(sc.Params[key]) }

// TortureReport is the outcome accounting of one torture scenario run — the
// machine-readable half of the harness, consumed by the benchmark layer
// (shed-rate and p99-under-overload land in BENCH_smoke.json) and rendered
// as one line per scenario by the CLI experiment.
type TortureReport struct {
	// Scenario is the canonical spec of the run.
	Scenario string `json:"scenario"`
	// Requests is the number of storm requests fired; every one of them must
	// be answered exactly once.
	Requests int `json:"requests"`
	// OK counts 200 answers (each cross-checked bit-identical to the
	// reference server); Shed 503s, Deadline 504s, EnginePanic 500s, OtherErr
	// everything else.
	OK, Shed, Deadline, EnginePanic, OtherErr int
	// TransportErrors counts dropped or failed connections (must be 0).
	TransportErrors int `json:"transport_errors"`
	// MissingRetryAfter counts 503s without a Retry-After header (must be 0).
	MissingRetryAfter int `json:"missing_retry_after"`
	// Mismatches counts 200 answers that differed from the reference (must
	// be 0).
	Mismatches int `json:"mismatches"`
	// Quarantined is the number of artifacts the lenient scan refused.
	Quarantined int `json:"quarantined"`
	// PostStorm reports whether the server answered a steady-state request
	// bit-identically after the storm (breaker recovery included).
	PostStorm bool `json:"post_storm_ok"`
	// ShedRate is Shed/Requests; P99 the client-observed 99th-percentile
	// request latency across the storm.
	ShedRate float64       `json:"shed_rate"`
	P99      time.Duration `json:"p99_ns"`
}

// line renders the one-line scenario summary of the CLI experiment.
func (r *TortureReport) line() string {
	return fmt.Sprintf("%-34s %4d req: ok=%-4d shed=%-4d deadline=%-4d panic=%-3d quarantined=%d p99=%-9v post-storm=%v invariants ok",
		r.Scenario, r.Requests, r.OK, r.Shed, r.Deadline, r.EnginePanic,
		r.Quarantined, r.P99.Round(time.Microsecond), r.PostStorm)
}

// Torture regenerates the serving-resilience suite: one SGC artifact (plus a
// deliberately corrupt zoo file) is served by the registry's full HTTP stack
// on a loopback listener and driven through every registered scenario —
// overload shedding, stalled windows under deadlines, scheduled engine
// panics with circuit breaking, and a corrupt-artifact quarantine — with the
// harness's invariants enforced on every run.
func Torture(s Scale) ([]string, error) {
	dir, ck, cleanup, err := tortureArtifacts(s)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	lines := []string{
		fmt.Sprintf("Torture: registry-backed HTTP serving under %d failure scenarios (seed %d, %d-node graph)",
			len(tortureRegistry), s.Seed, ck.Graph.N),
		"invariants: no dropped connections; admitted => answered exactly once; 503s carry Retry-After;",
		"            200s bit-identical to a never-stressed server; steady-state restored post-storm",
	}
	for _, sp := range tortureRegistry {
		sc, err := ParseTorture(sp.name)
		if err != nil {
			return nil, err
		}
		rep, err := runTortureScenario(sc, s, dir, ck)
		if err != nil {
			return nil, fmt.Errorf("bench: torture: %s: %w", sp.name, err)
		}
		lines = append(lines, rep.line())
	}
	return lines, nil
}

// RunTorture runs a single scenario spec ("overload:conc=32,...") against a
// freshly built artifact zoo and returns its report; invariant violations
// surface as errors. This is the entry point the benchmark layer uses.
func RunTorture(spec string, s Scale) (*TortureReport, error) {
	sc, err := ParseTorture(spec)
	if err != nil {
		return nil, err
	}
	dir, ck, cleanup, err := tortureArtifacts(s)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return runTortureScenario(sc, s, dir, ck)
}

// tortureArtifacts trains one small SGC model, checkpoints it as m@1.ckpt
// into a temp zoo directory next to a deliberately corrupt bad@1.ckpt, and
// returns the directory, the in-memory checkpoint (for the reference server)
// and a cleanup func.
func tortureArtifacts(s Scale) (string, *checkpoint.Checkpoint, func(), error) {
	if s.Factor <= 0 {
		s.Factor = 0.3
	}
	ck, err := serveCheckpoint("SGC", s)
	if err != nil {
		return "", nil, nil, err
	}
	dir, err := os.MkdirTemp("", "adafgl-torture-*")
	if err != nil {
		return "", nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := checkpoint.Save(filepath.Join(dir, "m@1.ckpt"), ck); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "bad@1.ckpt"), []byte("definitely not a checkpoint"), 0o644); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	return dir, ck, cleanup, nil
}

// tortureOptions builds the scenario's registry configuration: lenient scan
// (the corrupt zoo member must quarantine, not abort), seeded breaker, and
// the scenario's serve-layer fault regime.
func tortureOptions(sc *TortureScenario, s Scale) registry.Options {
	opt := registry.Options{
		Serve:       serve.Options{MaxBatch: 32, MaxWait: 0, Seed: s.Seed},
		LenientScan: true,
		Breaker:     registry.BreakerOptions{Seed: s.Seed},
	}
	switch sc.Name {
	case "overload":
		opt.Serve.MaxPending = sc.param("pending")
	case "slowmodel":
		opt.Serve.RequestTimeout = time.Duration(sc.param("timeoutms")) * time.Millisecond
		opt.Serve.Chaos = serve.ChaosOptions{
			DelayEvery: sc.param("every"),
			Delay:      time.Duration(sc.param("delayms")) * time.Millisecond,
		}
	case "panic":
		opt.Serve.Chaos = serve.ChaosOptions{PanicEvery: sc.param("every")}
		opt.Breaker.Threshold = sc.param("threshold")
		opt.Breaker.Backoff = time.Duration(sc.param("backoffms")) * time.Millisecond
	}
	return opt
}

// tortureNodes is the seeded node set of request q from worker w: the same
// (seed, worker, request) triple always queries the same nodes, which is
// what lets every 200 answer be cross-checked against the reference server.
func tortureNodes(seed int64, w, q, n, k int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)*10_007 + int64(q)))
	nodes := make([]int, k)
	for i := range nodes {
		nodes[i] = rng.Intn(n)
	}
	return nodes
}

// runTortureScenario serves the zoo at dir over real loopback HTTP under the
// scenario's fault regime, fires the seeded storm, enforces the invariants
// and assembles the report.
func runTortureScenario(sc *TortureScenario, s Scale, dir string, ck *checkpoint.Checkpoint) (*TortureReport, error) {
	// Strict-scan contract, checked once per scenario run because it is
	// cheap: the corrupt zoo member must fail a strict LoadDir with the typed
	// checkpoint corruption cause.
	strict := registry.New(registry.Options{Serve: serve.Options{Seed: s.Seed}})
	if _, err := strict.LoadDir(dir); !errors.Is(err, checkpoint.ErrCorrupt) {
		strict.Close()
		return nil, fmt.Errorf("strict LoadDir: want checkpoint.ErrCorrupt, got %v", err)
	}
	strict.Close()

	reg := registry.New(tortureOptions(sc, s))
	defer reg.Close()
	infos, err := reg.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lenient LoadDir: %v", err)
	}
	if len(infos) != 1 {
		return nil, fmt.Errorf("lenient LoadDir registered %d artifacts, want 1", len(infos))
	}
	quarantined := reg.Quarantined()
	if len(quarantined) != 1 || quarantined[0].Reason != "corrupt" {
		return nil, fmt.Errorf("quarantine = %+v, want one corrupt entry", quarantined)
	}

	// The real HTTP stack: a TCP listener on a loopback ephemeral port, the
	// registry's full Handler behind an http.Server — not a stubbed
	// RoundTripper — so connection behaviour under faults is what production
	// would see.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// The never-stressed reference: a direct server on the same checkpoint
	// with no faults. Bit-identity of survivors against it is the harness's
	// strongest invariant — overload, deadlines and panics may fail requests
	// but must never change an answer.
	ref, err := serve.New(ck, serve.Options{MaxBatch: 32, MaxWait: 0, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	rep := &TortureReport{Scenario: sc.Spec(), Quarantined: len(quarantined)}
	conc, reqs, k := sc.param("conc"), sc.param("reqs"), sc.param("nodes")
	rep.Requests = conc * reqs
	client := &http.Client{Timeout: 30 * time.Second}

	var mu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < reqs; q++ {
				nodes := tortureNodes(s.Seed, w, q, ck.Graph.N, k)
				start := time.Now()
				status, retryAfter, preds, err := torturePredict(client, base, nodes)
				lat := time.Since(start)
				mu.Lock()
				lats = append(lats, lat)
				switch {
				case err != nil:
					rep.TransportErrors++
				case status == http.StatusOK:
					rep.OK++
					if cmpErr := tortureCompare(ref, nodes, preds); cmpErr != nil {
						rep.Mismatches++
					}
				case status == http.StatusServiceUnavailable:
					rep.Shed++
					if retryAfter == "" {
						rep.MissingRetryAfter++
					}
				case status == http.StatusGatewayTimeout:
					rep.Deadline++
				case status == http.StatusInternalServerError:
					rep.EnginePanic++
				default:
					rep.OtherErr++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		rep.P99 = lats[(len(lats)*99)/100]
	}
	rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)

	// Post-storm steady state: the server must answer a clean request
	// bit-identically again. Tripped breakers are honoured (sleep out the
	// advertised Retry-After) and permanently scheduled faults (the panic
	// scenario injects forever) are ridden out by bounded retry — the
	// invariant is liveness plus determinism, not fault-freedom.
	nodes := tortureNodes(s.Seed, 0, 0, ck.Graph.N, k)
	for attempt := 0; attempt < 50 && !rep.PostStorm; attempt++ {
		status, retryAfter, preds, err := torturePredict(client, base, nodes)
		switch {
		case err != nil:
			rep.TransportErrors++
		case status == http.StatusOK:
			if cmpErr := tortureCompare(ref, nodes, preds); cmpErr != nil {
				return nil, fmt.Errorf("post-storm answer diverged: %v", cmpErr)
			}
			rep.PostStorm = true
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

	answered := rep.OK + rep.Shed + rep.Deadline + rep.EnginePanic + rep.OtherErr
	switch {
	case rep.TransportErrors > 0:
		return nil, fmt.Errorf("%d dropped/failed connections (want 0); report %+v", rep.TransportErrors, rep)
	case answered != rep.Requests:
		return nil, fmt.Errorf("%d of %d requests answered (want exactly once each)", answered, rep.Requests)
	case rep.MissingRetryAfter > 0:
		return nil, fmt.Errorf("%d sheds without Retry-After (want 0)", rep.MissingRetryAfter)
	case rep.Mismatches > 0:
		return nil, fmt.Errorf("%d answers diverged from the reference server (want bit-identical)", rep.Mismatches)
	case rep.OtherErr > 0:
		return nil, fmt.Errorf("%d unexpected statuses; report %+v", rep.OtherErr, rep)
	case !rep.PostStorm:
		return nil, fmt.Errorf("server did not return to steady state after the storm; report %+v", rep)
	}
	return rep, nil
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

// tortureCompare checks one HTTP answer bit-identical against the reference
// server's answer for the same nodes.
func tortureCompare(ref *serve.Server, nodes []int, got []serve.Prediction) error {
	want, err := ref.Predict(nodes)
	if err != nil {
		return fmt.Errorf("reference predict: %w", err)
	}
	return comparePredSlices(want, got)
}
