package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/registry"
	"repro/internal/serve"
)

// loadClients is the size of the closed loop: two keep-alive HTTP clients
// that each wait for their reply before sending the next request. Two,
// because the machine has two cores and the load generator shares them with
// the server: more clients than cores would measure the generator's own
// queueing.
const loadClients = 2

// artifact is one checkpoint of a serving fixture, trained by FedAvg for
// the given number of rounds.
type artifact struct {
	name    string
	version int
	arch    string
	rounds  int
}

func (a artifact) ref() string { return registry.Ref(a.name, a.version) }

// serveWorkload is one of the three serving workloads. Requests always go
// to POST /v1/models/base/predict.
type serveWorkload struct {
	factor    float64
	clients   int // federation size the fixture is trained with
	artifacts []artifact
	// ab turns on the zoo behaviour: an A/B experiment base vs ada at 0.5,
	// at most two loaded servers, and version swaps of base under traffic.
	ab bool
}

// stockServe is the batching configuration adafgl-serve ships with.
func stockServe(seed int64) serve.Options {
	return serve.Options{MaxBatch: serve.DefaultMaxBatch, MaxWait: serve.DefaultMaxWait, Seed: seed}
}

// reference is what answers are verified against: per artifact, the row
// PredictAll gave for every node on a directly held server of the same
// checkpoint, plus the graph's labels and test mask for the served accuracy.
type reference struct {
	Rows     map[string][]serve.Prediction // by name@version, indexed by node
	Labels   []int
	TestMask []bool
}

// buildFixture trains the workload's artifacts on one shared graph, saves
// them into dir and takes each one's reference table. It is harness cost: it
// runs in a child process so that neither its time nor its memory is charged
// to the program under test, which receives only the files.
func buildFixture(w serveWorkload, seed int64, dir string) error {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		return err
	}
	g := datasets.GenerateScaled(spec, w.factor, subSeed(seed, "dataset"))
	cd := partition.CommunitySplit(g, w.clients, rand.New(rand.NewSource(subSeed(seed, "split"))))
	cfg := modelConfig()
	ref := reference{Rows: map[string][]serve.Prediction{}, Labels: g.Labels, TestMask: g.TestMask}
	for _, a := range w.artifacts {
		opt := federated.DefaultOptions()
		opt.Rounds, opt.LocalEpochs = a.rounds, localEpochs
		opt.Seed = subSeed(seed, "fixture/"+a.ref())
		clients := federated.BuildClients(cd.Subgraphs, models.Registry[a.arch], cfg, opt.Seed)
		res, err := federated.Run(clients, opt.Seed+1, opt)
		if err != nil {
			return err
		}
		ck, err := checkpoint.FromResult(res, a.arch, cfg, g)
		if err != nil {
			return err
		}
		if err := checkpoint.Save(filepath.Join(dir, a.ref()+".ckpt"), ck); err != nil {
			return err
		}
		srv, err := serve.New(ck, stockServe(seed))
		if err != nil {
			return err
		}
		ref.Rows[a.ref()], err = srv.PredictAll()
		srv.Close()
		if err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, referenceFile))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(ref); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceFile holds the gob-encoded reference next to the checkpoints; the
// registry's directory scan only picks up *.ckpt.
const referenceFile = "reference.gob"

// loadReference reads what buildFixture wrote.
func loadReference(dir string) (*reference, error) {
	f, err := os.Open(filepath.Join(dir, referenceFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ref reference
	if err := gob.NewDecoder(f).Decode(&ref); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", referenceFile, err)
	}
	return &ref, nil
}

// fixture fills dir with the workload's checkpoints and reports how long
// that took. The quick pass trains in-process (a test binary cannot re-run
// itself as the benchmark).
func fixture(w serveWorkload, c config, dir string) (time.Duration, error) {
	start := time.Now()
	if c.quick {
		err := buildFixture(w, c.seed, dir)
		return time.Since(start), err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-fixture", dir, "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	err = cmd.Run() // waits for the child to end
	return time.Since(start), err
}

// serveRun is the state of one serving workload run.
type serveRun struct {
	w   serveWorkload
	c   config
	dir string
	out *outcome

	ref   *reference
	abCfg registry.ABConfig
	cks   map[string]*checkpoint.Checkpoint // by name@version; loaded for the traced pass only

	reg     *registry.Registry
	ts      *httptest.Server
	streams [loadClients]*traffic
	active  int // active version of base; only the swapping client writes it
}

func (s *serveRun) predictURL() string { return s.ts.URL + "/v1/models/base/predict" }

// newHTTPClient returns a client that keeps exactly one connection alive.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// roundTrip sends one request and reads the whole reply; the latency runs
// from send until the body is fully read.
func roundTrip(hc *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// loadCheckpoints loads every artifact for the traced pass, which holds
// servers of its own. The end-to-end pass never does: there the checkpoints
// are only the registry's business.
func (s *serveRun) loadCheckpoints() error {
	s.cks = map[string]*checkpoint.Checkpoint{}
	for _, a := range s.w.artifacts {
		ck, err := checkpoint.Load(filepath.Join(s.dir, a.ref()+".ckpt"))
		if err != nil {
			return err
		}
		s.cks[a.ref()] = ck
	}
	return nil
}

func samePrediction(a, b serve.Prediction) bool {
	return a.Node == b.Node && a.Class == b.Class && sameBits(a.Logits, b.Logits)
}

// check verifies one answer against the reference tables, bit for bit. With
// the A/B experiment on, a node registry.ABRoute sends to the candidate must
// carry ada@1's row; every other node must carry the row of one version of
// base, the same version throughout the request (a swap may land between
// two requests, never inside one).
func (s *serveRun) check(nodes []int, preds []serve.Prediction) error {
	if len(preds) != len(nodes) {
		return fmt.Errorf("%d predictions for %d nodes", len(preds), len(nodes))
	}
	control := ""
	for i, p := range preds {
		if p.Node != nodes[i] {
			return fmt.Errorf("position %d answers node %d, asked %d", i, p.Node, nodes[i])
		}
		if s.w.ab && registry.ABRoute(s.abCfg, p.Node) {
			if !samePrediction(p, s.ref.Rows["ada@1"][p.Node]) {
				return fmt.Errorf("node %d: candidate arm differs from ada@1", p.Node)
			}
			continue
		}
		matched := ""
		for _, a := range s.w.artifacts {
			if a.name == "base" && (control == "" || control == a.ref()) && samePrediction(p, s.ref.Rows[a.ref()][p.Node]) {
				matched = a.ref()
				break
			}
		}
		if matched == "" {
			return fmt.Errorf("node %d: answer matches no version of base (request so far on %q)", p.Node, control)
		}
		control = matched
	}
	return nil
}

// checkBody decodes a predict reply, verifies it and returns its rows.
func (s *serveRun) checkBody(status int, body []byte, nodes []int) ([]serve.Prediction, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", status, body)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Predictions, s.check(nodes, resp.Predictions)
}

// setup is the program's own set-up, as a user starting the server pays it:
// create the registry, scan the directory, cold-start the model (checkpoint
// load, model rebuild, plan or embedding precompute) and answer a first
// request over HTTP.
func (s *serveRun) setup(rec *recorder, id int) (time.Duration, error) {
	start := time.Now()
	opt := registry.Options{Serve: stockServe(s.c.seed)}
	if s.w.ab {
		opt.MaxLoaded = 2
	}
	s.reg = registry.New(opt)
	var err error
	rec.timed("registry.loaddir", -1, id, func() { _, err = s.reg.LoadDir(s.dir) })
	if err != nil {
		return 0, err
	}
	rec.timed("registry.cold_start", -1, id, func() {
		var h *registry.Handle
		if h, err = s.reg.Acquire("base"); err == nil {
			h.Release()
		}
	})
	if err != nil {
		return 0, err
	}
	if s.w.ab {
		if err := s.reg.ConfigureAB(s.abCfg); err != nil {
			return 0, err
		}
	}
	s.active = 1
	s.ts = httptest.NewServer(s.reg.Handler())
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	nodes := newTraffic(s.c.seed, -1, s.nodes()).sized(16)
	status, body, _, err := roundTrip(hc, http.MethodPost, s.predictURL(), predictBody(nodes))
	took := time.Since(start)
	if err == nil {
		_, err = s.checkBody(status, body, nodes)
	}
	return took, err
}

func (s *serveRun) teardown() {
	if s.ts != nil {
		s.ts.Close()
		s.reg.Close()
		s.ts = nil
	}
}

func (s *serveRun) nodes() int { return len(s.ref.Labels) }

// servedAccuracy asks for every node over HTTP, verifies the answer and
// scores it on the test mask: the served model's test accuracy.
func (s *serveRun) servedAccuracy(hc *http.Client) (float64, error) {
	status, body, _, err := roundTrip(hc, http.MethodPost, s.predictURL()+"/all", nil)
	if err != nil {
		return 0, err
	}
	all := make([]int, s.nodes())
	for i := range all {
		all[i] = i
	}
	preds, err := s.checkBody(status, body, all)
	if err != nil {
		return 0, err
	}
	right, total := 0, 0
	for _, p := range preds {
		if s.ref.TestMask[p.Node] {
			total++
			if p.Class == s.ref.Labels[p.Node] {
				right++
			}
		}
	}
	return float64(right) / float64(total), nil
}

// latency is one answered predict request as the client saw it.
type latency struct {
	ms   float64
	size int
}

// loadResult is what one client, or all of them, observed in a phase.
type loadResult struct {
	answered  []latency // correctly answered predicts
	swapsMS   []float64
	attempted int
	failures  []string
}

func (l *loadResult) merge(o loadResult) {
	l.answered = append(l.answered, o.answered...)
	l.swapsMS = append(l.swapsMS, o.swapsMS...)
	l.attempted += o.attempted
	l.failures = append(l.failures, o.failures...)
}

// swap flips base to its other version over HTTP.
func (s *serveRun) swap(hc *http.Client, res *loadResult) {
	to := 3 - s.active
	status, body, took, err := roundTrip(hc, http.MethodPost, s.ts.URL+"/v1/models/base/swap",
		[]byte(`{"version":`+strconv.Itoa(to)+`}`))
	res.attempted++
	if err != nil || status != http.StatusOK {
		res.failures = append(res.failures, fmt.Sprintf("swap to base@%d: status %d err %v: %.120s", to, status, err, body))
		return
	}
	s.active = to
	res.swapsMS = append(res.swapsMS, 1e3*took.Seconds())
}

// client is one closed-loop caller: it sends its stream's next request only
// once the previous one is answered and verified. Client 0 of the zoo
// workload sends a version swap in place of its next predict whenever
// swapEvery has passed.
func (s *serveRun) client(id int, dur time.Duration, swaps bool) loadResult {
	var res loadResult
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	start := time.Now()
	nextSwap := s.c.sizes.swapEvery
	for time.Since(start) < dur {
		if swaps && id == 0 && time.Since(start) >= nextSwap {
			s.swap(hc, &res)
			nextSwap += s.c.sizes.swapEvery
			continue
		}
		nodes := s.streams[id].next()
		status, body, took, err := roundTrip(hc, http.MethodPost, s.predictURL(), predictBody(nodes))
		res.attempted++
		if err == nil {
			_, err = s.checkBody(status, body, nodes)
		}
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("client %d: %v", id, err))
			continue
		}
		res.answered = append(res.answered, latency{1e3 * took.Seconds(), len(nodes)})
	}
	return res
}

// phase runs the closed loop for dur and returns what the clients saw and
// how long the phase really lasted.
func (s *serveRun) phase(dur time.Duration, swaps bool) (loadResult, time.Duration) {
	var per [loadClients]loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for id := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[id] = s.client(id, dur, swaps)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all loadResult
	for _, r := range per {
		all.merge(r)
	}
	return all, elapsed
}

// scrapeHTTP reads GET /v1/metrics and reports how long the scrape took.
func (s *serveRun) scrapeHTTP(hc *http.Client) (scrape, time.Duration) {
	status, body, took, err := roundTrip(hc, http.MethodGet, s.ts.URL+"/v1/metrics", nil)
	if err != nil || status != http.StatusOK {
		s.out.fail("scrape /v1/metrics: status %d err %v", status, err)
		return scrape{}, took
	}
	return parseProm(body), took
}

// runServe runs a serving workload: fixture, repeated set-up, verification
// of the full graph, warm-up, the timed closed loop with tracing off, and,
// when asked, the traced serial pass.
func runServe(w serveWorkload, c config) (*outcome, error) {
	if loadClients > runtime.NumCPU() {
		return nil, fmt.Errorf("benchmark: %d load-generator clients on %d CPUs would measure the generator's own queueing; refusing", loadClients, runtime.NumCPU())
	}
	out := newOutcome()
	dir := filepath.Join(c.outDir, "fixture-"+c.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fixtureTook, err := fixture(w, c, dir)
	if err != nil {
		return nil, fmt.Errorf("benchmark: fixture: %w", err)
	}
	s := &serveRun{w: w, c: c, dir: dir, out: out}
	s.abCfg = registry.ABConfig{Control: "base", Candidate: "ada", Fraction: 0.5, Salt: uint64(subSeed(c.seed, "ab"))}
	if s.ref, err = loadReference(dir); err != nil {
		return nil, err
	}
	if c.trace >= 1 {
		out.rec = newRecorder()
	}

	// The first set-up is the one the run serves from. The repeats that give
	// setup_s its median come last, so that their garbage — fourteen more
	// checkpoint loads — is not in the peak memory of serving.
	first, err := s.setup(out.rec, 0)
	defer s.teardown()
	if err != nil {
		return nil, fmt.Errorf("benchmark: set-up: %w", err)
	}
	for id := range s.streams {
		s.streams[id] = newTraffic(c.seed, id, s.nodes())
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	out.attempted++
	acc, err := s.servedAccuracy(hc)
	if err != nil {
		out.fail("predict/all: %v", err)
	}

	s.phase(c.sizes.warmup, false) // discarded
	before, _ := s.scrapeHTTP(hc)
	load, elapsed := s.phase(time.Duration(c.timedSeconds()*float64(time.Second)), w.ab)
	after, _ := s.scrapeHTTP(hc)
	peak := peakRSSMB()
	out.attempted += load.attempted
	for _, f := range load.failures {
		out.fail("%s", f)
	}
	if len(load.answered) == 0 {
		return out, fmt.Errorf("benchmark: no request was answered correctly")
	}
	var all []float64
	bySize := map[int][]float64{}
	for _, l := range load.answered {
		all = append(all, l.ms)
		bySize[l.size] = append(bySize[l.size], l.ms)
	}
	asc := sorted(all)

	if c.trace >= 1 {
		out.layer.put("bench.fixture_s", fixtureTook.Seconds(), 1)
		out.layer.put("bench.lat_p99_ms", nearestRank(asc, 99), len(asc))
		for _, r := range requestSizes {
			out.putMedian("bench.lat_p50_ms_n"+strconv.Itoa(r.nodes), 1, bySize[r.nodes])
		}
		s.countLayers(before, after, load)
		if err := s.loadCheckpoints(); err != nil {
			return nil, err
		}
		if err := s.traced(hc); err != nil {
			return nil, err
		}
		s.fileLayers(hc)
		ck := s.cks["base@1"]
		model, err := ck.Model(c.seed)
		if err != nil {
			return nil, err
		}
		kernelLayersAt(out, kernelShapes{g: ck.Graph, model: model}, c)
	}

	setups := []float64{first.Seconds()}
	for i := 1; i < c.sizes.setupRepeats; i++ {
		s.teardown()
		took, err := s.setup(out.rec, i)
		if err != nil {
			return nil, fmt.Errorf("benchmark: set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
	}
	if c.trace >= 1 {
		out.putSpanMedian("registry.loaddir_ms", "registry.loaddir", 1e3)
		out.putSpanMedian("registry.cold_start_ms", "registry.cold_start", 1e3)
	}

	out.putLatency(asc)
	out.e2e.put("setup_s", median(setups), len(setups))
	out.e2e.put("rps", float64(len(all))/elapsed.Seconds(), len(all))
	out.e2e.put("test_acc", acc, 0)
	out.e2e.put("peak_rss_mb", peak, 0)
	return out, nil
}

// countLayers turns the scrape deltas over the timed phase into the count
// metrics. The serve families are labelled by architecture and process-wide;
// only the registry's servers ran between the two scrapes.
func (s *serveRun) countLayers(before, after scrape, load loadResult) {
	put := func(name, family, label string) float64 {
		d := delta(before, after, family, label)
		s.out.layer.put(name, d, 0)
		return d
	}
	put("serve.requests", "adafgl_serve_requests_total", "")
	nodes := put("serve.nodes", "adafgl_serve_nodes_total", "")
	windows := put("serve.windows", "adafgl_serve_batches_total", "")
	if windows > 0 {
		s.out.layer.put("serve.mean_batch", nodes/windows, int(windows))
	}
	put("serve.shed", "adafgl_serve_shed_total", "")
	put("serve.deadline", "adafgl_serve_deadline_total", "")
	put("registry.cold_starts", "adafgl_registry_cold_starts_total", "")
	put("registry.evictions", "adafgl_registry_evictions_total", "")
	put("registry.swaps", "adafgl_registry_swaps_total", "")
	put("registry.ab_nodes_control", "adafgl_registry_ab_nodes_total", `arm="control"`)
	put("registry.ab_nodes_candidate", "adafgl_registry_ab_nodes_total", `arm="candidate"`)
	put("parallel.pool_tasks", "adafgl_parallel_pool_tasks_total", "")
	put("parallel.inline_tasks", "adafgl_parallel_inline_tasks_total", "")
	s.out.layer.put("parallel.workers", after.family("adafgl_parallel_workers", ""), 0)
	s.out.putMedian("registry.swap_ms", 1, load.swapsMS)
}

// arm is the part of a request one model answers.
type arm struct {
	model string // name to acquire: the active version answers
	table string // name@version of the reference and engine server
	nodes []int
}

// arms splits a request the way the registry routes it.
func (s *serveRun) arms(nodes []int) []arm {
	base := arm{model: "base", table: registry.Ref("base", s.active)}
	if !s.w.ab {
		base.nodes = nodes
		return []arm{base}
	}
	cand := arm{model: "ada", table: "ada@1"}
	for _, n := range nodes {
		if registry.ABRoute(s.abCfg, n) {
			cand.nodes = append(cand.nodes, n)
		} else {
			base.nodes = append(base.nodes, n)
		}
	}
	var out []arm
	for _, a := range []arm{base, cand} {
		if len(a.nodes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// traced is the serial traced pass: one client replays the first requests
// of client 0's stream (as many as fit the time budget) and, for each, calls
// every layer's public entry point
// for the same request — the HTTP route, Registry.Predict, the stock
// server's Predict, an unbatched engine server's Predict, the body decoder
// and the reply encoder. Each layer's span names the layer above it as its
// parent, so self times fall out by subtraction.
func (s *serveRun) traced(hc *http.Client) error {
	rec, sz := s.out.rec, s.c.sizes
	engines := map[string]*serve.Server{}
	for ref, ck := range s.cks {
		srv, err := serve.New(ck, serve.Options{MaxBatch: 1, MaxWait: 0, Seed: s.c.seed})
		if err != nil {
			return err
		}
		defer srv.Close()
		engines[ref] = srv
	}
	// checked counts one traced call into a layer and whether it answered
	// correctly.
	checked := func(i int, layer string, err error) {
		s.out.attempted++
		if err != nil {
			s.out.fail("traced request %d: %s: %v", i, layer, err)
		}
	}
	stream := newTraffic(s.c.seed, 0, s.nodes())
	var swaps loadResult
	start := time.Now()
	done := 0
	for i := 0; i < sz.tracedRequests && time.Since(start) < sz.traceBudget; i++ {
		done++
		if s.w.ab && i > 0 && i%sz.swapEveryTraced == 0 {
			rec.timed("registry.swap", -1, i, func() { s.swap(hc, &swaps) })
		}
		nodes := stream.next()
		body := predictBody(nodes)

		root := rec.begin("http.request", -1, i)
		status, reply, _, err := roundTrip(hc, http.MethodPost, s.predictURL(), body)
		rec.end(root)
		if err == nil {
			_, err = s.checkBody(status, reply, nodes)
		}
		checked(i, "http", err)

		routed := rec.begin("registry.predict", root, i)
		preds, err := s.reg.Predict("base", nodes)
		rec.end(routed)
		if err == nil {
			err = s.check(nodes, preds)
		}
		checked(i, "Registry.Predict", err)

		arms := s.arms(nodes)
		handles := make([]*registry.Handle, len(arms))
		rec.timed("registry.acquire", -1, i, func() {
			for k, a := range arms {
				if handles[k], err = s.reg.Acquire(a.model); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		served := rec.begin("serve.predict", routed, i)
		for k, a := range arms {
			if _, perr := handles[k].Server().Predict(a.nodes); perr != nil {
				err = perr
			}
		}
		rec.end(served)
		for _, h := range handles {
			h.Release()
		}
		checked(i, "Server.Predict", err)

		err = nil
		engine := rec.begin("serve.engine", served, i)
		for _, a := range arms {
			if _, perr := engines[a.table].Predict(a.nodes); perr != nil {
				err = perr
			}
		}
		rec.end(engine)
		checked(i, "unbatched Server.Predict", err)

		req := httptest.NewRequest(http.MethodPost, "/v1/models/base/predict", bytes.NewReader(body))
		rec.timed("serve.decode", -1, i, func() { _, err = serve.DecodePredictBody(httptest.NewRecorder(), req) })
		checked(i, "DecodePredictBody", err)
		w := httptest.NewRecorder()
		rec.timed("serve.encode", -1, i, func() { serve.WriteJSON(w, http.StatusOK, serve.PredictResponse{Predictions: preds}) })
		if i%10 == 0 {
			rec.timed("http.transport", -1, i, func() { roundTrip(hc, http.MethodGet, s.ts.URL+"/v1/healthz", nil) })
		}
	}
	for _, f := range swaps.failures {
		s.out.fail("%s", f)
	}

	ms := func(name string) float64 { return 1e3 * median(rec.durations(name)) }
	out := s.out
	whole := ms("http.request")
	out.layer.put("http.request_ms", whole, done)
	out.layer.put("http.self_ms", 1e3*median(rec.selfByName("http.request")), done)
	out.layer.put("http.transport_ms", ms("http.transport"), len(rec.durations("http.transport")))
	out.layer.put("registry.predict_ms", ms("registry.predict"), done)
	out.layer.put("registry.route_self_ms", 1e3*median(rec.selfByName("registry.predict")), done)
	out.layer.put("registry.acquire_us", 1e3*ms("registry.acquire"), done)
	out.layer.put("serve.predict_ms", ms("serve.predict"), done)
	out.layer.put("serve.window_wait_ms", 1e3*median(rec.selfByName("serve.predict")), done)
	out.layer.put("serve.engine_ms", ms("serve.engine"), done)
	out.layer.put("serve.decode_us", 1e3*ms("serve.decode"), done)
	out.layer.put("serve.encode_us", 1e3*ms("serve.encode"), done)
	parts := ms("http.transport") + ms("serve.decode") + ms("registry.predict") + ms("serve.encode")
	out.layer.put("trace.sum_error_share", math.Abs(parts-whole)/whole, done)
	return nil
}

// fileLayers times the checkpoint and server-construction layers on the
// base@1 artifact, and a metrics scrape.
func (s *serveRun) fileLayers(hc *http.Client) {
	out, budget := s.out, s.c.sizes.kernelBudget
	path := filepath.Join(s.dir, "base@1.ckpt")
	copyPath := filepath.Join(s.dir, "copy.tmp")
	ck := s.cks["base@1"]
	out.putMedian("checkpoint.save_s", 1, repeat(3, budget, func() {
		if err := checkpoint.Save(copyPath, ck); err != nil {
			out.fail("checkpoint.Save: %v", err)
		}
	}))
	os.Remove(copyPath)
	if st, err := os.Stat(path); err == nil {
		out.layer.put("checkpoint.bytes", float64(st.Size()), 0)
	}
	out.putMedian("checkpoint.peek_ms", 1e3, repeat(10, budget, func() {
		if _, err := checkpoint.Peek(path); err != nil {
			out.fail("checkpoint.Peek: %v", err)
		}
	}))
	// serve.New on a freshly loaded checkpoint each time: a reused one
	// would carry the propagation plan the first construction cached.
	var loads, news, alls []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		fresh, err := checkpoint.Load(path)
		loads = append(loads, time.Since(start).Seconds())
		if err != nil {
			out.fail("checkpoint.Load: %v", err)
			return
		}
		start = time.Now()
		srv, err := serve.New(fresh, stockServe(s.c.seed))
		news = append(news, time.Since(start).Seconds())
		if err != nil {
			out.fail("serve.New: %v", err)
			return
		}
		start = time.Now()
		_, err = srv.PredictAll()
		alls = append(alls, time.Since(start).Seconds())
		srv.Close()
		if err != nil {
			out.fail("PredictAll: %v", err)
		}
	}
	out.putMedian("checkpoint.load_s", 1, loads)
	out.putMedian("serve.new_s", 1, news)
	out.putMedian("serve.predict_all_ms", 1e3, alls)
	out.putMedian("telemetry.scrape_ms", 1e3, repeat(10, budget, func() { s.scrapeHTTP(hc) }))
}
