package registry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// zooServer stands up the HTTP surface over a fresh two-model registry.
func zooServer(t *testing.T, opt Options) (*Registry, *httptest.Server) {
	t.Helper()
	dir := zooDir(t, "base@1", "ada@1")
	if opt.Serve.MaxBatch == 0 {
		opt.Serve = serve.Options{MaxBatch: 8, Seed: 1}
	}
	r := New(opt)
	if _, err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

// get fetches a URL and returns status, headers and decoded-to-map body.
func get(t *testing.T, url string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: non-JSON body %q", url, body)
		}
	}
	return resp.StatusCode, resp.Header, m
}

// postJSON posts a JSON value and returns status and decoded body.
func postJSON(t *testing.T, url string, v any) (int, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(body) > 0 {
		json.Unmarshal(body, &m)
	}
	return resp.StatusCode, m
}

// wantEnvelope asserts a decoded body is the structured error envelope with
// the expected code.
func wantEnvelope(t *testing.T, m map[string]any, code string) {
	t.Helper()
	e, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", m)
	}
	if e["code"] != code {
		t.Fatalf("envelope code = %v, want %s (envelope %v)", e["code"], code, e)
	}
	if e["op"] == "" || e["msg"] == "" {
		t.Fatalf("envelope missing op/msg: %v", e)
	}
}

// TestV1Routes walks the happy paths of the versioned API.
func TestV1Routes(t *testing.T) {
	r, ts := zooServer(t, Options{})

	// Fleet list with peeked metadata.
	status, _, m := get(t, ts.URL+"/v1/models")
	if status != 200 {
		t.Fatalf("/v1/models status %d", status)
	}
	models, _ := m["models"].([]any)
	if len(models) != 2 {
		t.Fatalf("listed %d models", len(models))
	}
	first, _ := models[0].(map[string]any)
	if first["name"] != "ada" || first["arch"] != "SGC" || first["active"] != true {
		t.Fatalf("first listed model = %v", first)
	}

	// Single-node predict, by name and by pinned version.
	for _, ref := range []string{"base", "base@1"} {
		status, _, m = get(t, ts.URL+"/v1/models/"+ref+"/predict?node=0")
		if status != 200 {
			t.Fatalf("predict %s status %d: %v", ref, status, m)
		}
		if preds, _ := m["predictions"].([]any); len(preds) != 1 {
			t.Fatalf("predict %s returned %v", ref, m)
		}
	}

	// GET node-set and POST body predict answer the Go API's bits: logits
	// survive the JSON round trip exactly.
	preds, err := r.Predict("base", []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(serve.PredictResponse{Predictions: preds})
	var want map[string]any
	json.Unmarshal(b, &want)
	_, _, viaGet := get(t, ts.URL+"/v1/models/base/predict?nodes=1,5")
	_, viaPost := postJSON(t, ts.URL+"/v1/models/base/predict", serve.PredictRequest{Nodes: []int{1, 5}})
	if !reflect.DeepEqual(viaGet, want) || !reflect.DeepEqual(viaPost, want) {
		t.Fatalf("predictions drifted over HTTP:\n GET  %v\n POST %v\n want %v", viaGet, viaPost, want)
	}

	// The full-graph warm path, by route and by {"all":true} body.
	zooNodes := r.List()[1].Nodes // "base" sorts after "ada"
	status, _, m = get(t, ts.URL+"/v1/models/base/predict/all")
	if preds, _ := m["predictions"].([]any); status != 200 || len(preds) != zooNodes {
		t.Fatalf("predict/all: status %d, %d of %d nodes", status, len(preds), zooNodes)
	}
	status, m = postJSON(t, ts.URL+"/v1/models/base/predict", serve.PredictRequest{All: true})
	if preds, _ := m["predictions"].([]any); status != 200 || len(preds) != zooNodes {
		t.Fatalf(`POST {"all":true}: status %d, %d of %d nodes`, status, len(preds), zooNodes)
	}

	// Per-model stats carry per-version counters.
	status, _, m = get(t, ts.URL+"/v1/models/base/stats")
	if status != 200 {
		t.Fatalf("stats status %d", status)
	}
	if len(m) != 3 || m["name"] != "base" || m["active_version"] != float64(1) {
		t.Fatalf("stats payload %v, want name, active_version and versions", m)
	}
	versions, _ := m["versions"].(map[string]any)
	v1, _ := versions["1"].(map[string]any)
	if v1["requests"].(float64) < 3 {
		t.Fatalf("stats did not count requests: %v", v1)
	}

	// Fleet healthz.
	status, _, m = get(t, ts.URL+"/v1/healthz")
	if status != 200 || m["status"] != "ok" || m["models"] != float64(2) {
		t.Fatalf("fleet healthz %d %v", status, m)
	}
}

// TestV1Errors walks the error surface: every failure is the envelope with
// the mapped status.
func TestV1Errors(t *testing.T) {
	_, ts := zooServer(t, Options{})

	cases := []struct {
		method, path string
		body         any
		status       int
	}{
		{"GET", "/v1/models/ghost/predict?node=0", nil, 404},      // unknown model
		{"GET", "/v1/models/base@9/predict?node=0", nil, 404},     // unknown version
		{"GET", "/v1/models/base/predict", nil, 400},              // no nodes
		{"GET", "/v1/models/base/predict?node=999999", nil, 400},  // out of range
		{"GET", "/v1/models/base/predict?node=abc", nil, 400},     // bad node id
		{"GET", "/v1/models/bad@name@2/predict?node=0", nil, 400}, // bad ref
		{"POST", "/v1/models/base/predict", `{"nodes":[1,`, 400},  // truncated JSON
		{"POST", "/v1/models/base/predict", `garbage`, 400},       // not JSON
		{"POST", "/v1/models/base/predict", `{"nodes":[]}`, 400},  // empty node list
		{"POST", "/v1/models/base/predict", `{"nodes":[-1]}`, 400},
		{"POST", "/v1/models/base/swap", map[string]int{"version": 9}, 404},
		{"DELETE", "/v1/models/base/predict?node=0", nil, 405},
		{"POST", "/v1/models", nil, 405},
		{"GET", "/v1/ab/report", nil, 404}, // no experiment configured
		{"POST", "/v1/ab", ABConfig{Control: "base", Candidate: "base", Fraction: 0.5}, 400},
		{"POST", "/v1/ab", ABConfig{Control: "base", Candidate: "ghost", Fraction: 0.5}, 404},
		{"POST", "/v1/ab", ABConfig{Control: "base", Candidate: "ada", Fraction: 1.5}, 400},
	}
	for _, c := range cases {
		var b []byte
		if raw, ok := c.body.(string); ok {
			b = []byte(raw) // sent as is: malformed on purpose
		} else if c.body != nil {
			b, _ = json.Marshal(c.body)
		}
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.status, body)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Errorf("%s %s: non-JSON error body %q", c.method, c.path, body)
			continue
		}
		wantEnvelope(t, m, serve.CodeForStatus(c.status))
		msg, _ := m["error"].(map[string]any)["msg"].(string)
		if !strings.HasPrefix(msg, "serve:") && !strings.HasPrefix(msg, "registry:") {
			t.Errorf("%s %s: error msg not named-op: %q", c.method, c.path, msg)
		}
	}
}

// TestFlatRoutesGone pins the single front door: the flat single-model
// routes that predate /v1 (deprecated aliases since PR 6) are not mounted —
// they answer the mux's 404 and nothing stamps a Deprecation header.
func TestFlatRoutesGone(t *testing.T) {
	_, ts := zooServer(t, Options{})
	for _, path := range []string{"/predict?node=0", "/predict/all", "/healthz", "/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		if d := resp.Header.Get("Deprecation"); d != "" {
			t.Errorf("%s: Deprecation header %q on an unmounted route", path, d)
		}
	}
}

// TestABOverHTTP configures an experiment through the API, drives traffic,
// and checks per-arm accounting plus per-node stickiness.
func TestABOverHTTP(t *testing.T) {
	r, ts := zooServer(t, Options{})

	status, m := postJSON(t, ts.URL+"/v1/ab", ABConfig{Control: "base", Candidate: "ada", Fraction: 0.5, Salt: 7})
	if status != 200 || m["configured"] != true {
		t.Fatalf("configure AB: %d %v", status, m)
	}

	// Route a spread of nodes twice through the control-addressed endpoint;
	// the second pass must hit the same arms (stickiness), and both arms must
	// see traffic at fraction 0.5 over enough nodes.
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = i * 7 % 128
	}
	for pass := 0; pass < 2; pass++ {
		status, m = postJSON(t, ts.URL+"/v1/models/base/predict", serve.PredictRequest{Nodes: nodes})
		if status != 200 {
			t.Fatalf("AB predict pass %d: %d %v", pass, status, m)
		}
		if preds, _ := m["predictions"].([]any); len(preds) != len(nodes) {
			t.Fatalf("AB predict pass %d returned %d predictions", pass, len(preds))
		}
	}

	status, _, m = get(t, ts.URL+"/v1/ab/report")
	if status != 200 {
		t.Fatalf("ab/report status %d", status)
	}
	ctrl, _ := m["control"].(map[string]any)
	cand, _ := m["candidate"].(map[string]any)
	if ctrl["model"] != "base" || cand["model"] != "ada" {
		t.Fatalf("report arms %v / %v", ctrl, cand)
	}
	cs, _ := ctrl["stats"].(map[string]any)
	as, _ := cand["stats"].(map[string]any)
	cfg, _ := r.ABActive()
	wantCand := 0
	for _, n := range nodes {
		if ABRoute(cfg, n) {
			wantCand++
		}
	}
	if wantCand == 0 || wantCand == len(nodes) {
		t.Fatalf("hash split degenerate: %d/%d to candidate", wantCand, len(nodes))
	}
	if got := int(as["nodes"].(float64)); got != 2*wantCand {
		t.Errorf("candidate arm saw %d nodes, want %d (sticky split)", got, 2*wantCand)
	}
	if got := int(cs["nodes"].(float64)); got != 2*(len(nodes)-wantCand) {
		t.Errorf("control arm saw %d nodes, want %d", got, 2*(len(nodes)-wantCand))
	}
	if cs["accuracy"].(float64) <= 0 || as["accuracy"].(float64) <= 0 {
		t.Errorf("arms report zero online accuracy: ctrl %v cand %v", cs["accuracy"], as["accuracy"])
	}

	// Pinned-version requests bypass the splitter; direct candidate traffic
	// is not folded into the experiment.
	before := int(as["nodes"].(float64))
	status, m = postJSON(t, ts.URL+"/v1/models/base@1/predict", serve.PredictRequest{Nodes: nodes})
	if status != 200 {
		t.Fatalf("pinned predict status %d: %v", status, m)
	}
	_, _, m = get(t, ts.URL+"/v1/ab/report")
	cand, _ = m["candidate"].(map[string]any)
	as, _ = cand["stats"].(map[string]any)
	if got := int(as["nodes"].(float64)); got != before {
		t.Errorf("pinned request leaked into AB accounting: %d -> %d", before, got)
	}

	// Disabling resets routing.
	status, m = postJSON(t, ts.URL+"/v1/ab", ABConfig{})
	if status != 200 || m["configured"] != false {
		t.Fatalf("disable AB: %d %v", status, m)
	}
	if _, ok := r.ABActive(); ok {
		t.Fatal("AB still active after disable")
	}
	status, _, _ = get(t, ts.URL+"/v1/ab/report")
	if status != 404 {
		t.Fatalf("report after disable status %d", status)
	}
}
