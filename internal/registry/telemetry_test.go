package registry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// TestTracePropagatesHandlerToServeWindow pins the tracing contract of a
// predict: one trace ID, supplied by the HTTP caller, must annotate every
// stage — the server's per-request span and its batcher's window span. If
// any layer dropped or re-minted the ID, the request could not be followed
// across the stack.
func TestTracePropagatesHandlerToServeWindow(t *testing.T) {
	dir := zooDir(t, "m@1")
	reg := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer reg.Close()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.DefaultTracer()
	tr.Reset()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	const wire = "00000000000000ab"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/models/m/predict?nodes=0,5,11", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceHeader, wire)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != wire {
		t.Fatalf("trace header echoed as %q, want %q", got, wire)
	}

	id, ok := telemetry.ParseTraceID(wire)
	if !ok {
		t.Fatalf("test trace id %q does not parse", wire)
	}
	stages := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Trace == id {
			stages[ev.Name] = true
		}
	}
	for _, want := range []string{"serve.request", "serve.window"} {
		if !stages[want] {
			t.Errorf("no %s span carries trace %s (stages seen: %v)", want, wire, stages)
		}
	}
}

// TestMetricsEndpointFamilies covers the registry's scrape route: after one
// served request, GET /v1/metrics must answer a structurally valid
// Prometheus exposition containing the serving- and registry-layer families.
func TestMetricsEndpointFamilies(t *testing.T) {
	dir := zooDir(t, "m@1")
	reg := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer reg.Close()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/v1/models/m/predict?node=0"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/v1/metrics content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, fam := range []string{
		"adafgl_serve_requests_total",
		"adafgl_serve_request_latency_seconds",
		"adafgl_registry_predicts_total",
		"adafgl_registry_cold_starts_total",
		"adafgl_registry_breaker_trips_total",
	} {
		if !telemetry.HasFamily(body, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}
