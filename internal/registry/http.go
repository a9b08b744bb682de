package registry

import (
	"net/http"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Handler returns the HTTP surface of the registry, and with it of every
// served model: the versioned v1 API of the routes table below, the only
// routes this repository mounts.
//
// Every error, on every route, is the structured JSON envelope
// {"error":{"op","code","msg"}} (serve.ErrorEnvelope), except /v1/readyz
// whose not-ready 503 carries the Readiness body itself so probes see why.
// Handlers validate before touching the engine; unknown models are 404, a
// closed registry or server or a tripped/overloaded model 503 (with
// Retry-After), a missed deadline 504, conflicting mutations 409. The whole
// mux is wrapped in serve.Recover, so even a handler panic answers the
// structured 500 envelope instead of killing the connection.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, req *http.Request) { rt.handle(r, w, req) })
	}
	// Every request carries a trace ID (incoming X-Trace-Id or freshly
	// minted) so per-request error logs and engine spans correlate.
	return serve.Recover("registry.handler", telemetry.TraceHTTP(mux))
}

// routes is the whole mux: the one place that decides which routes exist
// (README.md and ARCHITECTURE.md carry the same table, and a test keeps them
// in step). {model} is "name" or "name@version". Patterns carry no method —
// method routing happens inside the handlers so that wrong-method requests
// still answer with the shared error envelope (the mux's built-in 405 writes
// text/plain).
var routes = []struct {
	pattern string
	handle  func(*Registry, http.ResponseWriter, *http.Request)
}{
	{"/v1/models", (*Registry).handleList},                           // GET: artifacts + metadata
	{"/v1/models/{model}/predict", (*Registry).handlePredict},        // GET ?node=3 | ?nodes=1,2; POST {"nodes":[...]} | {"all":true}
	{"/v1/models/{model}/predict/all", (*Registry).handlePredictAll}, // GET: full-graph warm path
	{"/v1/models/{model}/stats", (*Registry).handleStats},            // GET: per-version counters + live snapshot
	{"/v1/models/{model}/swap", (*Registry).handleSwap},              // POST {"version":N}: zero-downtime swap
	{"/v1/ab", (*Registry).handleAB},                                 // POST: configure the A/B splitter
	{"/v1/ab/report", (*Registry).handleABReport},                    // GET: online accuracy/latency per arm
	{"/v1/healthz", (*Registry).handleFleetHealthz},                  // GET: liveness + readiness summary
	{"/v1/readyz", (*Registry).handleReadyz},                         // GET: 200 serving, 503 not
	{"/v1/metrics", (*Registry).handleMetrics},                       // GET: Prometheus text exposition
}
