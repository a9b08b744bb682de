package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// statusFor maps registry errors onto HTTP statuses; everything the serving
// layer can return goes through serve.PredictStatus.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrInUse):
		return http.StatusConflict
	case errors.Is(err, ErrTripped), errors.Is(err, ErrRegistryClosed):
		return http.StatusServiceUnavailable
	default:
		return serve.PredictStatus(err)
	}
}

// requireMethod writes the envelope 405 unless the request uses one of the
// allowed methods.
func requireMethod(w http.ResponseWriter, req *http.Request, op string, methods ...string) bool {
	for _, m := range methods {
		if req.Method == m {
			return true
		}
	}
	serve.WriteError(w, http.StatusMethodNotAllowed, op,
		fmt.Errorf("registry: %s: method %s not allowed", op, req.Method))
	return false
}

// handleList answers GET /v1/models with every artifact's metadata — health
// state included — plus the artifacts a lenient scan quarantined.
func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.models", http.MethodGet) {
		return
	}
	body := map[string]any{"models": r.List()}
	if q := r.Quarantined(); len(q) > 0 {
		body["quarantined"] = q
	}
	serve.WriteJSON(w, http.StatusOK, body)
}

// handlePredict answers single-node and node-set queries on one model,
// routing through the A/B splitter when the target is the control.
func (r *Registry) handlePredict(w http.ResponseWriter, req *http.Request) {
	ref := req.PathValue("model")
	var nodes []int
	switch req.Method {
	case http.MethodGet:
		var err error
		if nodes, err = serve.ParseNodesQuery(req); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "registry.predict", err)
			return
		}
	case http.MethodPost:
		body, err := serve.DecodePredictBody(w, req)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, "registry.predict", err)
			return
		}
		if body.All {
			r.handlePredictAll(w, req)
			return
		}
		nodes = body.Nodes
	default:
		requireMethod(w, req, "registry.predict", http.MethodGet, http.MethodPost)
		return
	}
	preds, err := r.PredictCtx(req.Context(), ref, nodes)
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.predict", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.PredictResponse{Predictions: preds})
}

// handlePredictAll answers the full-graph warm path on one model.
func (r *Registry) handlePredictAll(w http.ResponseWriter, req *http.Request) {
	ref := req.PathValue("model")
	h, err := r.Acquire(ref)
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.predict", err)
		return
	}
	n := h.Server().Nodes()
	h.Release()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	preds, err := r.PredictCtx(req.Context(), ref, nodes)
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.predict", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.PredictResponse{Predictions: preds})
}

// handleMetrics answers GET /v1/metrics with the process-wide telemetry
// registry in Prometheus text format.
func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.metrics", http.MethodGet) {
		return
	}
	telemetry.Default().Handler().ServeHTTP(w, req)
}

// handleStats answers GET /v1/models/{model}/stats with the per-version
// counters and the active server's live snapshot.
func (r *Registry) handleStats(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.stats", http.MethodGet) {
		return
	}
	name, _, err := ParseRef(req.PathValue("model"))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "registry.stats", err)
		return
	}
	st, err := r.Stats(name)
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.stats", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

// swapRequest is the JSON body of POST /v1/models/{model}/swap.
type swapRequest struct {
	Version int `json:"version"`
}

// handleSwap answers POST /v1/models/{model}/swap: zero-downtime activation
// of another registered version.
func (r *Registry) handleSwap(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.swap", http.MethodPost) {
		return
	}
	name, _, err := ParseRef(req.PathValue("model"))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "registry.swap", err)
		return
	}
	var body swapRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16)).Decode(&body); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "registry.swap",
			fmt.Errorf("registry: swap: decode request: %w", err))
		return
	}
	prev, err := r.Swap(name, body.Version)
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.swap", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"name": name, "from": prev, "to": body.Version,
	})
}

// handleAB answers POST /v1/ab: install, replace or (with an empty config)
// disable the A/B experiment.
func (r *Registry) handleAB(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.ab", http.MethodPost) {
		return
	}
	var cfg ABConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16)).Decode(&cfg); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "registry.ab",
			fmt.Errorf("registry: ab: decode request: %w", err))
		return
	}
	if err := r.ConfigureAB(cfg); err != nil {
		serve.WriteError(w, statusFor(err), "registry.ab", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"configured": cfg.Control != "", "config": cfg})
}

// handleABReport answers GET /v1/ab/report with the live per-arm comparison.
func (r *Registry) handleABReport(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.ab", http.MethodGet) {
		return
	}
	rep, err := r.ABReportNow()
	if err != nil {
		serve.WriteError(w, statusFor(err), "registry.ab", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

// handleFleetHealthz answers GET /v1/healthz with fleet-level liveness plus
// the readiness summary. Liveness is unconditional — the process answering
// at all is the signal, so the status is always 200 "ok"; orchestrators that
// should stop routing traffic when nothing can serve use /v1/readyz.
func (r *Registry) handleFleetHealthz(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.healthz", http.MethodGet) {
		return
	}
	r.mu.Lock()
	loaded := r.loaded
	r.mu.Unlock()
	rd := r.Readiness()
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "models": rd.Models, "versions": rd.Versions, "loaded": loaded,
		"ready": rd.Ready, "tripped": rd.Tripped, "quarantined": rd.Quarantined,
	})
}

// handleReadyz answers GET /v1/readyz with the readiness summary: 200 when
// the fleet can serve a prediction, 503 when it cannot (registry closed,
// nothing registered, or every version tripped). The body is the Readiness
// JSON either way, so probes and operators see why.
func (r *Registry) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if !requireMethod(w, req, "registry.readyz", http.MethodGet) {
		return
	}
	rd := r.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, rd)
}
