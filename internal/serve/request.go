package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// PredictRequest is the JSON body of POST /v1/models/{model}/predict.
type PredictRequest struct {
	// Nodes lists the node ids to classify.
	Nodes []int `json:"nodes"`
	// All, when true, classifies every node (ignores Nodes) — the
	// full-graph warm path.
	All bool `json:"all,omitempty"`
}

// PredictResponse is the JSON answer of the predict endpoints.
type PredictResponse struct {
	// Predictions holds one entry per queried node, in query order.
	Predictions []Prediction `json:"predictions"`
}

// ParseNodesQuery decodes the node/nodes query parameters of a GET predict
// request.
func ParseNodesQuery(r *http.Request) ([]int, error) {
	q := r.URL.Query()
	var raw []string
	if v := q.Get("node"); v != "" {
		raw = []string{v}
	} else if v := q.Get("nodes"); v != "" {
		raw = strings.Split(v, ",")
	} else {
		return nil, fmt.Errorf("serve: predict: missing node or nodes query parameter")
	}
	nodes := make([]int, len(raw))
	for i, s := range raw {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("serve: predict: bad node id %q", s)
		}
		nodes[i] = n
	}
	return nodes, nil
}

// DecodePredictBody decodes the JSON body of a POST predict request with a
// size cap, so oversized or truncated bodies fail with a named-op error
// before any engine work.
func DecodePredictBody(w http.ResponseWriter, r *http.Request) (PredictRequest, error) {
	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: predict: decode request: %w", err)
	}
	return req, nil
}

// PredictStatus maps Predict errors to HTTP statuses: an overload shed or a
// closed/draining server is 503 (WriteError adds Retry-After), a missed
// deadline is 504, a recovered engine panic is 500, everything else
// (validation) is 400.
func PredictStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrModelPanic):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
