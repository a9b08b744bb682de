package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// APIError is the structured JSON error body of every route of the v1 API
// (registry.Handler). Op names the failing operation
// ("serve.predict", "registry.swap", ...), Code is a machine-routable
// category derived from the HTTP status, and Msg carries the full named-op
// error text.
type APIError struct {
	// Op is the dotted name of the operation that failed.
	Op string `json:"op"`
	// Code is the machine-readable error category ("bad_request",
	// "not_found", "conflict", "method_not_allowed", "unavailable",
	// "internal").
	Code string `json:"code"`
	// Msg is the human-readable named-op error message.
	Msg string `json:"msg"`
}

// ErrorEnvelope is the top-level JSON shape of every HTTP error response:
// {"error":{"op":...,"code":...,"msg":...}}.
type ErrorEnvelope struct {
	// Error is the structured error body.
	Error APIError `json:"error"`
}

// CodeForStatus maps an HTTP status onto the envelope's machine-readable
// error code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline"
	default:
		return "internal"
	}
}

// RetryAfterer is implemented by errors that carry an advisory client
// backoff — the registry's circuit-breaker error reports its remaining trip
// window this way. WriteError turns the hint into a Retry-After header.
type RetryAfterer interface {
	// RetryAfter is the advisory delay before the client should retry.
	RetryAfter() time.Duration
}

// DefaultRetryAfter is the advisory Retry-After delay stamped on shed and
// draining responses whose error carries no explicit hint.
const DefaultRetryAfter = time.Second

// RetryAfterHint returns the advisory Retry-After delay for err: the
// explicit hint when err implements RetryAfterer, DefaultRetryAfter for the
// transient serving failures a client should simply retry (overload shed,
// draining, closed), and false for everything else (validation errors,
// deadlines the client chose, engine panics).
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra RetryAfterer
	if errors.As(err, &ra) {
		return ra.RetryAfter(), true
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed) {
		return DefaultRetryAfter, true
	}
	return 0, false
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// WriteError writes err as the structured JSON error envelope with the given
// status, stamping op and the status-derived code. Errors carrying a retry
// hint (overload sheds, draining servers, tripped breakers — see
// RetryAfterHint) additionally get a Retry-After header in whole seconds
// (minimum 1), so well-behaved clients back off instead of hammering.
func WriteError(w http.ResponseWriter, status int, op string, err error) {
	if d, ok := RetryAfterHint(err); ok {
		secs := int(d / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, status, ErrorEnvelope{Error: APIError{
		Op: op, Code: CodeForStatus(status), Msg: err.Error(),
	}})
}

// Recover wraps h so a panic anywhere below it — a handler bug, a model
// blowing up outside the batcher's own recovery — answers the structured 500
// envelope instead of killing the connection. The registry's v1 API wraps
// its whole mux in it, so every route is panic-isolated: one poisoned
// request can never take the process or even its own keep-alive connection
// down. If the handler already started writing a response the envelope
// cannot be delivered; the panic is still swallowed and the connection
// completes.
func Recover(op string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				WriteError(w, http.StatusInternalServerError, op,
					fmt.Errorf("serve: %s: handler panic: %v", op, rec))
			}
		}()
		h.ServeHTTP(w, r)
	})
}
