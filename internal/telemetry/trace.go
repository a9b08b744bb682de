package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request's journey through the serving stack:
// HTTP handler → batcher enqueue → window dispatch → engine forward /
// shard halo-exchange. IDs are process-unique and allocated from an atomic
// counter, so assigning one never perturbs any seeded RNG stream.
type TraceID uint64

// String renders the ID as 16 lowercase hex digits (the X-Trace-Id wire
// form).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex wire form; ok is false for anything that is
// not a non-zero 64-bit hex value.
func ParseTraceID(s string) (TraceID, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// nextTrace allocates process-unique trace IDs, starting at 1 so a zero
// TraceID always means "absent".
var nextTrace atomic.Uint64

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() TraceID { return TraceID(nextTrace.Add(1)) }

// traceKey is the context key carrying the request's TraceID.
type traceKey struct{}

// ContextWithTrace returns a context carrying the trace ID.
func ContextWithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom extracts the trace ID threaded through ctx, if any.
func TraceFrom(ctx context.Context) (TraceID, bool) {
	id, ok := ctx.Value(traceKey{}).(TraceID)
	return id, ok && id != 0
}

// EnsureTrace returns ctx carrying a trace ID, minting a fresh one only
// when absent.
func EnsureTrace(ctx context.Context) (context.Context, TraceID) {
	if id, ok := TraceFrom(ctx); ok {
		return ctx, id
	}
	id := NewTraceID()
	return ContextWithTrace(ctx, id), id
}

// SpanEvent is one recorded span: a named stage of a trace with its wall
// start time, duration, and small attribute set. Events are exported as the
// sampled structured event log (Tracer.Events).
type SpanEvent struct {
	// Trace is the request's trace ID.
	Trace TraceID `json:"trace"`
	// Name is the stage: "serve.request" or "serve.window".
	Name string `json:"span"`
	// Start is the wall-clock start of the span.
	Start time.Time `json:"start"`
	// Duration is the span's elapsed time.
	Duration time.Duration `json:"dur_ns"`
	// Attrs are small span-scoped facts (node counts, shard IDs, bytes).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Tracer records sampled span events into a bounded ring. Recording is
// observation-only — it is skipped entirely when telemetry is disabled and
// never influences the traced computation. Safe for concurrent use.
type Tracer struct {
	sample uint64 // record traces with id%sample==0; 1 records all

	seen atomic.Uint64 // spans offered
	kept atomic.Uint64 // spans recorded

	mu   sync.Mutex
	ring []SpanEvent
	next int
	full bool
}

// NewTracer creates a tracer with a ring of capacity events that records
// every sampleEvery-th trace (deterministic on the trace ID; <=1 records
// all).
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{ring: make([]SpanEvent, capacity), sample: uint64(sampleEvery)}
}

// defaultTracer backs DefaultTracer.
var defaultTracer = NewTracer(4096, 1)

// DefaultTracer returns the process-wide tracer the runtime layers record
// onto.
func DefaultTracer() *Tracer { return defaultTracer }

// sampled reports whether the deterministic sampler keeps this trace.
func (t *Tracer) sampled(id TraceID) bool { return uint64(id)%t.sample == 0 }

// Span is one in-flight stage measurement. A nil *Span is valid and inert,
// so callers never branch on sampling decisions.
type Span struct {
	t     *Tracer
	id    TraceID
	name  string
	start time.Time
	attrs map[string]any
}

// Start begins a span for the trace carried by ctx (minting one if absent),
// returning the possibly-extended context and the span. The span is nil —
// and the returned context unchanged beyond trace injection — when the
// tracer is nil, telemetry is disabled, or the trace is not sampled.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !enabled.Load() {
		return ctx, nil
	}
	ctx, id := EnsureTrace(ctx)
	return ctx, t.Span(id, name)
}

// Span begins a span for an explicit trace ID, for callers that carry the
// ID outside a context (e.g. the batcher's request structs). Returns nil
// when recording is off or the trace is not sampled.
func (t *Tracer) Span(id TraceID, name string) *Span {
	if t == nil || !enabled.Load() {
		return nil
	}
	t.seen.Add(1)
	if !t.sampled(id) {
		return nil
	}
	return &Span{t: t, id: id, name: name, start: time.Now()}
}

// Attr attaches one attribute to the span and returns it for chaining.
// Safe on a nil span.
func (s *Span) Attr(k string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[k] = v
	return s
}

// End records the span event. Safe on a nil span; End on an already-ended
// span records a duplicate, so call it once (typically deferred).
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := SpanEvent{
		Trace:    s.id,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
	}
	t := s.t
	t.kept.Add(1)
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Events returns the recorded span events, oldest first.
func (t *Tracer) Events() []SpanEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]SpanEvent(nil), t.ring[:t.next]...)
	}
	out := make([]SpanEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Stats returns how many spans were offered to and kept by the sampler
// since construction (or the last Reset).
func (t *Tracer) Stats() (seen, kept uint64) {
	return t.seen.Load(), t.kept.Load()
}

// Reset clears the ring and the seen/kept counters (test helper).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next, t.full = 0, false
	t.seen.Store(0)
	t.kept.Store(0)
}

// TraceHeader is the HTTP header carrying a request's trace ID in hex.
const TraceHeader = "X-Trace-Id"

// TraceHTTP wraps an HTTP handler so every request runs with a trace ID in
// its context: an incoming X-Trace-Id header is honoured (letting callers
// correlate across services), otherwise a fresh ID is minted. The ID is
// echoed on the response so clients can quote it in bug reports.
func TraceHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := ParseTraceID(r.Header.Get(TraceHeader))
		if !ok {
			id = NewTraceID()
		}
		w.Header().Set(TraceHeader, id.String())
		next.ServeHTTP(w, r.WithContext(ContextWithTrace(r.Context(), id)))
	})
}
