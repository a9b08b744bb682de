package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTraceContext checks ID threading through contexts and the wire form.
func TestTraceContext(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("zero trace ID minted")
	}
	ctx := ContextWithTrace(context.Background(), id)
	got, ok := TraceFrom(ctx)
	if !ok || got != id {
		t.Fatalf("TraceFrom = %v,%v want %v,true", got, ok, id)
	}
	if _, ok := TraceFrom(context.Background()); ok {
		t.Fatal("trace found in empty context")
	}
	ctx2, id2 := EnsureTrace(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("EnsureTrace minted a fresh ID over an existing one")
	}
	_, id3 := EnsureTrace(context.Background())
	if id3 == 0 || id3 == id {
		t.Fatal("EnsureTrace did not mint a fresh ID")
	}

	parsed, ok := ParseTraceID(id.String())
	if !ok || parsed != id {
		t.Fatalf("round trip %q -> %v,%v", id.String(), parsed, ok)
	}
	for _, bad := range []string{"", "zz", "0", "10000000000000000f"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// TestTracerRecordsSpans checks span recording, attributes, nil-safety and
// the ring wrap.
func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(4, 1)
	ctx, sp := tr.Start(context.Background(), "serve.request")
	if sp == nil {
		t.Fatal("span not sampled at sampleEvery=1")
	}
	id, ok := TraceFrom(ctx)
	if !ok {
		t.Fatal("Start did not inject a trace")
	}
	sp.Attr("nodes", 3).End()

	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "serve.request" || evs[0].Trace != id {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Attrs["nodes"] != 3 {
		t.Fatalf("attrs = %v", evs[0].Attrs)
	}

	var nilSpan *Span
	nilSpan.Attr("k", "v")
	nilSpan.End() // must not panic

	for i := 0; i < 10; i++ {
		tr.Span(id, "wrap").End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("ring holds %d events, want capacity 4", got)
	}
	seen, kept := tr.Stats()
	if seen != 11 || kept != 11 {
		t.Fatalf("stats = %d,%d want 11,11", seen, kept)
	}
	tr.Reset()
	if evs := tr.Events(); len(evs) != 0 {
		t.Fatalf("reset left %d events", len(evs))
	}
}

// TestTracerSampling checks deterministic ID-mod sampling.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(16, 4)
	for id := TraceID(1); id <= 8; id++ {
		tr.Span(id, "s").End()
	}
	seen, kept := tr.Stats()
	if seen != 8 || kept != 2 { // ids 4 and 8
		t.Fatalf("stats = %d,%d want 8,2", seen, kept)
	}
}

// TestTraceHTTP checks the middleware honours an incoming X-Trace-Id,
// mints one otherwise, and echoes it on the response.
func TestTraceHTTP(t *testing.T) {
	var got TraceID
	h := TraceHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = TraceFrom(r.Context())
	}))

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(TraceHeader, "00000000000000ff")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got != TraceID(0xff) {
		t.Fatalf("incoming trace not honoured: %v", got)
	}
	if rec.Header().Get(TraceHeader) != "00000000000000ff" {
		t.Fatalf("trace not echoed: %q", rec.Header().Get(TraceHeader))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if got == 0 || rec.Header().Get(TraceHeader) != got.String() {
		t.Fatalf("minted trace %v not echoed (%q)", got, rec.Header().Get(TraceHeader))
	}
}
