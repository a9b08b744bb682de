package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestServeTelemetryBitIdentical is the observation-only contract at the
// serving layer: the same queries answered with telemetry enabled and
// disabled must return bitwise-equal logits and classes.
func TestServeTelemetryBitIdentical(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 41)
	nodes := []int{0, 3, 9, 1, 17, 5}

	run := func(enabled bool) []Prediction {
		t.Helper()
		defer telemetry.SetEnabled(telemetry.SetEnabled(enabled))
		srv, err := New(ck, Options{MaxBatch: 4, MaxWait: time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		preds, err := srv.Predict(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	on := run(true)
	off := run(false)

	for i := range on {
		if on[i].Node != off[i].Node || on[i].Class != off[i].Class {
			t.Fatalf("query %d: on (%d,%d) vs off (%d,%d)",
				i, on[i].Node, on[i].Class, off[i].Node, off[i].Class)
		}
		for j := range on[i].Logits {
			if on[i].Logits[j] != off[i].Logits[j] {
				t.Fatalf("query %d logit %d differs between telemetry on and off", i, j)
			}
		}
	}
}

// served is how far a server's telemetry series advanced over a stretch of
// a test: the serving layer's one count of what it answered.
type served struct {
	requests, nodes, batches uint64
	shed, deadlines, panics  uint64
	latency                  uint64 // latency histogram samples
}

// countServed reads a server's telemetry series (srv.tel) and returns a
// function that reports how far each has advanced since. The series are per
// architecture and process-wide, so every count a test asserts is such a
// delta, read while no other server of the architecture is running.
func countServed(t testing.TB, tel *telSeries) func() served {
	t.Helper()
	if !telemetry.Enabled() {
		t.Fatal("telemetry is disabled: a served request would be counted nowhere")
	}
	read := func() served {
		return served{
			requests: tel.requests.Value(), nodes: tel.nodes.Value(), batches: tel.batches.Value(),
			shed: tel.shed.Value(), deadlines: tel.deadlines.Value(), panics: tel.panics.Value(),
			latency: tel.latency.Count(),
		}
	}
	before := read()
	return func() served {
		now := read()
		return served{
			requests: now.requests - before.requests, nodes: now.nodes - before.nodes,
			batches: now.batches - before.batches, shed: now.shed - before.shed,
			deadlines: now.deadlines - before.deadlines, panics: now.panics - before.panics,
			latency: now.latency - before.latency,
		}
	}
}

// TestServeTelemetryCounters covers every serving family through its
// per-arch vector: answered requests advance requests, nodes, the latency
// histogram (one sample each) and batches (one per answered window), and a
// shed, an expired and a panicked call advance exactly their own counter.
func TestServeTelemetryCounters(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	ck := trainedCheckpoint(t, "SGC", 43)
	arch := ck.Arch
	count := countServed(t, newTelSeries(arch))

	// Three answered queries, one caller and MaxWait 0: three windows.
	srv, err := New(ck, Options{MaxBatch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Arch() != arch {
		t.Fatalf("server reports arch %q, its series are labelled %q", srv.Arch(), arch)
	}
	for _, q := range [][]int{{0}, {1, 2}, {3, 4, 5}} {
		if _, err := srv.Predict(q); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // a window is counted after its callers are released

	// One shed behind an answered one-node request.
	slow, err := New(ck, slowOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := slow.Predict([]int{0})
		first <- err
	}()
	waitPending(t, slow, 1)
	if _, err := slow.Predict([]int{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// One call whose deadline passed before it was made: it fails whether or
	// not it reaches the queue, and the dispatcher answers none of it.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := slow.PredictCtx(expired, []int{0}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	slow.Close()

	// One window failed by an engine panic.
	broken, err := New(ck, Options{MaxBatch: 4, Seed: 1, Chaos: ChaosOptions{PanicEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broken.Predict([]int{0}); !errors.Is(err, ErrModelPanic) {
		t.Fatalf("want ErrModelPanic, got %v", err)
	}
	broken.Close()

	want := served{requests: 4, nodes: 7, batches: 4, shed: 1, deadlines: 1, panics: 1, latency: 4}
	if got := count(); got != want {
		t.Fatalf("serving families advanced by %+v, want %+v", got, want)
	}
}
