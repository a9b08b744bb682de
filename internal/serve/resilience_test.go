package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowOptions builds a server config whose every window stalls, so requests
// reliably sit in the pending state while tests race admissions against it.
func slowOptions(maxPending int, timeout time.Duration) Options {
	return Options{
		MaxBatch: 4, MaxWait: 0, Seed: 1,
		MaxPending:     maxPending,
		RequestTimeout: timeout,
		Chaos:          ChaosOptions{DelayEvery: 1, Delay: 40 * time.Millisecond},
	}
}

// TestAdmissionControlSheds pins the shed contract: a request that would
// push pending nodes past MaxPending fails fast with ErrOverloaded, while a
// single request larger than the whole budget is still admitted when nothing
// is pending.
func TestAdmissionControlSheds(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	srv, err := New(ck, slowOptions(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	count := countServed(t, srv.tel)

	// Fill the budget with a slow 4-node request...
	first := make(chan error, 1)
	go func() {
		_, err := srv.Predict([]int{0, 1, 2, 3})
		first <- err
	}()
	waitPending(t, srv, 4)

	// ...then any further request must shed.
	if _, err := srv.Predict([]int{4}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	if got := count().shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	// Oversized single request with nothing pending: admitted, answered.
	if _, err := srv.Predict([]int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("oversized-but-alone request: %v", err)
	}

	// Negative MaxPending disables admission control entirely.
	open, err := New(ck, Options{MaxBatch: 4, Seed: 1, MaxPending: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if _, err := open.Predict([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatalf("disabled admission control shed: %v", err)
	}
}

// waitPending blocks until the server's pending-node gauge reaches want.
func waitPending(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.pending.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("pending never reached %d (at %d)", want, srv.pending.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRequestDeadline pins the deadline contract: both the server-side
// RequestTimeout and a caller context deadline fail with ErrDeadline, the
// failure is counted exactly once, and the rest of the window still answers
// bit-identically.
func TestRequestDeadline(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	srv, err := New(ck, slowOptions(0, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	count := countServed(t, srv.tel)
	if _, err := srv.Predict([]int{0}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("RequestTimeout: want ErrDeadline, got %v", err)
	}
	if got := count().deadlines; got != 1 {
		t.Fatalf("deadlines = %d, want 1 (deadline double-counted?)", got)
	}

	// Caller context deadline wins over the (absent) server timeout.
	clean, err := New(ck, Options{MaxBatch: 4, Seed: 1, Chaos: ChaosOptions{DelayEvery: 1, Delay: 40 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := clean.PredictCtx(ctx, []int{0}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("ctx deadline: want ErrDeadline, got %v", err)
	}

	// An already-expired context never enqueues.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := clean.PredictCtx(done, []int{0}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx: want ErrDeadline, got %v", err)
	}
}

// TestDeadlineSurvivorsBitIdentical checks a window where one request
// expires and another survives: the survivor's logits match a fault-free
// server bit for bit.
func TestDeadlineSurvivorsBitIdentical(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	clean, err := New(ck, Options{MaxBatch: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	wantPreds, err := clean.Predict([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	want := wantPreds[0].Logits

	// MaxWait large enough that the doomed and the surviving request share a
	// window; the doomed one's deadline lapses while the window fills.
	srv, err := New(ck, Options{MaxBatch: 8, MaxWait: 30 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	doomed := make(chan error, 1)
	go func() {
		_, err := srv.PredictCtx(ctx, []int{1})
		doomed <- err
	}()
	time.Sleep(time.Millisecond)
	preds, err := srv.Predict([]int{2})
	if err != nil {
		t.Fatalf("survivor failed: %v", err)
	}
	if err := <-doomed; !errors.Is(err, ErrDeadline) {
		t.Fatalf("doomed request: want ErrDeadline, got %v", err)
	}
	for j, v := range preds[0].Logits {
		if v != want[j] {
			t.Fatalf("survivor logit %d differs bitwise: %v vs %v", j, v, want[j])
		}
	}
}

// TestPanicIsolation pins the recovery contract: a panicking engine window
// fails its requests with ErrModelPanic, the dispatcher survives, and the
// next window answers bit-identically to the pre-panic one.
func TestPanicIsolation(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	srv, err := New(ck, Options{MaxBatch: 4, Seed: 1, Chaos: ChaosOptions{PanicEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	count := countServed(t, srv.tel)

	before, err := srv.Predict([]int{3}) // window 1: clean
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict([]int{3}); !errors.Is(err, ErrModelPanic) { // window 2: panics
		t.Fatalf("want ErrModelPanic, got %v", err)
	}
	after, err := srv.Predict([]int{3}) // window 3: clean again
	if err != nil {
		t.Fatalf("server died after panic: %v", err)
	}
	for j := range before[0].Logits {
		if before[0].Logits[j] != after[0].Logits[j] {
			t.Fatalf("post-panic logit %d differs bitwise", j)
		}
	}
	if got := count().panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

// TestResilienceHTTPStatuses pins the HTTP mapping of the failure modes, from
// the errors a stressed server really returns to the response the v1
// handlers write with them (PredictStatus + WriteError): deadline 504 with
// code "deadline", shed and draining 503 with Retry-After, engine panic 500,
// validation 400 — all as structured envelopes.
func TestResilienceHTTPStatuses(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	srv, err := New(ck, slowOptions(2, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Deadline: every window stalls past the 5ms request timeout.
	_, deadlineErr := srv.Predict([]int{0})

	// Shed: saturate the 2-node budget, then query.
	bg := make(chan error, 1)
	go func() {
		_, err := srv.Predict([]int{0, 1})
		bg <- err
	}()
	waitPending(t, srv, 2)
	_, shedErr := srv.Predict([]int{2})
	<-bg

	_, rangeErr := srv.Predict([]int{-1})

	cases := []struct {
		name       string
		err        error
		status     int
		code       string
		retryAfter bool
	}{
		{"deadline", deadlineErr, http.StatusGatewayTimeout, "deadline", false},
		{"shed", shedErr, http.StatusServiceUnavailable, "unavailable", true},
		{"draining", ErrDraining, http.StatusServiceUnavailable, "unavailable", true},
		{"panic", ErrModelPanic, http.StatusInternalServerError, "internal", false},
		{"validation", rangeErr, http.StatusBadRequest, "bad_request", false},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatalf("%s: the server returned no error", c.name)
		}
		rec := httptest.NewRecorder()
		WriteError(rec, PredictStatus(c.err), "serve.predict", c.err)
		resp := rec.Result()
		if got := resp.Header.Get("Retry-After") != ""; got != c.retryAfter {
			t.Errorf("%s: Retry-After present = %v, want %v", c.name, got, c.retryAfter)
		}
		checkEnvelope(t, resp, c.status, c.code)
	}
}

// checkEnvelope asserts a structured error envelope with the given status
// and code, draining the body.
func checkEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error.Code != code || env.Error.Op == "" || env.Error.Msg == "" {
		t.Fatalf("envelope = %+v, want code %s", env.Error, code)
	}
}

// TestRecoverMiddleware pins panic isolation at the HTTP layer: a handler
// panic answers the structured 500 envelope instead of killing the
// connection.
func TestRecoverMiddleware(t *testing.T) {
	h := Recover("test.op", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatalf("connection died on handler panic: %v", err)
	}
	checkEnvelope(t, resp, http.StatusInternalServerError, "internal")
}

// TestRetryAfterHint pins the advisory-backoff contract WriteError stamps
// headers from.
func TestRetryAfterHint(t *testing.T) {
	if d, ok := RetryAfterHint(ErrOverloaded); !ok || d != DefaultRetryAfter {
		t.Fatalf("ErrOverloaded hint = %v %v", d, ok)
	}
	if d, ok := RetryAfterHint(ErrDraining); !ok || d != DefaultRetryAfter {
		t.Fatalf("ErrDraining hint = %v %v", d, ok)
	}
	if _, ok := RetryAfterHint(ErrDeadline); ok {
		t.Fatal("ErrDeadline must carry no retry hint")
	}
	if _, ok := RetryAfterHint(errors.New("other")); ok {
		t.Fatal("plain errors must carry no retry hint")
	}
}

// TestDrainDuringShedStorm is the graceful-drain-under-overload contract: a
// Drain issued while admission control is actively shedding still answers
// every admitted request, and every call issued after the drain began that
// was turned away reports ErrDraining (which also matches ErrClosed), never
// a hang or a lost answer. Run under -race in CI.
func TestDrainDuringShedStorm(t *testing.T) {
	ck := trainedCheckpoint(t, "SGC", 1)
	srv, err := New(ck, Options{
		MaxBatch: 4, MaxWait: 0, Seed: 1, MaxPending: 8,
		Chaos: ChaosOptions{DelayEvery: 4, Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		answered int
		sheds    int
		drained  int
		bad      []error
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				preds, err := srv.Predict([]int{(w*31 + i) % srv.Nodes()})
				mu.Lock()
				switch {
				case err == nil && len(preds) == 1:
					answered++
				case errors.Is(err, ErrOverloaded):
					sheds++
				case errors.Is(err, ErrDraining):
					if !errors.Is(err, ErrClosed) {
						bad = append(bad, errors.New("ErrDraining does not match ErrClosed"))
					}
					drained++
					mu.Unlock()
					return
				case errors.Is(err, ErrClosed):
					// A request that raced past the draining gate before the
					// dispatcher stopped: answered with the close error, not
					// lost. Acceptable exactly-once outcome.
					drained++
					mu.Unlock()
					return
				default:
					bad = append(bad, err)
					mu.Unlock()
					return
				}
				mu.Unlock()
			}
		}(w)
	}

	// Let the storm shed for a moment, then drain mid-flight.
	time.Sleep(20 * time.Millisecond)
	srv.Drain()
	close(stop)
	wg.Wait()

	if len(bad) > 0 {
		t.Fatalf("unexpected outcomes during drain storm: %v", bad)
	}
	if answered == 0 {
		t.Fatal("storm answered nothing")
	}
	// After Drain returns every new call must be ErrDraining, and it must
	// keep matching the legacy ErrClosed contract.
	_, err = srv.Predict([]int{0})
	if !errors.Is(err, ErrDraining) || !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain Predict = %v, want ErrDraining wrapping ErrClosed", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("post-drain error text %q lacks draining", err)
	}
	t.Logf("storm: answered=%d sheds=%d drained-workers=%d", answered, sheds, drained)
}
