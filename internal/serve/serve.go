// Package serve is the batched inference layer of the AdaFGL reproduction:
// it answers concurrent node-classification queries against a trained
// model's logits by coalescing them into batch windows. One server is one
// immutable checkpoint on one immutable graph, so its answers are a
// constant — the N×C logits table Alg. 2 calls Ẑ — and that table is the
// server's whole answer state for every architecture. A server is born with
// it: the checkpoint carries it (checkpoint.FromResult filled it at export),
// New reads it without running any model code, and every window is a row
// gather. Predictions are bit-identical for every batch size, batch window
// and worker count. The server is a Go API (Predict/PredictAll); its HTTP
// surface is the registry package's v1 API, which this package supplies with
// the request decoders, the error envelope and the panic-recovery
// middleware.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/matrix"
	"repro/internal/telemetry"
)

// Options configures the batching behaviour of a Server.
type Options struct {
	// MaxBatch is the number of queried nodes that closes a batch window
	// early. 1 disables coalescing (every request is its own window);
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// MaxWait bounds how long the first request of a window waits for
	// company before the batch runs anyway. 0 flushes as soon as the queue
	// is drained (lowest latency, still coalescing under concurrency);
	// negative selects DefaultMaxWait.
	MaxWait time.Duration
	// MaxPending is the admission-control budget: the total number of
	// queried nodes admitted but not yet answered. A Predict call that would
	// push the pending total past the budget is shed immediately with
	// ErrOverloaded (HTTP 503 + Retry-After) instead of queueing unboundedly.
	// A request larger than the whole budget is still admitted when nothing
	// else is pending, so full-graph queries always make progress. 0 selects
	// DefaultMaxPending; negative disables admission control.
	MaxPending int
	// RequestTimeout is the per-request deadline Predict applies when the
	// caller's context carries none. A request whose deadline passes before
	// its batch window runs fails with ErrDeadline (HTTP 504) while the rest
	// of the window completes normally — survivors' answers stay
	// bit-identical. 0 disables the server-side deadline.
	RequestTimeout time.Duration
	// Seed is inert: nothing reads it, since a server runs no model code
	// (the checkpoint carries its logits table). It stays only because the
	// repository benchmark sets it; ROADMAP item 1(b) deletes it.
	Seed int64
	// Chaos injects deterministic faults into the batch engine for the
	// torture harness and resilience tests. The zero value injects nothing.
	Chaos ChaosOptions
}

// DefaultMaxBatch is the batch-window node budget used when
// Options.MaxBatch is 0.
const DefaultMaxBatch = 64

// DefaultMaxWait is the batch-window deadline used when Options.MaxWait is
// negative.
const DefaultMaxWait = 2 * time.Millisecond

// DefaultMaxPending is the admission-control budget (in queued nodes) used
// when Options.MaxPending is 0.
const DefaultMaxPending = 1 << 14

// ErrClosed is the failure every Predict call sinks to once the server has
// been closed; test with errors.Is.
var ErrClosed = errors.New("serve: Predict: server closed")

// ErrDraining is the failure new Predict calls sink to while Drain retires
// the server: admitted requests are still answered, new ones are turned away.
// It wraps ErrClosed, so existing errors.Is(err, ErrClosed) checks keep
// matching; test for the draining phase specifically with
// errors.Is(err, ErrDraining).
var ErrDraining = fmt.Errorf("serve: Predict: server draining: %w", ErrClosed)

// ErrOverloaded marks a Predict call shed by admission control: the pending
// node budget (Options.MaxPending) was exhausted. The HTTP layer maps it to
// 503 with a Retry-After header; test with errors.Is.
var ErrOverloaded = errors.New("serve: Predict: overloaded: pending-node budget exhausted")

// ErrDeadline marks a Predict call that missed its deadline (the caller's
// context deadline or Options.RequestTimeout) before or while its batch
// window ran. The HTTP layer maps it to 504; test with errors.Is.
var ErrDeadline = errors.New("serve: Predict: request deadline exceeded")

// ErrModelPanic marks a batch window that panicked, which the dispatcher
// recovers by failing only that window's requests with this error (HTTP 500)
// while it keeps serving. The registry's circuit breaker counts it toward
// tripping the model. Test with errors.Is.
var ErrModelPanic = errors.New("serve: Predict: model engine panicked")

// Prediction is the answer for one queried node.
type Prediction struct {
	// Node is the queried node id.
	Node int `json:"node"`
	// Class is the argmax predicted class.
	Class int `json:"class"`
	// Logits is the full class-score row for the node.
	Logits []float64 `json:"logits"`
}

// Server is an embedded batched-inference server bound to one checkpointed
// model. Concurrent Predict calls are coalesced by a single dispatcher into
// batch windows, each answered by a row gather from the server's logits
// table. Create with New (or NewFromTable), release with Close.
type Server struct {
	arch string

	// table is the whole answer state: the N×C logits, filled before the
	// server existed and never written again (checkpoint and graph are
	// immutable), so windows read it without a lock. labels are the nodes'
	// ground-truth classes for online-accuracy accounting, nil when the
	// graph is unlabelled.
	table  *matrix.Dense
	labels []int

	opt     Options
	queue   chan *request
	quit    chan struct{}
	stopped chan struct{}
	once    sync.Once

	// draining gates new Predict admissions during Drain; inflight counts
	// admitted Predict calls that have not returned yet, so Drain knows when
	// every accepted request has been answered.
	draining atomic.Bool
	inflight atomic.Int64

	// pending counts admitted-but-unanswered queried nodes — the admission
	// budget MaxPending is enforced against. windows counts executed batch
	// windows; it is owned by the dispatcher goroutine and drives the
	// deterministic chaos fault schedule.
	pending atomic.Int64
	windows int

	// tel is the server's per-arch telemetry series, the one place a served
	// request, window or failure is counted.
	tel *telSeries
}

// withDefaults resolves the Options defaults.
func (opt Options) withDefaults() (Options, error) {
	if opt.MaxBatch == 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	if opt.MaxBatch < 1 {
		return opt, fmt.Errorf("serve: New: MaxBatch %d < 1", opt.MaxBatch)
	}
	if opt.MaxWait < 0 {
		opt.MaxWait = DefaultMaxWait
	}
	if opt.MaxPending == 0 {
		opt.MaxPending = DefaultMaxPending
	}
	if opt.RequestTimeout < 0 {
		return opt, fmt.Errorf("serve: New: RequestTimeout %v < 0", opt.RequestTimeout)
	}
	return opt, nil
}

// New starts a server over the checkpoint's logits table (checkpoint.Table:
// the table FromResult filled at export and Decode read back). It runs no
// model code.
func New(ck *checkpoint.Checkpoint, opt Options) (*Server, error) {
	table, err := ck.Table()
	if err != nil {
		return nil, fmt.Errorf("serve: New: %w", err)
	}
	return NewFromTable(ck.Arch, table, ck.Graph.Labels, opt)
}

// NewFromTable starts a server over an already-filled logits table: one row
// of class scores per node, labels (nil for an unlabelled graph) one class
// per row. New passes a checkpoint's table; shard.Table fills one from a
// sharded graph. The server keeps table and labels and never writes them.
func NewFromTable(arch string, table *matrix.Dense, labels []int, opt Options) (*Server, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if table == nil {
		return nil, fmt.Errorf("serve: NewFromTable: nil table")
	}
	if labels != nil && len(labels) != table.Rows {
		return nil, fmt.Errorf("serve: NewFromTable: %d labels for %d table rows", len(labels), table.Rows)
	}
	s := &Server{
		arch: arch, table: table, labels: labels, opt: opt,
		queue:   make(chan *request, 4*opt.MaxBatch),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		tel:     newTelSeries(arch),
	}
	go s.dispatch()
	return s, nil
}

// Arch returns the served architecture's registry name.
func (s *Server) Arch() string { return s.arch }

// Nodes returns the number of servable nodes (the table's rows).
func (s *Server) Nodes() int { return s.table.Rows }

// Classes returns the number of output classes (the table's columns).
func (s *Server) Classes() int { return s.table.Cols }

// Predict classifies the given nodes, blocking until the batch window
// containing them has run. Node ids outside the graph yield a named-op
// error before any work is enqueued; a closed server yields an error too.
// Results are bit-identical for every batch size, window and worker count.
// Equivalent to PredictCtx with a background context: the only deadline is
// Options.RequestTimeout, the only shed admission control.
func (s *Server) Predict(nodes []int) ([]Prediction, error) {
	return s.PredictCtx(context.Background(), nodes)
}

// PredictCtx is Predict under a caller-supplied context. The effective
// deadline is the context's when it carries one, else Options.RequestTimeout
// when set; a request that misses it — queued too long, or stuck behind a
// slow batch window — fails with ErrDeadline while the rest of its window
// completes normally with bit-identical answers. Requests that would exceed
// the pending-node budget (Options.MaxPending) are shed immediately with
// ErrOverloaded. Every admitted request is answered exactly once: with
// predictions, or with exactly one of ErrDeadline/ErrModelPanic/ErrClosed.
func (s *Server) PredictCtx(ctx context.Context, nodes []int) ([]Prediction, error) {
	preds, err := s.predictCtx(ctx, nodes)
	// The failure modes are counted here, at the single point every Predict
	// outcome funnels through, so a request shed or expired on either side
	// (caller or dispatcher) is counted exactly once.
	switch {
	case errors.Is(err, ErrOverloaded):
		s.tel.shed.Inc()
	case errors.Is(err, ErrDeadline):
		s.tel.deadlines.Inc()
	case errors.Is(err, ErrModelPanic):
		s.tel.panics.Inc()
	}
	return preds, err
}

// predictCtx validates, admits, enqueues and awaits one request.
func (s *Server) predictCtx(ctx context.Context, nodes []int) ([]Prediction, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("serve: Predict: empty node list")
	}
	for _, v := range nodes {
		if v < 0 || v >= s.Nodes() {
			return nil, fmt.Errorf("serve: Predict: node %d outside graph of %d nodes", v, s.Nodes())
		}
	}
	// Admission control for Drain: the inflight increment must precede the
	// draining check (both are sequentially consistent atomics), so Drain —
	// which stores draining before polling inflight — either turns this call
	// away here or observes its inflight count and waits for its answer.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		return nil, ErrDraining
	}
	// Admission control for load: shed when the pending-node budget is
	// exhausted — unless nothing is pending, so one request larger than the
	// whole budget (a full-graph query) still makes progress.
	n := int64(len(nodes))
	if budget := int64(s.opt.MaxPending); budget > 0 {
		for {
			cur := s.pending.Load()
			if cur > 0 && cur+n > budget {
				return nil, fmt.Errorf("serve: Predict: %d nodes pending, %d more would exceed budget %d: %w",
					cur, n, budget, ErrOverloaded)
			}
			if s.pending.CompareAndSwap(cur, cur+n) {
				break
			}
		}
	} else {
		s.pending.Add(n)
	}
	defer s.pending.Add(-n)

	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && s.opt.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.RequestTimeout)
		defer cancel()
		deadline, hasDeadline = ctx.Deadline()
	}
	// The trace ID rides the request struct (not a context) so the
	// dispatcher can stamp window spans without touching caller contexts.
	// Only callers that arrive WITH a trace (the HTTP middleware injects
	// one for every request) get spans; embedded in-process Predict calls
	// mint an ID for correlation — a single atomic add that never touches
	// any seeded RNG stream — but pay no recording cost on the hot path.
	trace, hasTrace := telemetry.TraceFrom(ctx)
	if !hasTrace {
		trace = telemetry.NewTraceID()
	}
	req := &request{
		nodes:  append([]int(nil), nodes...),
		trace:  trace,
		traced: hasTrace,
		enq:    time.Now(),
		done:   make(chan struct{}),
	}
	if hasDeadline {
		req.deadline = deadline
	}
	if hasTrace {
		sp := telemetry.DefaultTracer().Span(trace, "serve.request")
		defer func() {
			if sp != nil {
				sp.Attr("arch", s.arch).Attr("nodes", len(nodes)).End()
			}
		}()
	}
	select {
	case s.queue <- req:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: Predict: expired before enqueue: %w", ErrDeadline)
	case <-s.quit:
		return nil, ErrClosed
	}
	// The enqueue above can win its select race against a concurrent Close
	// (both channels ready), leaving the request in a queue no dispatcher
	// will drain — so waiting must also watch for dispatcher exit. A context
	// expiry while waiting abandons the answer (the dispatcher will also
	// notice the lapsed deadline and skip the work when it opens the window).
	select {
	case <-req.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: Predict: expired in queue: %w", ErrDeadline)
	case <-s.stopped:
		select {
		case <-req.done: // answered (or failed) during shutdown
		default:
			return nil, ErrClosed
		}
	}
	return req.preds, req.err
}

// PredictAll classifies every node of the graph — the full-graph warm path.
func (s *Server) PredictAll() ([]Prediction, error) {
	nodes := make([]int, s.Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	return s.Predict(nodes)
}

// Label returns node's ground-truth class and whether the serving graph
// carries a label for it. The registry layer uses it for online-accuracy
// accounting (per-model stats, A/B reports) without reaching into the graph.
func (s *Server) Label(node int) (int, bool) {
	if node < 0 || node >= len(s.labels) {
		return 0, false
	}
	return s.labels[node], true
}

// Drain gracefully retires the server: new Predict calls are turned away
// with ErrDraining (which wraps ErrClosed) immediately, every
// already-admitted call is answered by the dispatcher as usual, and only
// then is the batcher stopped. Safe to call
// more than once and concurrently with Close; blocks until the dispatcher
// has exited. This is what lets a registry swap checkpoints with zero
// dropped requests: in-flight batch windows finish on the old model while
// new requests route to the new one.
func (s *Server) Drain() {
	s.draining.Store(true)
	for s.inflight.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	s.Close()
}

// Close stops the dispatcher and fails queued and future Predict calls.
// Safe to call more than once; blocks until the dispatcher has exited.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	<-s.stopped
}
