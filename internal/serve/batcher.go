package serve

import (
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/telemetry"
)

// request is one in-flight Predict call from enqueue to completion. A
// non-zero deadline is enforced twice: by the caller's context select while
// waiting, and by the dispatcher when it opens the window — an expired
// request is failed with ErrDeadline instead of computed, so a stale caller
// never costs engine work. trace is the caller's telemetry trace ID, carried
// so the window span joins the same trace.
type request struct {
	nodes []int
	trace telemetry.TraceID
	// traced marks requests whose caller context carried the trace (HTTP
	// requests via the TraceHTTP middleware); only those pay for span
	// recording — embedded Predict calls stay span-free on the hot path.
	traced   bool
	enq      time.Time
	deadline time.Time
	preds    []Prediction
	err      error
	done     chan struct{}
}

// dispatch is the batching loop: one goroutine coalesces queued requests
// into windows of at most MaxBatch queried nodes, waiting at most MaxWait for
// a window to fill. Window boundaries can never change results — every
// per-node answer is a copy of its own row of the immutable table.
func (s *Server) dispatch() {
	defer close(s.stopped)
	for {
		var first *request
		select {
		case first = <-s.queue:
		case <-s.quit:
			s.failPending()
			return
		}
		batch := []*request{first}
		n := len(first.nodes)
		if s.opt.MaxWait > 0 && n < s.opt.MaxBatch {
			timer := time.NewTimer(s.opt.MaxWait)
		fill:
			for n < s.opt.MaxBatch {
				select {
				case r := <-s.queue:
					batch = append(batch, r)
					n += len(r.nodes)
				case <-timer.C:
					break fill
				case <-s.quit:
					// Serve what is already collected, then unwind.
					timer.Stop()
					s.runBatch(batch)
					s.failPending()
					return
				}
			}
			timer.Stop()
		} else {
			// Immediate mode: take whatever is already queued, never block.
		drain:
			for n < s.opt.MaxBatch {
				select {
				case r := <-s.queue:
					batch = append(batch, r)
					n += len(r.nodes)
				default:
					break drain
				}
			}
		}
		s.runBatch(batch)
	}
}

// failPending drains the queue after Close and fails the callers.
func (s *Server) failPending() {
	for {
		select {
		case r := <-s.queue:
			r.err = ErrClosed
			close(r.done)
		default:
			return
		}
	}
}

// runBatch answers one window: requests whose deadline already lapsed are
// failed with ErrDeadline without costing engine work, then the rows of the
// surviving queried nodes are gathered from the logits table and scattered
// back per request. Dropping expired requests never changes survivors'
// answers: every per-node result is a copy of its own table row, so window
// composition cannot leak between rows. A panic in the window (injected
// chaos) is recovered here and fails only this window's live requests with
// ErrModelPanic — the dispatcher, and with it the server, keeps running.
func (s *Server) runBatch(batch []*request) {
	s.windows++
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			r.err = fmt.Errorf("serve: Predict: expired before batch window: %w", ErrDeadline)
			close(r.done)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	var ids []int
	for _, r := range live {
		ids = append(ids, r.nodes...)
	}
	// The window's span joins the first traced live request's trace: batch
	// windows have no identity of their own. Windows with no traced request
	// (embedded callers) skip the span entirely.
	var wsp *telemetry.Span
	for _, r := range live {
		if r.traced {
			wsp = telemetry.DefaultTracer().Span(r.trace, "serve.window")
			break
		}
	}
	rows, err := s.safeLogitsFor(ids)
	if wsp != nil {
		wsp.Attr("requests", len(live)).Attr("nodes", len(ids)).End()
	}
	if err != nil {
		for _, r := range live {
			r.err = err
			close(r.done)
		}
		return
	}

	off := 0
	for _, r := range live {
		r.preds = make([]Prediction, len(r.nodes))
		for i, node := range r.nodes {
			row := rows.Row(off + i)
			logits := append([]float64(nil), row...)
			r.preds[i] = Prediction{Node: node, Class: rowArgmax(row), Logits: logits}
		}
		off += len(r.nodes)
		s.tel.requests.Inc()
		s.tel.nodes.Add(uint64(len(r.nodes)))
		s.tel.latency.Observe(time.Since(r.enq).Seconds())
		close(r.done)
	}
	s.tel.batches.Inc()
	// The pending gauge is sampled every 64th window (from the admission
	// counter the budget is enforced against) instead of updated on every
	// Predict: the gauge is a load indicator, and sampling it keeps the
	// per-request path free of gauge traffic.
	if s.windows%64 == 0 {
		s.tel.pending.Set(float64(s.pending.Load()))
	}
}

// safeLogitsFor returns the class-score rows for ids, in order: a row gather
// from the logits table, whatever the architecture, copied into a fresh
// matrix so no caller ever holds a view into the table. It runs behind a
// recover barrier, converting a panic — the chaos schedule's injected faults
// — into an ErrModelPanic the window's requests fail with. The fault schedule
// keys off s.windows, owned by this (the dispatcher's) goroutine, so a
// seeded scenario injects the same faults at the same windows on every run.
func (s *Server) safeLogitsFor(ids []int) (rows *matrix.Dense, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rows = nil
			err = fmt.Errorf("serve: Predict: engine panic: %v: %w", rec, ErrModelPanic)
		}
	}()
	if c := s.opt.Chaos; c.active() {
		if c.DelayEvery > 0 && c.Delay > 0 && s.windows%c.DelayEvery == 0 {
			time.Sleep(c.Delay)
		}
		if c.PanicEvery > 0 && s.windows%c.PanicEvery == 0 {
			panic(fmt.Sprintf("chaos: injected engine panic at window %d", s.windows))
		}
	}
	rows = matrix.New(len(ids), s.table.Cols)
	for i, id := range ids {
		copy(rows.Row(i), s.table.Row(id))
	}
	return rows, nil
}

// rowArgmax returns the first index of the row maximum (the tie rule of
// matrix.ArgmaxRows, applied to one row).
func rowArgmax(row []float64) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}
