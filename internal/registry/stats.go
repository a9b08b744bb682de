package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/serve"
)

// statsWindow bounds the per-model latency reservoir: percentiles cover the
// most recent statsWindow requests of that model.
const statsWindow = 1 << 12

// latencyWindow is a ring of the most recent request latencies, the
// reservoir behind every p50/p99 the registry reports (per version and per
// A/B arm). It is not safe for concurrent use; Registry.mu guards it.
type latencyWindow struct {
	lat      []time.Duration
	next     int
	capacity int
}

// newLatencyWindow returns an empty window over the last capacity samples.
func newLatencyWindow(capacity int) latencyWindow {
	return latencyWindow{capacity: capacity}
}

// record adds one sample, overwriting the oldest once the window is full.
func (w *latencyWindow) record(lat time.Duration) {
	if len(w.lat) < w.capacity {
		w.lat = append(w.lat, lat)
		return
	}
	w.lat[w.next] = lat
	w.next = (w.next + 1) % w.capacity
}

// samples returns a copy of the window's samples in no particular order, so
// the caller can release Registry.mu before paying for latencyPercentiles.
func (w *latencyWindow) samples() []time.Duration {
	return append([]time.Duration(nil), w.lat...)
}

// latencyPercentiles sorts samples in place and returns their median and
// 99th percentile; both are 0 for an empty slice.
func latencyPercentiles(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], samples[(len(samples)*99)/100]
}

// modelStats accumulates the per-model (name@version) serving counters that
// survive swaps and server restarts: request/node totals, online accuracy
// against the serving graph's labels, and a recent-latency reservoir.
// Guarded by Registry.mu.
type modelStats struct {
	requests, nodes   uint64
	labelled, correct uint64
	lat               latencyWindow
	totalLat          time.Duration
}

// newModelStats returns zeroed counters over an empty statsWindow reservoir.
func newModelStats() modelStats {
	return modelStats{lat: newLatencyWindow(statsWindow)}
}

// record accounts one completed predict of n nodes, of which labelled
// carried ground-truth labels and correct were classified right.
func (s *modelStats) record(n, labelled, correct int, lat time.Duration) {
	s.requests++
	s.nodes += uint64(n)
	s.labelled += uint64(labelled)
	s.correct += uint64(correct)
	s.totalLat += lat
	s.lat.record(lat)
}

// copyLocked returns the counters with a private copy of the latency
// samples; Registry.mu must be held. Render the copy with view after
// unlocking: every predict takes Registry.mu twice, so sorting a full
// reservoir under it would stall the traffic of every model.
func (s *modelStats) copyLocked() modelStats {
	c := *s
	c.lat.lat = s.lat.samples()
	return c
}

// ArmStats is the JSON view of one model's cumulative serving counters —
// the per-model half of the v1 stats endpoint and one arm of an A/B report.
type ArmStats struct {
	// Requests and Nodes are completed predict calls and node queries.
	Requests uint64 `json:"requests"`
	Nodes    uint64 `json:"nodes"`
	// Labelled and Correct count queried nodes with ground-truth labels and
	// those classified correctly; Accuracy is their ratio (the online
	// accuracy of the paper's live comparison).
	Labelled uint64  `json:"labelled"`
	Correct  uint64  `json:"correct"`
	Accuracy float64 `json:"accuracy"`
	// MeanLat, P50 and P99 summarise per-request latency (P50/P99 over the
	// recent window).
	MeanLat time.Duration `json:"mean_lat_ns"`
	P50     time.Duration `json:"p50_ns"`
	P99     time.Duration `json:"p99_ns"`
}

// view renders the counters, sorting the latency samples in place: call it
// on a copyLocked copy, outside Registry.mu.
func (s *modelStats) view() ArmStats {
	a := ArmStats{
		Requests: s.requests, Nodes: s.nodes,
		Labelled: s.labelled, Correct: s.correct,
	}
	if s.labelled > 0 {
		a.Accuracy = float64(s.correct) / float64(s.labelled)
	}
	if s.requests > 0 {
		a.MeanLat = s.totalLat / time.Duration(s.requests)
	}
	a.P50, a.P99 = latencyPercentiles(s.lat.lat)
	return a
}

// ModelStats is the full v1 stats payload for one model name: the active
// version and cumulative per-version counters.
type ModelStats struct {
	// Name is the model line; ActiveVersion the version answering bare-name
	// requests.
	Name          string `json:"name"`
	ActiveVersion int    `json:"active_version"`
	// Versions maps "version" to that artifact's cumulative counters.
	Versions map[string]ArmStats `json:"versions"`
}

// Stats assembles the v1 stats payload for name. The counters are copied
// under Registry.mu and rendered after it is released.
func (r *Registry) Stats(name string) (*ModelStats, error) {
	r.mu.Lock()
	m := r.models[name]
	if m == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: Stats: unknown model %q: %w", name, ErrNotFound)
	}
	st := &ModelStats{Name: name, ActiveVersion: m.active, Versions: make(map[string]ArmStats, len(m.versions))}
	copies := make(map[int]modelStats, len(m.versions))
	for v, e := range m.versions {
		copies[v] = e.stats.copyLocked()
	}
	r.mu.Unlock()
	for v, c := range copies {
		st.Versions[fmt.Sprintf("%d", v)] = c.view()
	}
	return st, nil
}

// Predict routes one prediction through the registry: ref's model is
// acquired (starting it if needed), queried, and its per-model counters
// updated — including online accuracy for labelled nodes. When the A/B
// splitter is configured and ref resolves to the control model's active
// version, the request is split between control and candidate by the
// deterministic per-node hash instead.
func (r *Registry) Predict(ref string, nodes []int) ([]serve.Prediction, error) {
	return r.PredictCtx(context.Background(), ref, nodes)
}

// PredictCtx is Predict under a caller context: deadlines apply to the
// underlying serve call, and a telemetry trace ID carried by ctx (injected
// by the TraceHTTP middleware) threads through the server's request span
// into the batching window's.
func (r *Registry) PredictCtx(ctx context.Context, ref string, nodes []int) ([]serve.Prediction, error) {
	name, version, err := ParseRef(ref)
	if err != nil {
		return nil, fmt.Errorf("registry: Predict: %w", err)
	}
	if version == 0 {
		if cfg, ok := r.ABActive(); ok && name == cfg.Control {
			return r.predictAB(ctx, cfg, nodes)
		}
	}
	preds, _, _, _, err := r.predictOn(ctx, name, version, nodes)
	return preds, err
}

// predictOn answers nodes on name@version (0 = active), recording the
// model's counters, and reports the scoring and latency so A/B arm
// accounting can reuse them without re-acquiring the model. Engine panics
// (serve.ErrModelPanic) count toward the model's circuit breaker — sheds,
// deadlines and validation errors are the client's or the load's fault, not
// the model's, and do not; a successful predict closes the breaker.
func (r *Registry) predictOn(ctx context.Context, name string, version int, nodes []int) (preds []serve.Prediction, labelled, correct int, lat time.Duration, err error) {
	h, err := r.acquire(name, version)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer h.Release()
	start := time.Now()
	preds, err = h.Server().PredictCtx(ctx, nodes)
	if err != nil {
		if errors.Is(err, serve.ErrModelPanic) {
			r.mu.Lock()
			r.recordFailureLocked(h.e, err)
			r.mu.Unlock()
		}
		return nil, 0, 0, 0, err
	}
	lat = time.Since(start)
	labelled, correct = scorePreds(h.Server(), preds)
	h.e.predicts.Inc()
	r.mu.Lock()
	r.recordSuccessLocked(h.e)
	h.e.stats.record(len(nodes), labelled, correct, lat)
	r.mu.Unlock()
	return preds, labelled, correct, lat, nil
}

// scorePreds counts labelled nodes and correct classifications among preds.
func scorePreds(s *serve.Server, preds []serve.Prediction) (labelled, correct int) {
	for _, p := range preds {
		if want, ok := s.Label(p.Node); ok {
			labelled++
			if p.Class == want {
				correct++
			}
		}
	}
	return labelled, correct
}
