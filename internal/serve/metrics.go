package serve

import (
	"sort"
	"sync"
	"time"
)

// latWindow bounds the latency reservoir: percentiles are computed over the
// most recent latWindow completed requests.
const latWindow = 1 << 14

// LatencyWindow is a ring of the most recent request latencies, the one
// reservoir behind every p50/p99 the serving stack reports (Snapshot here,
// the registry's per-model and per-arm stats). It is not safe for concurrent
// use; the owner's lock guards it.
type LatencyWindow struct {
	lat      []time.Duration
	next     int
	capacity int
}

// NewLatencyWindow returns an empty window over the last capacity samples.
func NewLatencyWindow(capacity int) LatencyWindow {
	return LatencyWindow{capacity: capacity}
}

// Record adds one sample, overwriting the oldest once the window is full.
func (w *LatencyWindow) Record(lat time.Duration) {
	if len(w.lat) < w.capacity {
		w.lat = append(w.lat, lat)
		return
	}
	w.lat[w.next] = lat
	w.next = (w.next + 1) % w.capacity
}

// Samples returns a copy of the window's samples in no particular order, so
// a caller can release its lock before paying for LatencyPercentiles.
func (w *LatencyWindow) Samples() []time.Duration {
	return append([]time.Duration(nil), w.lat...)
}

// LatencyPercentiles sorts samples in place and returns their median and
// 99th percentile; both are 0 for an empty slice.
func LatencyPercentiles(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], samples[(len(samples)*99)/100]
}

// Metrics accumulates per-request latency and throughput counters for one
// Server. All methods are safe for concurrent use; tests and callers only
// see it through Snapshot. Every mutation is mirrored onto the process-wide
// telemetry registry (the adafgl_serve_* families) via the cached tel
// series; the Snapshot fields themselves stay the source of truth for
// Stats(), bit-compatible with the pre-telemetry layout.
type Metrics struct {
	tel *telSeries // per-arch registry series; nil records locally only

	mu        sync.Mutex
	start     time.Time
	requests  uint64
	nodes     uint64
	batches   uint64
	shed      uint64
	deadlines uint64
	panics    uint64
	lat       LatencyWindow
}

// reset starts the metrics epoch.
func (m *Metrics) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = time.Now()
	m.requests, m.nodes, m.batches = 0, 0, 0
	m.shed, m.deadlines, m.panics = 0, 0, 0
	m.lat = NewLatencyWindow(latWindow)
}

// record accounts one completed request of n queried nodes.
func (m *Metrics) record(n int, lat time.Duration) {
	if m.tel != nil {
		m.tel.requests.Inc()
		m.tel.nodes.Add(uint64(n))
		m.tel.latency.Observe(lat.Seconds())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	m.nodes += uint64(n)
	m.lat.Record(lat)
}

// recordBatch accounts one executed batch window.
func (m *Metrics) recordBatch() {
	if m.tel != nil {
		m.tel.batches.Inc()
	}
	m.mu.Lock()
	m.batches++
	m.mu.Unlock()
}

// recordShed accounts one Predict call rejected by admission control.
func (m *Metrics) recordShed() {
	if m.tel != nil {
		m.tel.shed.Inc()
	}
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// recordDeadline accounts one Predict call that missed its deadline.
func (m *Metrics) recordDeadline() {
	if m.tel != nil {
		m.tel.deadlines.Inc()
	}
	m.mu.Lock()
	m.deadlines++
	m.mu.Unlock()
}

// recordPanic accounts one Predict call failed by an engine panic.
func (m *Metrics) recordPanic() {
	if m.tel != nil {
		m.tel.panics.Inc()
	}
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// Snapshot is a point-in-time view of a Server's serving metrics.
type Snapshot struct {
	// Requests is the number of completed Predict calls.
	Requests uint64 `json:"requests"`
	// Nodes is the total number of node queries answered.
	Nodes uint64 `json:"nodes"`
	// Batches is the number of executed batch windows.
	Batches uint64 `json:"batches"`
	// Shed is the number of Predict calls rejected by admission control
	// (ErrOverloaded).
	Shed uint64 `json:"shed"`
	// Deadlines is the number of Predict calls that missed their deadline
	// (ErrDeadline).
	Deadlines uint64 `json:"deadlines"`
	// Panics is the number of Predict calls failed by a recovered engine
	// panic (ErrModelPanic).
	Panics uint64 `json:"panics"`
	// MeanBatch is Nodes/Batches — the achieved coalescing factor.
	MeanBatch float64 `json:"mean_batch"`
	// P50 and P99 are request-latency percentiles over the recent window.
	P50 time.Duration `json:"p50_ns"`
	// P99 is the 99th-percentile request latency.
	P99 time.Duration `json:"p99_ns"`
	// Elapsed is the time since the server started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// QueriesPerSec is Nodes/Elapsed — end-to-end node-query throughput.
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// snapshot computes the current Snapshot. The latency window is copied
// under the lock but sorted outside it: sorting 16K samples must not stall
// the dispatcher's record() path (and with it every in-flight Predict)
// while a stats poller computes percentiles.
func (m *Metrics) snapshot() Snapshot {
	m.mu.Lock()
	s := Snapshot{
		Requests: m.requests, Nodes: m.nodes, Batches: m.batches,
		Shed: m.shed, Deadlines: m.deadlines, Panics: m.panics,
		Elapsed: time.Since(m.start),
	}
	if m.batches > 0 {
		s.MeanBatch = float64(m.nodes) / float64(m.batches)
	}
	if s.Elapsed > 0 {
		s.QueriesPerSec = float64(m.nodes) / s.Elapsed.Seconds()
	}
	samples := m.lat.Samples()
	m.mu.Unlock()

	s.P50, s.P99 = LatencyPercentiles(samples)
	return s
}
