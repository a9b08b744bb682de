package serve

import "repro/internal/telemetry"

// Serving-layer metric families on the process-wide telemetry registry, one
// series per served architecture. They are the serving layer's only count of
// its requests, windows and failures: per-model and per-arm stats live in the
// registry package, which counts what it routes.
var (
	telRequests = telemetry.Default().CounterVec("adafgl_serve_requests_total",
		"Completed Predict calls.", "arch")
	telNodes = telemetry.Default().CounterVec("adafgl_serve_nodes_total",
		"Node queries answered.", "arch")
	telBatches = telemetry.Default().CounterVec("adafgl_serve_batches_total",
		"Executed batch windows.", "arch")
	telShed = telemetry.Default().CounterVec("adafgl_serve_shed_total",
		"Predict calls rejected by admission control.", "arch")
	telDeadlines = telemetry.Default().CounterVec("adafgl_serve_deadline_total",
		"Predict calls that missed their deadline.", "arch")
	telPanics = telemetry.Default().CounterVec("adafgl_serve_panics_total",
		"Predict calls failed by a recovered engine panic.", "arch")
	telLatency = telemetry.Default().HistogramVec("adafgl_serve_request_latency_seconds",
		"End-to-end Predict latency.", telemetry.LatencyBuckets, "arch")
	telPending = telemetry.Default().GaugeVec("adafgl_serve_pending_nodes",
		"Admitted-but-unanswered queried nodes.", "arch")
)

// telSeries caches one server's resolved telemetry series so the hot path
// never pays a family map lookup.
type telSeries struct {
	requests, nodes, batches *telemetry.Counter
	shed, deadlines, panics  *telemetry.Counter
	latency                  *telemetry.Histogram
	pending                  *telemetry.Gauge
}

// newTelSeries resolves the per-arch series once at server construction.
func newTelSeries(arch string) *telSeries {
	return &telSeries{
		requests:  telRequests.With(arch),
		nodes:     telNodes.With(arch),
		batches:   telBatches.With(arch),
		shed:      telShed.With(arch),
		deadlines: telDeadlines.With(arch),
		panics:    telPanics.With(arch),
		latency:   telLatency.With(arch),
		pending:   telPending.With(arch),
	}
}
