// Package telemetry is the unified observability plane of the AdaFGL
// reproduction: a process-wide, dependency-free metrics registry (atomic
// counters, gauges, bounded histograms, labeled families) with Prometheus
// text-format exposition, plus a lightweight span tracer that threads
// per-request trace IDs through context.Context and records sampled
// structured span events. Every runtime layer (serve, registry, shard, graph,
// federated, parallel) instruments itself onto the Default registry; the
// serving binary exposes it as GET /v1/metrics and optionally wires
// net/http/pprof and runtime/metrics snapshots behind -pprof-addr.
//
// The design invariant is that telemetry can never change results:
// instruments only observe — they never feed back into control flow, RNG
// streams or numeric kernels — so predictions and training runs are
// bit-identical whether telemetry is enabled or disabled (enforced by the
// bit-identity suites in internal/serve and internal/federated, and measured
// by `adafgl-bench -exp obs`). SetEnabled(false) turns every mutation into a
// cheap no-op for baseline measurements.
//
// Metric naming follows the Prometheus convention
// adafgl_<subsystem>_<metric>[_<unit>][_total]; the full reference table
// lives in README.md.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide telemetry switch. Mutations (counter adds,
// gauge sets, histogram observes, span recording) are no-ops while it is
// false; registration and exposition always work.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the process-wide telemetry switch and returns the
// previous value so tests and benchmarks can restore it. Disabling freezes
// every instrument at its current value; it never unregisters anything.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether telemetry mutations are currently recorded.
func Enabled() bool { return enabled.Load() }

// Kind classifies a metric family for the TYPE exposition line.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down (or is read from a
	// callback at scrape time).
	KindGauge
	// KindHistogram is a bounded-bucket distribution with sum and count.
	KindHistogram
)

// String renders the Prometheus TYPE token.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use; registration is idempotent (the same name returns the same
// family) and a name re-registered with a different kind or label set panics,
// because silently forking a metric is a programmer error no scrape would
// ever surface.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: fixed kind, label names and (for
// histograms) bucket bounds, with one series per distinct label-value tuple.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	buckets    []float64

	mu     sync.Mutex
	series map[string]any // *Counter / *Gauge / *Histogram, keyed by joined label values
}

// NewRegistry creates an empty registry. Most callers want Default instead,
// so every layer's families land on one scrape surface.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every runtime layer instruments
// itself onto — the one GET /v1/metrics exposes.
func Default() *Registry { return defaultRegistry }

// seriesSep joins label values into a series key; \xff cannot appear in
// valid UTF-8 label text positions that would collide.
const seriesSep = "\xff"

// checkMetricName validates a Prometheus metric or label name.
func checkMetricName(kind, name string) {
	if name == "" {
		panic(fmt.Sprintf("telemetry: empty %s name", kind))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid %s name %q", kind, name))
		}
	}
}

// register returns the family for name, creating it on first use and
// verifying kind/labels/buckets agree on every later use.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	checkMetricName("metric", name)
	for _, l := range labels {
		checkMetricName("label", l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, not %s", name, f.kind, kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s already registered with labels %v", name, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: %s already registered with labels %v", name, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
	}
	r.families[name] = f
	return f
}

// get returns the series for the joined label-value key, creating it with
// make on first use.
func (f *family) get(key string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	return s
}

// checkArity panics unless vals matches the family's label names.
func (f *family) checkArity(vals []string) {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s: %d label values for labels %v", f.name, len(vals), f.labels))
	}
}

// key joins label values into the series map key.
func key(vals []string) string {
	switch len(vals) {
	case 0:
		return ""
	case 1:
		return vals[0]
	}
	k := vals[0]
	for _, v := range vals[1:] {
		k += seriesSep + v
	}
	return k
}

// sortedFamilies snapshots the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries snapshots a family's series in label-value order, returning
// parallel key and value slices.
func (f *family) sortedSeries() ([]string, []any) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]any, len(keys))
	for i, k := range keys {
		vals[i] = f.series[k]
	}
	f.mu.Unlock()
	return keys, vals
}
