package telemetry

import (
	"runtime"
	rtm "runtime/metrics"
)

// RegisterRuntimeGauges registers Go runtime health gauges on r, read fresh
// at every scrape via runtime/metrics: goroutine count, heap bytes, total GC
// cycles and GOMAXPROCS. Callers (the serving binary) invoke it once at
// startup; re-registration is a no-op.
func RegisterRuntimeGauges(r *Registry) {
	r.GaugeFunc("go_goroutines", "Number of live goroutines.",
		runtimeSample("/sched/goroutines:goroutines"))
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		runtimeSample("/memory/classes/heap/objects:bytes"))
	r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles since process start.",
		runtimeSample("/gc/cycles/total:gc-cycles"))
	r.GaugeFunc("go_gomaxprocs", "Value of GOMAXPROCS.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}

// runtimeSample returns a callback reading one runtime/metrics sample as a
// float64 (0 when the metric is unknown to this Go version).
func runtimeSample(name string) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: name}}
		rtm.Read(s)
		switch s[0].Value.Kind() {
		case rtm.KindUint64:
			return float64(s[0].Value.Uint64())
		case rtm.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
}

// RuntimeSnapshot reads every scalar metric the Go runtime exports
// (runtime/metrics) into a sorted-key map, for the -pprof-addr debug
// endpoint's JSON snapshot. Histogram-kind metrics are skipped.
func RuntimeSnapshot() map[string]float64 {
	descs := rtm.All()
	samples := make([]rtm.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	rtm.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case rtm.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case rtm.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}
