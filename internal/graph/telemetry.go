package graph

import "repro/internal/telemetry"

// Cache telemetry: one counter family over the graph's lazily built caches —
// norm_adj is the normalised adjacency and its propagation plan (one entry:
// NormAdj is NormAdjPlan's matrix), propagated_x the cached first hop Ã·X. A
// miss is a rebuild; an invalidate is a populated cache dropped by a topology
// mutation. Observation only: no lookup consults a counter.
var (
	telCache = telemetry.Default().CounterVec("adafgl_graph_cache_total",
		"Graph cache lookups and invalidations.", "cache", "result")

	telNormHit         = telCache.With("norm_adj", "hit")
	telNormMiss        = telCache.With("norm_adj", "miss")
	telNormInvalidate  = telCache.With("norm_adj", "invalidate")
	telPropXHit        = telCache.With("propagated_x", "hit")
	telPropXMiss       = telCache.With("propagated_x", "miss")
	telPropXInvalidate = telCache.With("propagated_x", "invalidate")
)
