package shard

import "repro/internal/telemetry"

// Shard-layer metric families on the process-wide telemetry registry: the
// cross-shard traffic of the slab protocol (halo exchanges).
var (
	telExchanges = telemetry.Default().Counter("adafgl_shard_exchange_total",
		"Halo exchanges executed (one per propagation hop across all shards).")
	telExchangeBytes = telemetry.Default().Counter("adafgl_shard_exchange_bytes_total",
		"Bytes of halo rows copied between shards.")
	telExchangeSeconds = telemetry.Default().Histogram("adafgl_shard_exchange_seconds",
		"Wall time of one halo exchange.", telemetry.LatencyBuckets)
)
