package registry

import (
	"repro/internal/telemetry"
)

// Fleet-layer metric families on the process-wide telemetry registry:
// lifecycle events (cold starts, evictions, swaps), circuit-breaker
// activity (trips, health transitions) and routed predict traffic. The
// model label is the name@version ref, bounded by the artifact count; the
// health-transition "to" label is one of ok/degraded/tripped.
var (
	telColdStarts = telemetry.Default().Counter("adafgl_registry_cold_starts_total",
		"Serving instances booted (deduped concurrent acquires count once).")
	telEvictions = telemetry.Default().Counter("adafgl_registry_evictions_total",
		"Idle serving instances drained by the LRU bound.")
	telSwaps = telemetry.Default().Counter("adafgl_registry_swaps_total",
		"Successful zero-downtime active-version swaps.")
	telBreakerTrips = telemetry.Default().CounterVec("adafgl_registry_breaker_trips_total",
		"Circuit-breaker trips per model.", "model")
	telHealth = telemetry.Default().CounterVec("adafgl_registry_health_transitions_total",
		"Health-state transitions per model.", "model", "to")
	telPredicts = telemetry.Default().CounterVec("adafgl_registry_predicts_total",
		"Successful routed predicts per model.", "model")
	telABNodes = telemetry.Default().CounterVec("adafgl_registry_ab_nodes_total",
		"Node queries routed to an A/B arm.", "arm")
	// The two arm series, resolved once: predictAB runs on every split
	// request.
	telABControl   = telABNodes.With("control")
	telABCandidate = telABNodes.With("candidate")
)

// recordHealthTransition emits the transition counter when a model's
// breaker state actually changes. Called under Registry.mu next to the
// state write; counter mutation is atomic and never blocks.
func recordHealthTransition(ref string, from, to HealthState) {
	if from != to {
		telHealth.With(ref, to.String()).Inc()
	}
}
