package federated

// Telemetry families for live training runs. Everything here is
// observation-only: gauges and counters are written from values the engine
// already computes, never read back, so a scrape can watch a long federated
// run converge without perturbing its bit-exact result.

import "repro/internal/telemetry"

var (
	// telRounds counts committed aggregation rounds across all runs in the
	// process.
	telRounds = telemetry.Default().Counter(
		"adafgl_federated_rounds_total",
		"Committed federated aggregation rounds.")
	// telRoundAcc tracks the most recent round's global test accuracy.
	telRoundAcc = telemetry.Default().Gauge(
		"adafgl_federated_round_accuracy",
		"Global test accuracy after the most recent committed round.")
	// telCommitted / telDropped / telStragglers mirror the running run's
	// update accounting.
	telCommitted = telemetry.Default().Gauge(
		"adafgl_federated_committed_updates",
		"Client updates committed into the global model by the current run.")
	telDropped = telemetry.Default().Gauge(
		"adafgl_federated_dropped_updates",
		"Client updates lost to faults or attacks in the current run.")
	// telStaleness tracks the running mean staleness (in versions) of
	// committed updates; 0 whenever commits wait for all participants.
	telStaleness = telemetry.Default().Gauge(
		"adafgl_federated_mean_staleness",
		"Mean staleness (global versions behind) of committed updates.")
)

// recordCommit accounts one committed aggregation round: the cumulative
// round counter plus the run-progress gauges.
func recordCommit(committed, dropped int, meanStale float64) {
	telRounds.Inc()
	telCommitted.Set(float64(committed))
	telDropped.Set(float64(dropped))
	telStaleness.Set(meanStale)
}
