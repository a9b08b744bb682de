package federated

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/telemetry"
)

// TestTelemetryBitIdentical is the observation-only contract at the training
// layer: the same federated run executed with telemetry enabled and disabled
// must land on bitwise-equal global parameters and round curves. The
// instruments may count, gauge and time — they may never touch an RNG or a
// float the training pipeline reads.
func TestTelemetryBitIdentical(t *testing.T) {
	o := DefaultOptions()
	o.Rounds = 3
	o.LocalEpochs = 1

	run := func(enabled bool) *Result {
		t.Helper()
		defer telemetry.SetEnabled(telemetry.SetEnabled(enabled))
		res, err := Run(coraClients(t, 3, 17), 18, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(true)
	off := run(false)

	if len(on.GlobalParams) != len(off.GlobalParams) {
		t.Fatalf("param dims differ: %d vs %d", len(on.GlobalParams), len(off.GlobalParams))
	}
	for i := range on.GlobalParams {
		if on.GlobalParams[i] != off.GlobalParams[i] {
			t.Fatalf("GlobalParams[%d]: on %v != off %v", i, on.GlobalParams[i], off.GlobalParams[i])
		}
	}
	if len(on.RoundAcc) != len(off.RoundAcc) {
		t.Fatalf("round counts differ: %d vs %d", len(on.RoundAcc), len(off.RoundAcc))
	}
	for r := range on.RoundAcc {
		if on.RoundAcc[r] != off.RoundAcc[r] {
			t.Fatalf("RoundAcc[%d]: on %v != off %v", r, on.RoundAcc[r], off.RoundAcc[r])
		}
	}
}

// TestTelemetryRoundCounter covers the federated families: an enabled run
// advances the rounds counter by its round count and leaves the accuracy
// gauge on the final round's value.
func TestTelemetryRoundCounter(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	o := DefaultOptions()
	o.Rounds = 3
	o.LocalEpochs = 1

	before := telRounds.Value()
	res, err := Run(coraClients(t, 3, 19), 20, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := telRounds.Value() - before; got != uint64(o.Rounds) {
		t.Errorf("rounds counter advanced by %d, want %d", got, o.Rounds)
	}
	if want := res.RoundAcc[len(res.RoundAcc)-1]; telRoundAcc.Value() != want {
		t.Errorf("round-accuracy gauge = %v, want final round %v", telRoundAcc.Value(), want)
	}
}

// gaugeProbe wraps a client model and samples the round-accuracy gauge each
// time a training forward pass starts.
type gaugeProbe struct {
	models.Model
	seen []float64
}

func (p *gaugeProbe) Logits(train bool) *matrix.Dense {
	if train {
		p.seen = append(p.seen, telRoundAcc.Value())
	}
	return p.Model.Logits(train)
}

// TestTelemetryRoundAccuracyIsLive fails if round evaluation is deferred to
// the end of the schedule at K = N: when round r+1's local training starts,
// the gauge must already hold round r's accuracy, so a scrape sees the curve
// move while the run is in progress.
func TestTelemetryRoundAccuracyIsLive(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	o := DefaultOptions()
	o.Rounds = 4
	o.LocalEpochs = 1 // one training forward per client per round

	clients := coraClients(t, 3, 23)
	probe := &gaugeProbe{Model: clients[0].Model}
	clients[0].Model = probe
	telRoundAcc.Set(-1)
	res, err := Run(clients, 24, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.seen) != o.Rounds {
		t.Fatalf("client 0 trained %d times, want once per round (%d)", len(probe.seen), o.Rounds)
	}
	if probe.seen[0] != -1 {
		t.Fatalf("gauge written before the first commit: %v", probe.seen[0])
	}
	for r := 1; r < o.Rounds; r++ {
		if probe.seen[r] != res.RoundAcc[r-1] {
			t.Fatalf("at the start of round %d the gauge read %v, want round %d's accuracy %v", r+1, probe.seen[r], r, res.RoundAcc[r-1])
		}
	}
}
