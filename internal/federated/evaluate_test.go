package federated

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// evaluateSerially is Evaluate's contract written out by hand: load, correct,
// score, test-size-weighted mean in client order.
func evaluateSerially(t *testing.T, clients []*Client, paramsFor func(int) []float64, correction int) (float64, []float64) {
	t.Helper()
	var weighted, total float64
	per := make([]float64, len(clients))
	for ci, c := range clients {
		if err := nn.Unflatten(c.Model, paramsFor(ci)); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(correction)
		per[ci] = c.TestAccuracy()
		weighted += per[ci] * float64(c.TestSize())
		total += float64(c.TestSize())
	}
	return weighted / total, per
}

// trainedParams gives every client of a fresh fleet a few epochs of its own
// local training and returns the resulting per-client parameter vectors.
func trainedParams(clients []*Client) [][]float64 {
	out := make([][]float64, len(clients))
	for ci, c := range clients {
		c.TrainLocal(3 + ci)
		out[ci] = nn.Flatten(c.Model)
	}
	return out
}

// TestEvaluateMatchesSerialReduction holds Evaluate to the hand-written
// reduction bit for bit at worker counts 1 and 3 — with one shared vector and
// with per-client vectors, with and without local correction, on transductive
// clients and on inductive ones (scored on their full Eval graphs).
func TestEvaluateMatchesSerialReduction(t *testing.T) {
	fleets := map[string]func() []*Client{
		"transductive": func() []*Client { return coraClients(t, 4, 131) },
		"inductive":    func() []*Client { return inductiveClients(t, 3, 132) },
	}
	for name, fleet := range fleets {
		personal := trainedParams(fleet())
		for _, shared := range []bool{true, false} {
			paramsFor := func(ci int) []float64 { return personal[ci] }
			if shared {
				paramsFor = func(int) []float64 { return personal[0] }
			}
			for _, correction := range []int{0, 2} {
				wantAcc, wantPer := evaluateSerially(t, fleet(), paramsFor, correction)
				if name == "inductive" && wantAcc == 0 {
					t.Fatalf("%s: reference scored 0 on the Eval graphs", name)
				}
				for _, workers := range []int{1, 3} {
					orig := parallel.SetWorkers(workers)
					acc, per, err := Evaluate(fleet(), paramsFor, correction)
					parallel.SetWorkers(orig)
					if err != nil {
						t.Fatal(err)
					}
					if acc != wantAcc {
						t.Fatalf("%s shared=%v correction=%d workers=%d: acc %v, serial %v", name, shared, correction, workers, acc, wantAcc)
					}
					sameFloats(t, "perClient", per, wantPer)
				}
			}
		}
	}
}

// TestEvaluateCorrectionTrains checks that correction epochs really run on
// the loaded parameters: the client models end up away from what was loaded,
// while correction 0 leaves them exactly there.
func TestEvaluateCorrectionTrains(t *testing.T) {
	clients := coraClients(t, 3, 133)
	global := nn.Flatten(clients[0].Model)
	for _, correction := range []int{0, 4} {
		if _, _, err := Evaluate(clients, func(int) []float64 { return global }, correction); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			moved := false
			for i, v := range nn.Flatten(c.Model) {
				if v != global[i] {
					moved = true
					break
				}
			}
			if moved != (correction > 0) {
				t.Fatalf("correction=%d: client %d model moved=%v", correction, c.ID, moved)
			}
		}
	}
}

// TestEvaluateReturnsUnflattenError pins the error path five of the old
// copies turned into a silent 0: a vector that does not fit a client's model
// fails the evaluation, naming the client.
func TestEvaluateReturnsUnflattenError(t *testing.T) {
	clients := coraClients(t, 3, 134)
	good := nn.Flatten(clients[0].Model)
	acc, per, err := Evaluate(clients, func(ci int) []float64 {
		if ci == 1 {
			return good[:len(good)-1]
		}
		return good
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "federated: evaluate client 1:") {
		t.Fatalf("short vector must fail naming client 1, got acc=%v per=%v err=%v", acc, per, err)
	}
	if acc, per, err := Evaluate(nil, nil, 0); err != nil || acc != 0 || len(per) != 0 {
		t.Fatalf("empty fleet evaluates to nothing, got %v %v %v", acc, per, err)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []struct {
		name string
		edit func(*Options)
	}{
		{"Rounds", func(o *Options) { o.Rounds = 0 }},
		{"Rounds", func(o *Options) { o.Rounds = -3 }},
		{"LocalEpochs", func(o *Options) { o.LocalEpochs = -1 }},
		{"LocalCorrection", func(o *Options) { o.LocalCorrection = -1 }},
		{"Participation", func(o *Options) { o.Participation = 0 }},
		{"Participation", func(o *Options) { o.Participation = -0.5 }},
		{"Participation", func(o *Options) { o.Participation = 1.5 }}, // used to slice perm[:4] of 3 and panic
		{"Participation", func(o *Options) { o.Participation = math.NaN() }},
		{"Participation", func(o *Options) { o.Participation = math.Inf(1) }},
		{"Async.MinUpdates", func(o *Options) { o.Async.MinUpdates = -1 }},
		{"Async.Staleness", func(o *Options) { o.Async.Staleness = -0.1 }},
		{"Async.Staleness", func(o *Options) { o.Async.Staleness = math.NaN() }},
		{"Async.Staleness", func(o *Options) { o.Async.Staleness = math.Inf(1) }},
		{"Async.Speed: Jitter", func(o *Options) { o.Async.Speed = &SpeedModel{Jitter: 1.5} }}, // factor in [-0.5, 2.5): a finish before its dispatch
		{"Async.Speed: Jitter", func(o *Options) { o.Async.Speed = &SpeedModel{Jitter: 1} }},
		{"Async.Speed: Jitter", func(o *Options) { o.Async.Speed = &SpeedModel{Jitter: -0.1} }},
		{"Async.Speed: Jitter", func(o *Options) { o.Async.Speed = &SpeedModel{Jitter: math.NaN()} }}, // used to mean 0 silently
		{"Async.Speed: Slowdown[1]", func(o *Options) { o.Async.Speed = &SpeedModel{Slowdown: []float64{1, math.Inf(1)}} }},
		{"Async.Speed: Slowdown[0]", func(o *Options) { o.Async.Speed = &SpeedModel{Slowdown: []float64{math.NaN()}} }},
	}
	clients := coraClients(t, 3, 135)
	for _, tc := range bad {
		o := quickOpts()
		tc.edit(&o)
		want := "federated: options: " + tc.name
		if err := o.Validate(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Validate(%+v) = %v, want %q…", o, err, want)
		}
		if _, err := Run(clients, 1, o); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Run accepted %+v (err=%v)", o, err)
		}
	}
	good := []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.LocalEpochs = 0 },
		func(o *Options) { o.Participation = 0.01 }, // rounds up to one client
		func(o *Options) { o.Async.MinUpdates = 99 },
		func(o *Options) { o.Async.Staleness = 2 },
		func(o *Options) { o.Async.Speed = &SpeedModel{Jitter: 0.99, Slowdown: []float64{4, 0, -1}} }, // entries <= 0 mean nominal speed
		func(o *Options) { *o = PaperOptions() },
	}
	for _, edit := range good {
		o := quickOpts()
		edit(&o)
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	o := quickOpts()
	o.Robust.TrimFrac = 0.7
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "federated: robust:") {
		t.Errorf("Validate must cover Robust too, got %v", err)
	}
}
