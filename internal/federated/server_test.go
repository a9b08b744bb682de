package federated

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// asyncOpts returns a quick protocol committing after k of N updates
// (0 = all participants) under the given speed model.
func asyncOpts(k int, speed *SpeedModel) Options {
	o := DefaultOptions()
	o.Rounds = 8
	o.LocalEpochs = 2
	o.Async = AsyncOptions{MinUpdates: k, Speed: speed}
	return o
}

// skewedSpeed is a fleet with one heavy straggler (client 0 runs 8x slower)
// and mild jitter elsewhere.
func skewedSpeed() *SpeedModel {
	return &SpeedModel{Slowdown: []float64{8, 1, 1, 1, 1, 1}, Jitter: 0.1, Seed: 3}
}

// referenceFedAvg is textbook synchronous FedAvg (Alg. 1, Eqs. 3–4), written
// serially and sharing nothing with Server.Run but the Client methods: per
// round one participant permutation, broadcast, local training, the
// n_i-weighted mean in participant order, then the test-size-weighted
// accuracy of the new global on every client. It is the reference the
// engine's K = N configuration is held to.
func referenceFedAvg(t *testing.T, clients []*Client, seed int64, o Options) *Result {
	t.Helper()
	train := func(c *Client, params []float64, epochs int) {
		if err := nn.Unflatten(c.Model, params); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(epochs)
	}
	score := func(global []float64, correction int) (acc float64, per []float64) {
		var total float64
		for _, c := range clients {
			train(c, global, correction)
			per = append(per, c.TestAccuracy())
			acc += per[len(per)-1] * float64(c.TestSize())
			total += float64(c.TestSize())
		}
		return acc / total, per
	}
	rng := rand.New(rand.NewSource(seed))
	global := nn.Flatten(clients[0].Model)
	nPart := max(1, int(float64(len(clients))*o.Participation))
	res := &Result{BytesPerRound: nPart * len(global) * 8 * 2}
	for round := 0; round < o.Rounds; round++ {
		agg := make([]float64, len(global))
		var totalW float64
		for _, ci := range rng.Perm(len(clients))[:nPart] {
			train(clients[ci], global, o.LocalEpochs)
			w := float64(clients[ci].TrainSize())
			for i, v := range nn.Flatten(clients[ci].Model) {
				agg[i] += w * v
			}
			totalW += w
		}
		for i := range agg {
			agg[i] /= totalW
		}
		global = agg
		acc, _ := score(global, 0)
		res.RoundAcc = append(res.RoundAcc, acc)
	}
	res.GlobalParams = global
	res.TestAcc, res.PerClient = score(global, o.LocalCorrection)
	return res
}

// sameFloats fails the test at the first index where got and want differ in
// length or in any bit.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: engine %v != reference %v", what, i, got[i], want[i])
		}
	}
}

// checkKofNIsFedAvg runs the engine at K = N (MinUpdates 0) under the given
// participation and holds it to referenceFedAvg bit for bit, for a nominal
// and a skewed speed model (which may only relabel the virtual timeline) at
// worker counts 1 and 3.
func checkKofNIsFedAvg(t *testing.T, nClients int, seed int64, participation float64) {
	for _, speed := range []*SpeedModel{nil, skewedSpeed()} {
		o := asyncOpts(0, speed) // MinUpdates 0 = all participants
		o.Participation = participation
		o.LocalCorrection = 2
		ref := referenceFedAvg(t, coraClients(t, nClients, seed), seed+1, o)
		for _, workers := range []int{1, 3} {
			orig := parallel.SetWorkers(workers)
			got, err := NewServer(coraClients(t, nClients, seed), seed+1).Run(o)
			parallel.SetWorkers(orig)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "GlobalParams", got.GlobalParams, ref.GlobalParams)
			sameFloats(t, "RoundAcc", got.RoundAcc, ref.RoundAcc)
			sameFloats(t, "PerClient", got.PerClient, ref.PerClient)
			if got.TestAcc != ref.TestAcc {
				t.Fatalf("TestAcc: engine %v != reference %v", got.TestAcc, ref.TestAcc)
			}
			if got.BytesPerRound != ref.BytesPerRound {
				t.Fatalf("BytesPerRound: engine %d != reference %d", got.BytesPerRound, ref.BytesPerRound)
			}
			if got.MeanStaleness != 0 {
				t.Fatalf("K=N commits can never be stale, got mean staleness %v", got.MeanStaleness)
			}
			if got.StragglerUpdates != 0 || got.CommittedUpdates != got.DispatchedUpdates {
				t.Fatalf("K=N must be a full barrier: %d stragglers, %d of %d updates committed",
					got.StragglerUpdates, got.CommittedUpdates, got.DispatchedUpdates)
			}
			if len(got.RoundTime) != o.Rounds {
				t.Fatalf("every commit must be timed, got %d RoundTime entries", len(got.RoundTime))
			}
		}
	}
}

// TestAsyncKofNBitIdenticalToSync is the engine's degradation contract:
// with MinUpdates = N (every commit barriers on all participants) and the
// default staleness discount, the buffered engine is synchronous FedAvg bit
// for bit — same global parameters, same round curve, same per-client
// accuracies as the serial textbook loop — regardless of the speed model and
// the worker count.
func TestAsyncKofNBitIdenticalToSync(t *testing.T) {
	checkKofNIsFedAvg(t, 4, 31, 1.0)
}

// TestAsyncKofNPartialParticipationMatchesSync extends the degradation
// contract to sampled participation: the engine draws one permutation per
// commit, so the sampled fleets coincide with the textbook loop's.
func TestAsyncKofNPartialParticipationMatchesSync(t *testing.T) {
	checkKofNIsFedAvg(t, 5, 41, 0.6)
}

// TestAsyncDeterministicAcrossWorkerCounts is the determinism contract: the
// virtual clock, not goroutine scheduling, orders arrivals and commits, so
// -workers 1 and -workers 8 must produce identical results even at K = 1
// (the most schedule-sensitive setting).
func TestAsyncDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers, k int) *Result {
		orig := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(orig)
		res, err := NewServer(coraClients(t, 5, 51), 52).Run(asyncOpts(k, skewedSpeed()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, k := range []int{1, 3} {
		serial, par := run(1, k), run(8, k)
		for i := range serial.GlobalParams {
			if serial.GlobalParams[i] != par.GlobalParams[i] {
				t.Fatalf("K=%d: GlobalParams[%d] differ across worker counts", k, i)
			}
		}
		for r := range serial.RoundAcc {
			if serial.RoundAcc[r] != par.RoundAcc[r] {
				t.Fatalf("K=%d: RoundAcc[%d] differs across worker counts", k, r)
			}
			if serial.RoundTime[r] != par.RoundTime[r] {
				t.Fatalf("K=%d: RoundTime[%d] differs across worker counts", k, r)
			}
		}
		if serial.TestAcc != par.TestAcc || serial.MeanStaleness != par.MeanStaleness {
			t.Fatalf("K=%d: summary stats differ across worker counts", k)
		}
	}
}

// TestAsyncKOne exercises the minimum commit threshold: every arrival
// commits a round, the timeline is strictly increasing, and training still
// converges to a sane model.
func TestAsyncKOne(t *testing.T) {
	// Per-arrival commits move the global by one client's data mass at a
	// time (the in-flight anchor holds the rest), so the same optimisation
	// distance needs roughly N times the commits of a synchronous round.
	o := asyncOpts(1, skewedSpeed())
	o.Rounds = 60
	res, err := NewServer(coraClients(t, 4, 61), 62).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAcc) != 60 || len(res.RoundTime) != 60 {
		t.Fatalf("want 60 commits, got %d acc / %d times", len(res.RoundAcc), len(res.RoundTime))
	}
	for r := 1; r < len(res.RoundTime); r++ {
		if res.RoundTime[r] < res.RoundTime[r-1] {
			t.Fatalf("virtual clock ran backwards at commit %d: %v -> %v", r, res.RoundTime[r-1], res.RoundTime[r])
		}
	}
	if res.TestAcc < 0.4 {
		t.Fatalf("K=1 async accuracy %.3f implausibly low", res.TestAcc)
	}
	// With one 8x straggler, K=1 commits are gated by fast clients, so the
	// buffer must have absorbed stale straggler updates along the way.
	if res.MeanStaleness <= 0 {
		t.Fatal("K=1 under an 8x straggler must observe stale updates")
	}
}

// TestAsyncStragglerSlowerThanRound pins the edge the engine exists for: a
// client so slow that entire commit epochs pass while it trains. The run
// must stay deterministic, the straggler's updates must arrive with large
// staleness, and the fleet must not stall on it.
func TestAsyncStragglerSlowerThanRound(t *testing.T) {
	speed := &SpeedModel{Slowdown: []float64{500, 1, 1, 1}, Seed: 7}
	o := asyncOpts(3, speed) // commits need 3 of 4: never wait for the straggler
	o.Rounds = 12
	res, err := NewServer(coraClients(t, 4, 71), 72).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAcc) != 12 {
		t.Fatalf("fleet stalled on the straggler: %d of 12 commits", len(res.RoundAcc))
	}
	// The same schedule must replay exactly.
	res2, err := NewServer(coraClients(t, 4, 71), 72).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.GlobalParams {
		if res.GlobalParams[i] != res2.GlobalParams[i] {
			t.Fatal("straggler schedule does not replay deterministically")
		}
	}
	// A 500x straggler finishes its first dispatch after the 12-commit
	// horizon, so commits are carried entirely by the three fast clients.
	if res.MeanStaleness != 0 {
		t.Fatalf("straggler slower than the whole run should never commit, mean staleness %v", res.MeanStaleness)
	}
}

// TestAsyncBeatsSyncWallClockUnderSkew is the engine's reason to exist,
// asserted structurally: under a >= 4x client-speed skew, reaching the same
// commit count costs the synchronous barrier (K = N) a straggler-gated round
// every round, while K < N commits ride the fast clients — so the async
// timeline must finish well ahead of the synchronous one.
func TestAsyncBeatsSyncWallClockUnderSkew(t *testing.T) {
	speed := &SpeedModel{Slowdown: []float64{4, 1, 1, 1, 1}, Seed: 11}
	runK := func(k int) *Result {
		res, err := NewServer(coraClients(t, 5, 81), 82).Run(asyncOpts(k, speed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	syncRef, async := runK(0), runK(4) // K=N barrier vs drop-one commits
	syncEnd := syncRef.RoundTime[len(syncRef.RoundTime)-1]
	asyncEnd := async.RoundTime[len(async.RoundTime)-1]
	if asyncEnd >= syncEnd {
		t.Fatalf("async (K=4) simulated end %v not ahead of sync barrier %v", asyncEnd, syncEnd)
	}
	// The barrier pays the 4x straggler every round; K=N-1 should cut the
	// timeline by at least 2x at this skew.
	if asyncEnd > syncEnd/2 {
		t.Fatalf("async end %v should be < half of sync %v under 4x skew", asyncEnd, syncEnd)
	}
}

// TestAsyncZeroEpochConservation checks the staleness-weighted aggregation
// arithmetic with zero local epochs: every update echoes its broadcast, so
// regardless of K, staleness or discounts the normalized weighted mean must
// conserve the initial parameters (the async analogue of the synchronous
// weighted-mean no-op test), and the commit bookkeeping must expose the
// expected staleness trace.
func TestAsyncZeroEpochConservation(t *testing.T) {
	clients := coraClients(t, 2, 91)
	before := append([]float64(nil), nn.Flatten(clients[0].Model)...)
	o := DefaultOptions()
	o.Rounds = 2
	o.LocalEpochs = 0 // updates are exact echoes of the broadcast
	o.Async = AsyncOptions{MinUpdates: 1, Staleness: 0.5,
		Speed: &SpeedModel{Slowdown: []float64{1, 10}, Seed: 1}}
	res, err := NewServer(clients, 92).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAcc) != 2 {
		t.Fatalf("want 2 commits, got %d", len(res.RoundAcc))
	}
	for i, v := range res.GlobalParams {
		if math.Abs(v-before[i]) > 1e-12 {
			t.Fatalf("zero-epoch async aggregation must conserve parameters: [%d] %v != %v", i, v, before[i])
		}
	}
	// Zero epochs mean zero durations for everyone, so arrivals tie and the
	// dispatch sequence breaks them: commit 1 takes the first initial
	// dispatch (staleness 0), commit 2 the second (staleness 1).
	if res.MeanStaleness != 0.5 {
		t.Fatalf("expected mean staleness (0+1)/2 = 0.5, got %v", res.MeanStaleness)
	}
}
