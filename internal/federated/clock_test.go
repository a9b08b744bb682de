package federated

import (
	"testing"
)

// TestAsyncWallClockRuns exercises the real-time duration source: the run
// must complete, fill RoundTime with nondecreasing nonnegative wall seconds,
// and produce a sane evaluation. Wall-clock schedules are not reproducible,
// so only structural properties are asserted.
func TestAsyncWallClockRuns(t *testing.T) {
	o := asyncOpts(2, nil)
	o.Async.Clock = NewWallClock()
	res, err := NewServer(coraClients(t, 4, 11), 12).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundTime) != o.Rounds {
		t.Fatalf("RoundTime entries: got %d, want %d", len(res.RoundTime), o.Rounds)
	}
	prev := 0.0
	for i, tm := range res.RoundTime {
		if tm < prev {
			t.Fatalf("RoundTime[%d] = %v goes backwards (prev %v)", i, tm, prev)
		}
		prev = tm
	}
	if res.TestAcc < 0 || res.TestAcc > 1 {
		t.Fatalf("TestAcc out of range: %v", res.TestAcc)
	}
	if len(res.RoundAcc) != o.Rounds {
		t.Fatalf("RoundAcc entries: got %d, want %d", len(res.RoundAcc), o.Rounds)
	}
}

// TestAsyncWallClockFullBarrier runs the wall clock at MinUpdates = N. The
// commit schedule is real-time ordered, but with a full barrier every commit
// aggregates exactly the sampled wave, so the result must still match
// textbook FedAvg bit for bit (aggregation order is dispatch order, not
// arrival order).
func TestAsyncWallClockFullBarrier(t *testing.T) {
	o := asyncOpts(0, nil)
	ref := referenceFedAvg(t, coraClients(t, 3, 21), 22, o)
	o.Async.Clock = NewWallClock()
	wall, err := NewServer(coraClients(t, 3, 21), 22).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "GlobalParams", wall.GlobalParams, ref.GlobalParams)
	if wall.TestAcc != ref.TestAcc {
		t.Fatalf("TestAcc: wall %v != reference %v", wall.TestAcc, ref.TestAcc)
	}
}

// TestVirtualClockDefault pins the refactoring contract: leaving
// AsyncOptions.Clock nil must reproduce the seeded virtual clock engine
// exactly (same schedule, same RoundTime) as passing the equivalent
// explicitly-constructed virtual clock.
func TestVirtualClockDefault(t *testing.T) {
	speed := skewedSpeed()
	o := asyncOpts(2, speed)
	a, err := NewServer(coraClients(t, 4, 51), 52).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Async.Clock = newVirtualClock(speed)
	b, err := NewServer(coraClients(t, 4, 51), 52).Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.RoundTime {
		if a.RoundTime[i] != b.RoundTime[i] {
			t.Fatalf("RoundTime[%d]: default %v != explicit %v", i, a.RoundTime[i], b.RoundTime[i])
		}
	}
	for i := range a.GlobalParams {
		if a.GlobalParams[i] != b.GlobalParams[i] {
			t.Fatalf("GlobalParams[%d] differ", i)
		}
	}
}
