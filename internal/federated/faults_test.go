package federated

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/parallel"
)

func TestFaultsValidateRejectsBadSchedules(t *testing.T) {
	clients := coraClients(t, 2, 51)
	bad := []Faults{
		{DownAtStart: []int{-1}},
		{DownAtStart: []int{2}},
		{Events: []FaultEvent{{Time: -1, Client: 0, Kind: FaultCrash}}},
		{Events: []FaultEvent{{Time: math.NaN(), Client: 0, Kind: FaultCrash}}},
		{Events: []FaultEvent{{Time: math.Inf(1), Client: 0, Kind: FaultCrash}}},
		{Events: []FaultEvent{{Time: 1, Client: 5, Kind: FaultCrash}}},
		{Events: []FaultEvent{{Time: 1, Client: 0, Kind: FaultKind(42)}}},
		{Events: []FaultEvent{{Time: 1, Client: 0, Kind: FaultCorrupt, Attack: Attack{Kind: AttackKind(9)}}}},
		{Events: []FaultEvent{{Time: 1, Client: 0, Kind: FaultCorrupt, Attack: Attack{Kind: AttackScale, Factor: math.Inf(1)}}}},
	}
	for _, f := range bad {
		o := quickOpts()
		o.Rounds = 1
		o.Async = AsyncOptions{Faults: f}
		if _, err := Run(clients, 1, o); err == nil || !strings.Contains(err.Error(), "federated: faults:") {
			t.Fatalf("engine accepted bad fault schedule %+v (err=%v)", f, err)
		}
	}
}

func TestAttackApply(t *testing.T) {
	base := []float64{1, 2}
	local := []float64{2, 0} // delta (+1, -2)
	if got := (Attack{Kind: AttackSignFlip}).apply(base, local); got[0] != 0 || got[1] != 4 {
		t.Fatalf("signflip = %v, want [0 4]", got)
	}
	if got := (Attack{Kind: AttackScale, Factor: 3}).apply(base, local); got[0] != 4 || got[1] != -4 {
		t.Fatalf("scale×3 = %v, want [4 -4]", got)
	}
	if got := (Attack{}).apply(base, local); &got[0] != &local[0] {
		t.Fatal("AttackNone must pass the update through unchanged")
	}
}

// churnOpts builds a schedule exercising every fault kind on real training:
// an early crash that loses the in-flight initial update, a rejoin, a late
// join from DownAtStart, a graceful leave and a corrupt arm. Event times are
// calibrated to the fleet's nominal commit period (epochs × slowest client)
// so they land mid-run for any subgraph split.
func churnOpts(clients []*Client, rounds int) Options {
	maxW := 1
	for _, c := range clients {
		if s := c.TrainSize(); s > maxW {
			maxW = s
		}
	}
	// One commit period is at most epochs × maxW × slowest slowdown × max
	// jitter; events scheduled in units of it land in the first few rounds.
	unit := 2 * float64(maxW) * 2 * 1.2
	o := DefaultOptions()
	o.Rounds = rounds
	o.LocalEpochs = 2
	o.Async = AsyncOptions{
		Staleness: 0.6,
		Speed:     &SpeedModel{Slowdown: []float64{1, 1.5, 2, 1}, Jitter: 0.2, Seed: 9},
		Faults: Faults{
			DownAtStart: []int{3},
			Events: []FaultEvent{
				{Time: 0, Client: 2, Kind: FaultCorrupt, Attack: Attack{Kind: AttackSignFlip}},
				{Time: 1, Client: 0, Kind: FaultCrash}, // loses client 0's in-flight initial update
				{Time: 0.5 * unit, Client: 0, Kind: FaultJoin},
				{Time: 1 * unit, Client: 3, Kind: FaultJoin},
				{Time: 2 * unit, Client: 1, Kind: FaultLeave},
			},
		},
	}
	return o
}

// The data-mass ledger must balance exactly on any faulted run: every
// dispatched update is committed, dropped by a crash, or still in flight at
// the end — nothing disappears. This is the crash-and-rejoin conservation
// property of the chaos suite.
func TestFaultLedgerBalancesUnderChurn(t *testing.T) {
	clients := coraClients(t, 4, 61)
	res, err := Run(clients, 62, churnOpts(clients, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedUpdates != res.CommittedUpdates+res.DroppedUpdates+res.StragglerUpdates {
		t.Fatalf("ledger out of balance: dispatched %d != committed %d + dropped %d + straggler %d",
			res.DispatchedUpdates, res.CommittedUpdates, res.DroppedUpdates, res.StragglerUpdates)
	}
	if res.DroppedUpdates < 1 {
		t.Fatalf("the scheduled crash must lose at least one in-flight update, dropped = %d", res.DroppedUpdates)
	}
	if res.DroppedWeight <= 0 {
		t.Fatalf("dropped updates must carry data mass, DroppedWeight = %v", res.DroppedWeight)
	}
	if len(res.RoundAcc) != 8 {
		t.Fatalf("fleet survives this schedule; want all 8 commits, got %d", len(res.RoundAcc))
	}
}

// Every faulted schedule must be a pure function of the seed: bit-identical
// across re-runs and across worker counts (the chaos determinism property,
// run under -race in CI).
func TestFaultedRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Result {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		clients := coraClients(t, 4, 71)
		res, err := Run(clients, 72, churnOpts(clients, 6))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got.GlobalParams) != len(ref.GlobalParams) {
			t.Fatalf("workers=%d: param dim drifted", workers)
		}
		for i := range ref.GlobalParams {
			if got.GlobalParams[i] != ref.GlobalParams[i] {
				t.Fatalf("workers=%d: GlobalParams[%d] %v != %v", workers, i, got.GlobalParams[i], ref.GlobalParams[i])
			}
		}
		if len(got.RoundTime) != len(ref.RoundTime) {
			t.Fatalf("workers=%d: commit count drifted", workers)
		}
		for i := range ref.RoundTime {
			if got.RoundTime[i] != ref.RoundTime[i] {
				t.Fatalf("workers=%d: RoundTime[%d] %v != %v", workers, i, got.RoundTime[i], ref.RoundTime[i])
			}
		}
		if got.DispatchedUpdates != ref.DispatchedUpdates || got.DroppedUpdates != ref.DroppedUpdates ||
			got.StragglerUpdates != ref.StragglerUpdates || got.MeanStaleness != ref.MeanStaleness {
			t.Fatalf("workers=%d: accounting drifted: %+v vs %+v", workers, got, ref)
		}
	}
}

// A crash-and-rejoin client resumes from the stale broadcast it last
// received, so its first post-rejoin update pays the staleness discount:
// under a full barrier (otherwise staleness 0 throughout) the run's mean
// staleness must turn positive.
func TestCrashRejoinResumesStale(t *testing.T) {
	run := func(faults Faults) *Result {
		clients := coraClients(t, 3, 81)
		o := DefaultOptions()
		o.Rounds = 6
		o.LocalEpochs = 2
		o.Async = AsyncOptions{Faults: faults}
		res, err := Run(clients, 82, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	steady := run(Faults{})
	if steady.MeanStaleness != 0 {
		t.Fatalf("full-barrier steady run must have zero staleness, got %v", steady.MeanStaleness)
	}
	// Crash at t=1 is guaranteed to catch client 1's initial dispatch in
	// flight (every duration is epochs × train size ≥ 2); the join right
	// after brings it back at the next commit boundary with stale params.
	crashed := run(Faults{Events: []FaultEvent{
		{Time: 1, Client: 1, Kind: FaultCrash},
		{Time: 2, Client: 1, Kind: FaultJoin},
	}})
	if crashed.DroppedUpdates != 1 {
		t.Fatalf("want exactly the crashed in-flight update dropped, got %d", crashed.DroppedUpdates)
	}
	if crashed.MeanStaleness <= 0 {
		t.Fatalf("rejoining from stale params must pay a staleness discount, mean staleness = %v", crashed.MeanStaleness)
	}
}

// A graceful leave delivers the in-flight update (nothing dropped) but stops
// re-dispatch, shrinking the dispatch count versus the steady run.
func TestLeaveDeliversInFlightButStopsRedispatch(t *testing.T) {
	run := func(faults Faults) *Result {
		clients := coraClients(t, 3, 91)
		o := DefaultOptions()
		o.Rounds = 5
		o.LocalEpochs = 2
		o.Async = AsyncOptions{Faults: faults}
		res, err := Run(clients, 92, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	steady := run(Faults{})
	left := run(Faults{Events: []FaultEvent{{Time: 100, Client: 2, Kind: FaultLeave}}})
	if left.DroppedUpdates != 0 {
		t.Fatalf("a graceful leave must not drop updates, got %d", left.DroppedUpdates)
	}
	if left.DispatchedUpdates >= steady.DispatchedUpdates {
		t.Fatalf("left client kept being dispatched: %d >= steady %d", left.DispatchedUpdates, steady.DispatchedUpdates)
	}
	if len(left.RoundAcc) != 5 {
		t.Fatalf("two live clients still commit every round, got %d of 5", len(left.RoundAcc))
	}
}

// When every client leaves, the run ends early with the rounds committed so
// far instead of deadlocking, and the result still finalizes.
func TestFleetDeathEndsRunEarly(t *testing.T) {
	clients := coraClients(t, 2, 101)
	o := DefaultOptions()
	o.Rounds = 10
	o.LocalEpochs = 1
	o.Async = AsyncOptions{Faults: Faults{Events: []FaultEvent{
		{Time: 1, Client: 0, Kind: FaultLeave},
		{Time: 1, Client: 1, Kind: FaultLeave},
	}}}
	res, err := Run(clients, 102, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAcc) >= 10 {
		t.Fatalf("dead fleet must end early, committed %d rounds", len(res.RoundAcc))
	}
	if res.GlobalParams == nil || len(res.PerClient) != 2 {
		t.Fatal("early-ended run must still finalize")
	}
	if res.DispatchedUpdates != res.CommittedUpdates+res.DroppedUpdates+res.StragglerUpdates {
		t.Fatal("ledger out of balance on early-ended run")
	}
}

// A client joining mid-run from DownAtStart starts contributing: its
// dispatch count exceeds the waves where it was down, and zero-epoch echoes
// stay conserved through the whole churn (the parameter-level conservation
// arm of the chaos suite).
func TestZeroEpochConservationUnderFaults(t *testing.T) {
	clients := coraClients(t, 3, 111)
	before := append([]float64(nil), nn.Flatten(clients[0].Model)...)
	o := DefaultOptions()
	o.Rounds = 4
	o.LocalEpochs = 0 // echo updates: any weighted mix must conserve params
	o.Async = AsyncOptions{MinUpdates: 1, Staleness: 0.5,
		Faults: Faults{
			DownAtStart: []int{2},
			Events: []FaultEvent{
				{Time: 0, Client: 2, Kind: FaultJoin},
				{Time: 0, Client: 1, Kind: FaultCorrupt, Attack: Attack{Kind: AttackScale, Factor: 25}},
			},
		}}
	res, err := Run(clients, 112, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.GlobalParams {
		if math.Abs(v-before[i]) > 1e-12 {
			t.Fatalf("zero-epoch churn must conserve parameters: [%d] %v != %v", i, v, before[i])
		}
	}
}

// A total blackout (every client crashes) followed by a later join must not
// deadlock: the server idles forward on the virtual clock to the join event
// and the revived fleet finishes every round.
func TestBlackoutThenRejoinRevivesFleet(t *testing.T) {
	clients := coraClients(t, 2, 131)
	o := DefaultOptions()
	o.Rounds = 4
	o.LocalEpochs = 1
	o.Async = AsyncOptions{Faults: Faults{Events: []FaultEvent{
		{Time: 1, Client: 0, Kind: FaultCrash},
		{Time: 1, Client: 1, Kind: FaultCrash},
		{Time: 1e6, Client: 0, Kind: FaultJoin},
		{Time: 1e6, Client: 1, Kind: FaultJoin},
	}}}
	res, err := Run(clients, 132, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAcc) != 4 {
		t.Fatalf("revived fleet must commit all 4 rounds, got %d", len(res.RoundAcc))
	}
	if res.DroppedUpdates != 2 {
		t.Fatalf("both initial updates crash away, dropped = %d", res.DroppedUpdates)
	}
	if res.RoundTime[0] < 1e6 {
		t.Fatalf("first commit must happen after the blackout ends, at %v", res.RoundTime[0])
	}
}

func TestFaultAndAttackKindStrings(t *testing.T) {
	if FaultCrash.String() != "crash" || FaultLeave.String() != "leave" ||
		FaultJoin.String() != "join" || FaultCorrupt.String() != "corrupt" {
		t.Fatal("fault kind names drifted")
	}
	if AttackNone.String() != "none" || AttackSignFlip.String() != "signflip" || AttackScale.String() != "scale" {
		t.Fatal("attack kind names drifted")
	}
	if !strings.Contains(FaultKind(77).String(), "77") || !strings.Contains(AttackKind(77).String(), "77") {
		t.Fatal("unknown kinds must print their raw value")
	}
}

func TestPaperOptionsProtocol(t *testing.T) {
	o := PaperOptions()
	if o.Rounds != 100 || o.LocalEpochs != 5 || o.Participation != 1.0 {
		t.Fatalf("PaperOptions drifted from Sec. IV-A: %+v", o)
	}
}

// The steady schedule through the fault layer must not exist: an empty
// Faults keeps the engine on its historical code path, bit-identical to a
// run without the field set (regression guard for the Options plumbing).
func TestEmptyFaultsBitIdenticalToLegacyPath(t *testing.T) {
	run := func(o Options) *Result {
		clients := coraClients(t, 3, 121)
		res, err := Run(clients, 122, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o := quickOpts()
	o.Rounds = 5
	o.Async = AsyncOptions{MinUpdates: 2,
		Speed: &SpeedModel{Slowdown: []float64{1, 2, 3}, Seed: 3}}
	a := run(o)
	o.Async.Faults = Faults{} // explicit zero value
	b := run(o)
	for i := range a.GlobalParams {
		if a.GlobalParams[i] != b.GlobalParams[i] {
			t.Fatalf("empty fault schedule changed the run at [%d]", i)
		}
	}
}
