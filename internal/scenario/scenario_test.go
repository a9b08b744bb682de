package scenario

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/parallel"
)

// tinyFleet builds n small deterministic labeled ring subgraphs (10 nodes, 4
// features correlated with 2 classes) — enough structure for one real
// federated round in well under a millisecond.
func tinyFleet(n int) []*graph.Graph {
	subs := make([]*graph.Graph, n)
	for i := 0; i < n; i++ {
		const nodes = 10
		rng := rand.New(rand.NewSource(int64(100 + i)))
		x := matrix.New(nodes, 4)
		labels := make([]int, nodes)
		edges := make([][2]int, 0, nodes)
		for v := 0; v < nodes; v++ {
			labels[v] = v % 2
			for f := 0; f < 4; f++ {
				x.Data[v*4+f] = 0.1*rng.NormFloat64() + float64(labels[v])*float64(f%2)
			}
			edges = append(edges, [2]int{v, (v + 1) % nodes})
		}
		g := graph.New(nodes, edges, x, labels, 2)
		for v := 0; v < nodes; v++ {
			if v < 6 {
				g.TrainMask[v] = true
			} else {
				g.TestMask[v] = true
			}
		}
		subs[i] = g
	}
	return subs
}

func tinyConfig() models.Config {
	return models.Config{Hidden: 4, Dropout: 0, Hops: 2, Alpha: 0.1, LR: 0.05}
}

func baseOpts() federated.Options {
	o := federated.DefaultOptions()
	o.Rounds = 3
	o.LocalEpochs = 1
	o.Seed = 1
	return o
}

// runScenario applies spec to a fresh tiny fleet and runs it end to end.
func runScenario(t *testing.T, specStr string, workers int) *federated.Result {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)
	sc, err := Parse(specStr)
	if err != nil {
		t.Fatal(err)
	}
	subs := tinyFleet(4)
	opt := baseOpts()
	if err := sc.Apply(subs, &opt); err != nil {
		t.Fatal(err)
	}
	clients := federated.BuildClients(subs, models.Registry["GCN"], tinyConfig(), 7)
	res, err := federated.Run(clients, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNamesAndSpecRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry shrank: %v", names)
	}
	for _, name := range names {
		sc, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		back, err := Parse(sc.Spec())
		if err != nil {
			t.Fatalf("Spec round-trip of %q (%q): %v", name, sc.Spec(), err)
		}
		if back.Name != sc.Name || !reflect.DeepEqual(back.Params, sc.Params) {
			t.Fatalf("Spec round-trip drifted: %+v vs %+v", back, sc)
		}
		if sc.Title == "" {
			t.Fatalf("%s has no title", name)
		}
	}
}

func TestParseOverridesAndErrors(t *testing.T) {
	sc, err := Parse("churn:leave=2,joinat=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["leave"] != 2 || sc.Params["joinat"] != 0.1 || sc.Params["join"] != 1 {
		t.Fatalf("override/default mix wrong: %v", sc.Params)
	}
	for _, bad := range []string{
		"nope", "churn:bogus=1", "churn:leave", "churn:=3",
		"churn:leave=abc", "churn:leave=NaN", "churn:leave=+Inf",
	} {
		if _, err := Parse(bad); err == nil || !strings.HasPrefix(err.Error(), "scenario:") {
			t.Fatalf("Parse(%q) must fail with a scenario: error, got %v", bad, err)
		}
	}
}

func TestApplyValidatesFleetAndParams(t *testing.T) {
	subs := tinyFleet(3)
	opt := baseOpts()
	cases := []struct {
		spec string
		subs []*graph.Graph
		opt  *federated.Options
	}{
		{"steady", nil, &opt},
		{"steady", subs, nil},
		{"churn:leave=2,join=1", subs, &opt},  // no stable client left
		{"churn:leave=1.5", subs, &opt},       // fractional count
		{"crashrejoin:clients=3", subs, &opt}, // must keep one survivor
		{"crashrejoin:at=2", subs, &opt},      // fraction out of range
		{"byz-signflip:m=3", subs, &opt},      // no honest majority anchor
		{"byz-labelflip:frac=1.5", subs, &opt},
		{"byz-scale:factor=-1", subs, &opt},
		{"waves:groups=5", subs, &opt}, // more groups than clients
		{"straggler:factor=0.5", subs, &opt},
	}
	for _, c := range cases {
		sc, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if err := sc.Apply(c.subs, c.opt); err == nil || !strings.HasPrefix(err.Error(), "scenario:") {
			t.Fatalf("Apply(%q) must fail with a scenario: error, got %v", c.spec, err)
		}
	}
	badRounds := baseOpts()
	badRounds.Rounds = 0
	sc, _ := Parse("steady")
	if err := sc.Apply(subs, &badRounds); err == nil || !strings.HasPrefix(err.Error(), "scenario:") {
		t.Fatalf("zero rounds must be rejected, got %v", err)
	}
}

func TestSteadyLeavesOptionsUntouched(t *testing.T) {
	sc, err := Parse("steady")
	if err != nil {
		t.Fatal(err)
	}
	subs := tinyFleet(2)
	opt := baseOpts()
	want := opt
	if err := sc.Apply(subs, &opt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opt, want) {
		t.Fatalf("steady must not touch options: %+v vs %+v", opt, want)
	}
}

// Every registered scenario must be bit-identical across re-runs and across
// worker counts at a fixed seed — the chaos determinism property, enforced
// under -race by the CI race job.
func TestEveryScenarioBitIdenticalAcrossWorkersAndReruns(t *testing.T) {
	for _, name := range Names() {
		ref := runScenario(t, name, 1)
		for run, workers := range map[string]int{"rerun@1": 1, "workers=3": 3, "workers=8": 8} {
			got := runScenario(t, name, workers)
			if len(got.GlobalParams) != len(ref.GlobalParams) {
				t.Fatalf("%s %s: dim drifted", name, run)
			}
			for i := range ref.GlobalParams {
				if got.GlobalParams[i] != ref.GlobalParams[i] {
					t.Fatalf("%s %s: GlobalParams[%d] %v != %v", name, run, i, got.GlobalParams[i], ref.GlobalParams[i])
				}
			}
			if !reflect.DeepEqual(got.RoundTime, ref.RoundTime) ||
				got.DispatchedUpdates != ref.DispatchedUpdates ||
				got.DroppedUpdates != ref.DroppedUpdates {
				t.Fatalf("%s %s: schedule or ledger drifted", name, run)
			}
		}
	}
}

func TestLabelFlipPoisonsOnlyAttackerTrainLabels(t *testing.T) {
	subs := tinyFleet(3)
	before := make([][]int, len(subs))
	for i, g := range subs {
		before[i] = append([]int(nil), g.Labels...)
	}
	sc, err := Parse("byz-labelflip:m=1,frac=1")
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOpts()
	if err := sc.Apply(subs, &opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // honest clients untouched
		if !reflect.DeepEqual(subs[i].Labels, before[i]) {
			t.Fatalf("honest client %d labels mutated", i)
		}
	}
	g := subs[2]
	for v := 0; v < g.N; v++ {
		switch {
		case g.TrainMask[v]:
			if g.Labels[v] == before[2][v] {
				t.Fatalf("frac=1 must flip every train label, node %d unchanged", v)
			}
			if g.Labels[v] < 0 || g.Labels[v] >= g.Classes {
				t.Fatalf("flipped label out of range: %d", g.Labels[v])
			}
		default:
			if g.Labels[v] != before[2][v] {
				t.Fatalf("non-train label %d mutated", v)
			}
		}
	}
	// Label flipping is data-level: it must leave the commit schedule alone.
	if !reflect.DeepEqual(opt, baseOpts()) {
		t.Fatalf("byz-labelflip must not touch the options, got %+v", opt)
	}
}

func TestChurnScheduleShape(t *testing.T) {
	subs := tinyFleet(4)
	opt := baseOpts()
	sc, err := Parse("churn:leave=1,join=2,leaveat=0.5,joinat=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply(subs, &opt); err != nil {
		t.Fatal(err)
	}
	f := opt.Async.Faults
	if !reflect.DeepEqual(f.DownAtStart, []int{0, 1}) {
		t.Fatalf("joiners must start down: %v", f.DownAtStart)
	}
	if len(f.Events) != 3 {
		t.Fatalf("want 2 joins + 1 leave, got %v", f.Events)
	}
	h := horizon(subs, &opt)
	for _, ev := range f.Events {
		if ev.Time < 0 || ev.Time > h {
			t.Fatalf("event outside horizon: %+v (h=%v)", ev, h)
		}
	}
}

// The crash-rejoin scenario must actually lose in-flight work and still
// finish every round with the rejoined client participating again.
func TestCrashRejoinDropsAndRecovers(t *testing.T) {
	res := runScenario(t, "crashrejoin:clients=1,at=0.3,down=0.3", 4)
	if res.DroppedUpdates < 1 {
		t.Fatalf("crash must drop in-flight work, dropped = %d", res.DroppedUpdates)
	}
	if res.DispatchedUpdates != res.CommittedUpdates+res.DroppedUpdates+res.StragglerUpdates {
		t.Fatal("data-mass ledger out of balance")
	}
	if len(res.RoundAcc) != 3 {
		t.Fatalf("fleet survives a single crash, want 3 commits, got %d", len(res.RoundAcc))
	}
}

// Waves must keep committing while groups alternate, and the ledger still
// balances.
func TestWavesRunAndBalance(t *testing.T) {
	res := runScenario(t, "waves:groups=2,period=1", 2)
	if len(res.RoundAcc) == 0 {
		t.Fatal("waves committed nothing")
	}
	if res.DispatchedUpdates != res.CommittedUpdates+res.DroppedUpdates+res.StragglerUpdates {
		t.Fatal("data-mass ledger out of balance")
	}
}
