package federated

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
)

func TestParseAggregator(t *testing.T) {
	cases := map[string]AggregatorKind{
		"": AggFedAvg, "fedavg": AggFedAvg, "median": AggMedian,
		"trim": AggTrimmedMean, "trimmed": AggTrimmedMean, "trimmed-mean": AggTrimmedMean,
	}
	for in, want := range cases {
		got, err := ParseAggregator(in)
		if err != nil || got != want {
			t.Fatalf("ParseAggregator(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAggregator("krum"); err == nil || !strings.Contains(err.Error(), "federated: robust:") {
		t.Fatalf("unknown aggregator must fail with a named error, got %v", err)
	}
	for kind, name := range map[AggregatorKind]string{AggFedAvg: "fedavg", AggMedian: "median", AggTrimmedMean: "trim"} {
		if kind.String() != name {
			t.Fatalf("%d.String() = %q, want %q", kind, kind.String(), name)
		}
	}
}

func TestAggregatorPrimitives(t *testing.T) {
	ups := [][]float64{{1, 10}, {2, 20}, {3, 90}}
	ws := []float64{1, 1, 2}

	mean := weightedMean(2, ups, ws)
	if want := (1 + 2 + 2*3) / 4.0; mean[0] != want {
		t.Fatalf("weightedMean[0] = %v, want %v", mean[0], want)
	}

	med := coordinateMedian(2, ups)
	if med[0] != 2 || med[1] != 20 {
		t.Fatalf("odd-count median = %v, want [2 20]", med)
	}
	medEven := coordinateMedian(1, [][]float64{{4}, {1}, {3}, {2}})
	if medEven[0] != 2.5 {
		t.Fatalf("even-count median = %v, want 2.5", medEven[0])
	}

	// TrimFrac 1/3 drops one from each end: only the middle value survives.
	trim := trimmedMean(2, ups, ws, 0.34)
	if trim[0] != 2 || trim[1] != 20 {
		t.Fatalf("trimmedMean = %v, want [2 20]", trim)
	}
	// TrimFrac 0 is exactly the weighted mean.
	if got := trimmedMean(2, ups, ws, 0); got[0] != mean[0] || got[1] != mean[1] {
		t.Fatalf("zero-trim trimmedMean %v != weightedMean %v", got, mean)
	}
	// A trim that would drop everything is capped to leave survivors.
	two := trimmedMean(1, [][]float64{{1}, {5}}, []float64{1, 1}, 0.49)
	if two[0] != 3 {
		t.Fatalf("capped trim of two updates = %v, want their mean 3", two[0])
	}
}

func TestClipDelta(t *testing.T) {
	base := []float64{1, 1}
	in := []float64{1 + 3, 1 + 4} // delta norm 5
	if got := clipDelta(in, base, 10); got != 5 {
		t.Fatalf("within-limit clip returned %v, want the raw norm 5", got)
	}
	if in[0] != 4 || in[1] != 5 {
		t.Fatalf("within-limit clip must not rescale, got %v", in)
	}
	if got := clipDelta(in, base, 1); got != 1 {
		t.Fatalf("clip returned %v, want the limit 1", got)
	}
	var ss float64
	for i := range in {
		d := in[i] - base[i]
		ss += d * d
	}
	if norm := math.Sqrt(ss); math.Abs(norm-1) > 1e-12 {
		t.Fatalf("post-clip delta norm = %v, want 1", norm)
	}
}

func TestRobustValidateRejectsBadKnobs(t *testing.T) {
	clients := coraClients(t, 2, 11)
	bad := []RobustOptions{
		{Aggregator: AggregatorKind(99)},
		{TrimFrac: -0.1}, {TrimFrac: 0.5}, {TrimFrac: math.NaN()},
		{ClipNorm: -1}, {ClipNorm: math.Inf(1)}, {ClipNorm: math.NaN()},
		{NoiseStd: -1}, {NoiseStd: math.NaN()},
	}
	for _, ro := range bad {
		o := quickOpts()
		o.Rounds = 1
		o.Robust = ro
		if _, err := NewServer(clients, 1).Run(o); err == nil || !strings.Contains(err.Error(), "federated: robust:") {
			t.Fatalf("engine accepted bad robust options %+v (err=%v)", ro, err)
		}
	}
}

// Zero local epochs make every update an exact echo of the broadcast, so
// every aggregator — mean, median, trimmed mean — must return the broadcast
// itself: the "equal FedAvg with zero attackers" degenerate case. Median and
// trimmed survivors reproduce the echo bit for bit; the FedAvg weighted mean
// ∑wv/∑w of identical values is exact to one ulp, hence the 1e-12 tolerance
// (the same bound the engine's historical conservation test uses).
func TestAggregatorsConserveZeroEpochEchoes(t *testing.T) {
	for _, agg := range []AggregatorKind{AggFedAvg, AggMedian, AggTrimmedMean} {
		clients := coraClients(t, 3, 17)
		before := append([]float64(nil), nn.Flatten(clients[0].Model)...)
		o := DefaultOptions()
		o.Rounds = 3
		o.LocalEpochs = 0
		o.Robust = RobustOptions{Aggregator: agg, TrimFrac: 0.25, ClipNorm: 10}
		o.Async = AsyncOptions{MinUpdates: 2, Staleness: 0.5,
			Speed: &SpeedModel{Slowdown: []float64{1, 3, 9}, Seed: 5}}
		res, err := Run(clients, 18, o)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.GlobalParams {
			if math.Abs(v-before[i]) > 1e-12 {
				t.Fatalf("%v: zero-epoch echoes must be conserved: [%d] %v != %v", agg, i, v, before[i])
			}
		}
	}
}

// With zero attackers and a full barrier, median and trimmed-mean runs stay
// in lockstep with FedAvg on real training too whenever the participant set
// is symmetric enough; here we pin the cheap exact case — identical updates —
// directly on the primitives.
func TestMedianAndTrimEqualFedAvgOnIdenticalUpdates(t *testing.T) {
	u := []float64{0.5, -2, 3.25}
	ups := [][]float64{u, u, u, u}
	ws := []float64{3, 1, 2, 5}
	mean := weightedMean(3, ups, ws)
	med := coordinateMedian(3, ups)
	trim := trimmedMean(3, ups, ws, 0.25)
	for i := range u {
		if mean[i] != u[i] || med[i] != u[i] || trim[i] != u[i] {
			t.Fatalf("identical updates must aggregate to themselves: mean %v median %v trim %v", mean, med, trim)
		}
	}
}

func TestClippingBoundsEveryCommittedUpdateNorm(t *testing.T) {
	const clip = 0.05
	// K = N (FedAvg) and K < N (stale updates clipped against the broadcast
	// they were trained from, not the current global).
	for _, k := range []int{0, 2} {
		clients := coraClients(t, 3, 23)
		o := quickOpts()
		o.Rounds = 4
		o.Robust.ClipNorm = clip
		o.Async = AsyncOptions{MinUpdates: k, Speed: skewedSpeed()}
		res, err := Run(clients, 24, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxUpdateNorm <= 0 {
			t.Fatalf("K=%d: MaxUpdateNorm not recorded", k)
		}
		if res.MaxUpdateNorm > clip+1e-12 {
			t.Fatalf("K=%d: committed update norm %v exceeds clip %v", k, res.MaxUpdateNorm, clip)
		}
	}
}

func TestDPNoiseIsSeededAndDeterministic(t *testing.T) {
	run := func(noiseSeed int64) *Result {
		clients := coraClients(t, 2, 31)
		o := quickOpts()
		o.Rounds = 3
		o.Robust.NoiseStd = 0.01
		o.Robust.NoiseSeed = noiseSeed
		res, err := Run(clients, 32, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	for i := range a.GlobalParams {
		if a.GlobalParams[i] != b.GlobalParams[i] {
			t.Fatalf("same noise seed must be bit-identical at [%d]", i)
		}
	}
	same := true
	for i := range a.GlobalParams {
		if a.GlobalParams[i] != c.GlobalParams[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different noise seeds produced identical params; noise is not applied")
	}
}

// A lone scaled-update attacker wrecks the FedAvg aggregate but barely moves
// the coordinate median: the robust run's final global must stay far closer
// to the attack-free reference.
func TestMedianResistsScaledUpdateAttack(t *testing.T) {
	run := func(agg AggregatorKind, attack bool) *Result {
		clients := coraClients(t, 4, 41)
		o := quickOpts()
		o.Rounds = 6
		o.Robust.Aggregator = agg
		if attack {
			o.Async.Faults.Events = []FaultEvent{
				{Time: 0, Client: 3, Kind: FaultCorrupt, Attack: Attack{Kind: AttackScale, Factor: 50}},
			}
		}
		res, err := Run(clients, 42, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dist := func(a, b []float64) float64 {
		var ss float64
		for i := range a {
			d := a[i] - b[i]
			ss += d * d
		}
		return math.Sqrt(ss)
	}
	honest := run(AggFedAvg, false)
	avg := dist(run(AggFedAvg, true).GlobalParams, honest.GlobalParams)
	med := dist(run(AggMedian, true).GlobalParams, honest.GlobalParams)
	if med >= avg {
		t.Fatalf("median must resist the scale attack better than FedAvg: median dist %v >= fedavg dist %v", med, avg)
	}
}
