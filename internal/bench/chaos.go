package bench

import (
	"fmt"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// chaosAggregators is the robust-aggregation sweep of the chaos experiment:
// plain FedAvg, FedAvg under update-norm clipping (calibrated at runtime to
// half the steady run's max update norm), coordinate median and trimmed mean.
var chaosAggregators = []struct {
	name string
	ro   federated.RobustOptions
}{
	{"fedavg", federated.RobustOptions{}},
	{"clip", federated.RobustOptions{ClipNorm: -1}}, // calibrated per run
	{"median", federated.RobustOptions{Aggregator: federated.AggMedian}},
	{"trim", federated.RobustOptions{Aggregator: federated.AggTrimmedMean, TrimFrac: 0.25}},
}

// chaosScenarios is the failure sweep: the fault-free reference plus churn,
// crash-and-rejoin and the two upload-attack byzantine arms.
var chaosScenarios = []string{
	"steady",
	"churn",
	"crashrejoin",
	"byz-labelflip",
	"byz-signflip",
	"byz-scale",
}

// Chaos is the failure-realistic federation experiment ("chaos"): every
// scenario from the scenario registry's failure sweep crossed with the robust
// aggregation sweep, AdaFGL against the FedGCN baseline in each cell. Before
// the table runs, the fault-free scenario is cross-checked bit-identical
// against the bare engine — scenario-steady Step-1 must reproduce a direct
// federated.Run exactly, at K = N and at K < N — so the fault layer provably
// costs nothing when unused. Each non-steady row also reports degradation versus
// the same aggregator's steady row; the closing headline names the
// churn/byzantine scenario where AdaFGL's personalized Step-2 recovers most
// relative to the baseline.
func Chaos(s Scale) ([]string, error) {
	const dataset = "Cora"
	const baseline = "FedGCN"

	if err := chaosCrossCheck(s); err != nil {
		return nil, err
	}

	// Calibrate the clip column: a huge limit never rescales, so the steady
	// run under it both stays exact and reports the raw max update norm.
	calRes, _, err := runOne(s, runSpec{dataset: dataset, kind: Community, method: baseline,
		prepare: chaosPrepare("", s.Async, federated.RobustOptions{ClipNorm: 1e9})}, s.Seed)
	if err != nil {
		return nil, err
	}
	clipNorm := calRes.MaxUpdateNorm / 2
	if clipNorm <= 0 {
		return nil, fmt.Errorf("bench: chaos: clip calibration measured no update norm")
	}

	lines := []string{
		fmt.Sprintf("Chaos: federation under failure on %s, %d clients, %d rounds — AdaFGL vs %s test accuracy",
			dataset, s.Clients, s.Rounds, baseline),
		fmt.Sprintf("cross-check passed: steady scenario bit-identical to a direct federated.Run at K=N and K=2; clip calibrated to %.4g (half the steady max update norm %.4g)",
			clipNorm, calRes.MaxUpdateNorm),
		fmt.Sprintf("%-14s %-8s %8s %8s %8s %8s", "scenario", "agg", "AdaFGL", baseline, "Δada", "Δfgl"),
	}

	// steadyAcc[agg] anchors the degradation columns: {AdaFGL, baseline}.
	steadyAcc := map[string][2]float64{}
	type headline struct {
		scen, agg    string
		dAda, dBase  float64
		adaAdvantage float64
		hasAdvantage bool
	}
	var best headline
	for _, specStr := range chaosScenarios {
		for _, agg := range chaosAggregators {
			ro := agg.ro
			if ro.ClipNorm < 0 {
				ro.ClipNorm = clipNorm
			}
			// One run per scenario x aggregator x method, all from one seed:
			// chaos compares degradation shapes, not error bars. Scenarios
			// own the schedule, so Scale.Async is dropped.
			var acc [2]float64 // AdaFGL, baseline
			for i, mn := range []string{"AdaFGL", baseline} {
				res, _, err := runOne(s, runSpec{dataset: dataset, kind: Community, method: mn,
					prepare: chaosPrepare(specStr, federated.AsyncOptions{}, ro)}, s.Seed)
				if err != nil {
					return nil, fmt.Errorf("bench: chaos: %s/%s/%s: %w", specStr, agg.name, mn, err)
				}
				acc[i] = res.TestAcc
			}
			dAda, dBase := "-", "-"
			if specStr == "steady" {
				steadyAcc[agg.name] = acc
			} else if anchor, ok := steadyAcc[agg.name]; ok {
				da := anchor[0] - acc[0]
				db := anchor[1] - acc[1]
				dAda = fmt.Sprintf("%+.3f", -da)
				dBase = fmt.Sprintf("%+.3f", -db)
				if adv := db - da; !best.hasAdvantage || adv > best.adaAdvantage {
					best = headline{scen: specStr, agg: agg.name, dAda: da, dBase: db,
						adaAdvantage: adv, hasAdvantage: true}
				}
			}
			lines = append(lines, fmt.Sprintf("%-14s %-8s %8.3f %8.3f %8s %8s",
				specStr, agg.name, acc[0], acc[1], dAda, dBase))
		}
	}
	if best.hasAdvantage {
		lines = append(lines, fmt.Sprintf(
			"headline: under %s/%s AdaFGL degrades %.1f pts vs %s %.1f pts (advantage %+.1f pts)",
			best.scen, best.agg, best.dAda*100, baseline, best.dBase*100, best.adaAdvantage*100))
	}
	return lines, nil
}

// chaosPrepare is the runSpec.prepare hook of every chaos run: the options
// take the given schedule and aggregator, then the named scenario (none when
// empty) is applied over the fresh subgraphs.
func chaosPrepare(scen string, async federated.AsyncOptions, ro federated.RobustOptions) func([]*graph.Graph, *federated.Options) error {
	return func(subs []*graph.Graph, fo *federated.Options) error {
		fo.Async, fo.Robust = async, ro
		if scen == "" {
			return nil
		}
		sc, err := scenario.Parse(scen)
		if err != nil {
			return err
		}
		return sc.Apply(subs, fo)
	}
}

// chaosCrossCheck proves the fault layer is free when unused: the steady
// scenario applied over fresh data must leave Step-1 bit-identical to a
// direct federated.Run, both at the synchronous barrier and at K = 2 under
// a skewed speed model with a staleness discount. Both arms are bare Step 1:
// FedGCN with no local correction.
func chaosCrossCheck(s Scale) error {
	s.Correction = 0
	variants := []struct {
		name  string
		async federated.AsyncOptions
	}{
		{"K=N", federated.AsyncOptions{}},
		{"K=2", federated.AsyncOptions{MinUpdates: 2, Staleness: 0.5,
			Speed: &federated.SpeedModel{Slowdown: []float64{3}, Jitter: 0.1, Seed: s.Seed}}},
	}
	for _, v := range variants {
		var params [2][]float64
		for i, scen := range []string{"", "steady"} {
			res, _, err := runOne(s, runSpec{dataset: "Cora", kind: Community, method: "GCN",
				prepare: chaosPrepare(scen, v.async, federated.RobustOptions{})}, s.Seed)
			if err != nil {
				return err
			}
			params[i] = res.GlobalParams
		}
		direct, viaScenario := params[0], params[1]
		if len(direct) != len(viaScenario) {
			return fmt.Errorf("bench: chaos cross-check: %s: dimension drifted", v.name)
		}
		for i := range direct {
			if direct[i] != viaScenario[i] {
				return fmt.Errorf("bench: chaos cross-check: %s: steady scenario diverges from a direct run at param %d", v.name, i)
			}
		}
	}
	return nil
}
