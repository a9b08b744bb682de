package bench

import (
	"fmt"

	"repro/internal/federated"
	"repro/internal/fgl"
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

	newSubs := func() ([]*graph.Graph, error) {
		return MakeSplit(dataset, Community, s, s.Seed)
	}
	if err := chaosCrossCheck(s, newSubs); err != nil {
		return nil, err
	}

	// Calibrate the clip column: a huge limit never rescales, so the steady
	// run under it both stays exact and reports the raw max update norm.
	calOpt := s.fedOpts(s.Seed)
	calOpt.Robust = federated.RobustOptions{ClipNorm: 1e9}
	calSubs, err := newSubs()
	if err != nil {
		return nil, err
	}
	calMethod, err := ResolveMethod(baseline, s)
	if err != nil {
		return nil, err
	}
	calRes, err := calMethod.Run(calSubs, s.cfg(), calOpt)
	if err != nil {
		return nil, err
	}
	clipNorm := calRes.MaxUpdateNorm / 2
	if clipNorm <= 0 {
		return nil, fmt.Errorf("bench: chaos: clip calibration measured no update norm")
	}

	// One run per scenario x aggregator x method, all from one seed: chaos
	// compares degradation shapes, not error bars.
	run := func(specStr string, ro federated.RobustOptions, methodName string) (*federated.Result, error) {
		sc, err := scenario.Parse(specStr)
		if err != nil {
			return nil, err
		}
		subs, err := newSubs()
		if err != nil {
			return nil, err
		}
		opt := s.fedOpts(s.Seed)
		opt.Async = federated.AsyncOptions{} // scenarios own the schedule
		if err := sc.Apply(subs, &opt); err != nil {
			return nil, err
		}
		opt.Robust = ro
		m, err := ResolveMethod(methodName, s)
		if err != nil {
			return nil, err
		}
		return m.Run(subs, s.cfg(), opt)
	}

	lines := []string{
		fmt.Sprintf("Chaos: federation under failure on %s, %d clients, %d rounds — AdaFGL vs %s test accuracy",
			dataset, s.Clients, s.Rounds, baseline),
		fmt.Sprintf("cross-check passed: steady scenario bit-identical to a direct federated.Run at K=N and K=2; clip calibrated to %.4g (half the steady max update norm %.4g)",
			clipNorm, calRes.MaxUpdateNorm),
		fmt.Sprintf("%-14s %-8s %8s %8s %8s %8s", "scenario", "agg", "AdaFGL", baseline, "Δada", "Δfgl"),
	}

	// steadyAcc[agg][method] anchors the degradation columns.
	steadyAcc := map[string]map[string]float64{}
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
			adaRes, err := run(specStr, ro, "AdaFGL")
			if err != nil {
				return nil, fmt.Errorf("bench: chaos: %s/%s/AdaFGL: %w", specStr, agg.name, err)
			}
			baseRes, err := run(specStr, ro, baseline)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos: %s/%s/%s: %w", specStr, agg.name, baseline, err)
			}
			dAda, dBase := "-", "-"
			if specStr == "steady" {
				steadyAcc[agg.name] = map[string]float64{"ada": adaRes.TestAcc, "base": baseRes.TestAcc}
			} else if anchor, ok := steadyAcc[agg.name]; ok {
				da := anchor["ada"] - adaRes.TestAcc
				db := anchor["base"] - baseRes.TestAcc
				dAda = fmt.Sprintf("%+.3f", -da)
				dBase = fmt.Sprintf("%+.3f", -db)
				if adv := db - da; !best.hasAdvantage || adv > best.adaAdvantage {
					best = headline{scen: specStr, agg: agg.name, dAda: da, dBase: db,
						adaAdvantage: adv, hasAdvantage: true}
				}
			}
			lines = append(lines, fmt.Sprintf("%-14s %-8s %8.3f %8.3f %8s %8s",
				specStr, agg.name, adaRes.TestAcc, baseRes.TestAcc, dAda, dBase))
		}
	}
	if best.hasAdvantage {
		lines = append(lines, fmt.Sprintf(
			"headline: under %s/%s AdaFGL degrades %.1f pts vs %s %.1f pts (advantage %+.1f pts)",
			best.scen, best.agg, best.dAda*100, baseline, best.dBase*100, best.adaAdvantage*100))
	}
	return lines, nil
}

// chaosCrossCheck proves the fault layer is free when unused: the steady
// scenario applied over fresh data must leave Step-1 bit-identical to a
// direct federated.Run, both at the synchronous barrier and at K = 2 under
// a skewed speed model with a staleness discount.
func chaosCrossCheck(s Scale, newSubs func() ([]*graph.Graph, error)) error {
	type variant struct {
		name  string
		async federated.AsyncOptions
	}
	variants := []variant{
		{"K=N", federated.AsyncOptions{}},
		{"K=2", federated.AsyncOptions{MinUpdates: 2, Staleness: 0.5,
			Speed: &federated.SpeedModel{Slowdown: []float64{3}, Jitter: 0.1, Seed: s.Seed}}},
	}
	for _, v := range variants {
		direct, err := chaosStepOne(s, newSubs, v.async, false)
		if err != nil {
			return err
		}
		viaScenario, err := chaosStepOne(s, newSubs, v.async, true)
		if err != nil {
			return err
		}
		if len(direct.GlobalParams) != len(viaScenario.GlobalParams) {
			return fmt.Errorf("bench: chaos cross-check: %s: dimension drifted", v.name)
		}
		for i := range direct.GlobalParams {
			if direct.GlobalParams[i] != viaScenario.GlobalParams[i] {
				return fmt.Errorf("bench: chaos cross-check: %s: steady scenario diverges from a direct run at param %d", v.name, i)
			}
		}
	}
	return nil
}

// chaosStepOne runs one bare Step-1 federation (no Step-2, no correction),
// optionally routed through the steady scenario's Apply.
func chaosStepOne(s Scale, newSubs func() ([]*graph.Graph, error), async federated.AsyncOptions, viaScenario bool) (*federated.Result, error) {
	subs, err := newSubs()
	if err != nil {
		return nil, err
	}
	opt := s.fedOpts(s.Seed)
	opt.Async = async
	opt.Robust = federated.RobustOptions{}
	if viaScenario {
		sc, err := scenario.Parse("steady")
		if err != nil {
			return nil, err
		}
		if err := sc.Apply(subs, &opt); err != nil {
			return nil, err
		}
	}
	m := fgl.FedModel{Arch: "GCN"}
	return m.Run(subs, s.cfg(), opt)
}
