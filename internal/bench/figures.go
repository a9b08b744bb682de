package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Fig2 regenerates the empirical analysis of Fig. 2 on Cora with
// s.Clients clients: (a) per-client label distributions, (b) per-client
// topology distributions, (c) round-accuracy curves, (d) per-client accuracy.
func Fig2(s Scale) ([]string, error) {
	// All four panels look at the one split per kind the runner trains on.
	splits := map[SplitKind][]*graph.Graph{}
	for _, kind := range bothSplits {
		subs, err := MakeSplit("Cora", kind, s, s.Seed)
		if err != nil {
			return nil, err
		}
		splits[kind] = subs
	}

	out := []string{"FIG 2(a): per-client label distributions (rows=clients, cols=classes)"}
	for _, kind := range bothSplits {
		out = append(out, "  "+splitTitle[kind])
		for i, sub := range splits[kind] {
			out = append(out, fmt.Sprintf("   client %2d: %v", i, sub.LabelDistribution()))
		}
	}

	out = append(out, "", "FIG 2(b): per-client topology distributions (node/edge homophily)")
	for _, kind := range bothSplits {
		out = append(out, "  "+splitTitle[kind])
		for i, sub := range splits[kind] {
			out = append(out, fmt.Sprintf("   client %2d: node %.3f edge %.3f", i, sub.NodeHomophily(), sub.EdgeHomophily()))
		}
	}

	out = append(out, "", "FIG 2(c): round-accuracy curves (every 5th round)")
	gcn := map[SplitKind][]float64{} // panel (d) plots the GCN runs of panel (c)
	for _, kind := range bothSplits {
		out = append(out, "  "+kind.String())
		for _, mn := range []string{"GCN", "GloGNN", "FedGL", "FedSage+", "FED-PUB"} {
			res, _, err := runOne(s, runSpec{dataset: "Cora", kind: kind, method: mn}, s.Seed)
			if err != nil {
				return nil, err
			}
			if mn == "GCN" {
				gcn[kind] = res.PerClient
			}
			out = append(out, fmt.Sprintf("   %-10s %s", mn, fmtCurve(res.RoundAcc, 5)))
		}
	}

	out = append(out, "", "FIG 2(d): per-client accuracy (GCN)")
	for _, kind := range bothSplits {
		out = append(out, fmt.Sprintf("  %-10s %v", kind.String(), fmtCurve(gcn[kind], 1)))
	}
	return out, nil
}

// Fig5 regenerates the topology-heterogeneity sweep: accuracy vs injection
// intensity (sampling ratio for random, budget for meta) on PubMed, Flickr
// and Reddit.
func Fig5(s Scale) ([]string, error) {
	out := []string{"FIG 5: accuracy under varying topology heterogeneity"}
	methods := []string{"FedSage+", "FED-PUB", "AdaFGL"}
	sweep := []struct {
		kind  SplitKind
		label string
		set   func(o *partition.StructureNonIIDOptions, v float64)
		vals  []float64
	}{
		{NonIID, "r", func(o *partition.StructureNonIIDOptions, v float64) { o.SamplingRatio = v }, []float64{0.1, 0.3, 0.5, 0.7}},
		{NonIIDMeta, "m", func(o *partition.StructureNonIIDOptions, v float64) { o.MetaBudget = v }, []float64{0.1, 0.2}},
	}
	for _, d := range []string{"PubMed", "Flickr", "Reddit"} {
		out = append(out, "  "+d)
		for _, mn := range methods {
			row := fmt.Sprintf("   %-10s", mn)
			for _, sw := range sweep {
				for _, v := range sw.vals {
					res, _, err := runOne(s, runSpec{dataset: d, kind: sw.kind, method: mn,
						partition: func(o *partition.StructureNonIIDOptions) { sw.set(o, v) }}, s.Seed)
					if err != nil {
						return nil, err
					}
					row += fmt.Sprintf(" %s%.1f=%.3f", sw.label, v, res.TestAcc)
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig6 regenerates the α/β sensitivity grids on one homophilous and one
// heterophilous dataset under both splits.
func Fig6(s Scale) ([]string, error) {
	out := []string{"FIG 6: hyperparameter sensitivity (rows α, cols β; cells accuracy)"}
	grid := []float64{0.1, 0.5, 0.9}
	for _, d := range []string{"Cora", "Chameleon"} {
		for _, kind := range bothSplits {
			out = append(out, fmt.Sprintf("  %s — %s", d, kind))
			for _, alpha := range grid {
				row := fmt.Sprintf("   α=%.1f:", alpha)
				for _, beta := range grid {
					res, _, err := runOne(s, runSpec{dataset: d, kind: kind, method: "AdaFGL",
						ada: func(o *core.Options) { o.Alpha, o.Beta = alpha, beta }}, s.Seed)
					if err != nil {
						return nil, err
					}
					row += fmt.Sprintf(" β=%.1f→%.3f", beta, res.TestAcc)
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// Fig7 regenerates the client-dependent HCS comparison: HCS vs true
// subgraph homophily per client under both splits.
func Fig7(s Scale) ([]string, error) {
	out := []string{"FIG 7: per-client HCS vs subgraph edge homophily"}
	for _, d := range []string{"Cora", "CiteSeer", "PubMed", "Chameleon", "Squirrel", "Actor"} {
		for _, kind := range bothSplits {
			_, reports, err := runOne(s, runSpec{dataset: d, kind: kind, method: "AdaFGL"}, s.Seed)
			if err != nil {
				return nil, err
			}
			row := fmt.Sprintf("  %-10s %-12s", d, kind)
			for _, r := range reports {
				row += fmt.Sprintf(" (hcs %.2f|homo %.2f)", r.HCS, r.EdgeHomophily)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig8 regenerates the convergence curves on Penn94, Flickr and Reddit.
func Fig8(s Scale) ([]string, error) {
	return convergenceFigure("FIG 8: convergence curves", []string{"Penn94", "Flickr", "Reddit"}, s)
}

// Fig9 regenerates the convergence curves on the six smaller datasets.
func Fig9(s Scale) ([]string, error) {
	return convergenceFigure("FIG 9: convergence curves",
		[]string{"Cora", "CiteSeer", "PubMed", "Chameleon", "Squirrel", "Actor"}, s)
}

func convergenceFigure(title string, dsets []string, s Scale) ([]string, error) {
	out := []string{title + " (every 5th round)"}
	methods := []string{"GCN", "GloGNN", "FED-PUB", "AdaFGL"}
	for _, d := range dsets {
		for _, kind := range bothSplits {
			out = append(out, fmt.Sprintf("  %s — %s", d, kind))
			for _, mn := range methods {
				res, _, err := runOne(s, runSpec{dataset: d, kind: kind, method: mn}, s.Seed)
				if err != nil {
					return nil, err
				}
				out = append(out, fmt.Sprintf("   %-10s %s (final %.3f)", mn, fmtCurve(res.RoundAcc, 5), res.TestAcc))
			}
		}
	}
	return out, nil
}

// Fig10 regenerates the sparsity experiments on Computer: feature, edge and
// label sparsity sweeps under both splits.
func Fig10(s Scale) ([]string, error) {
	out := []string{"FIG 10: sparsity robustness on Computer"}
	methods := []string{"FedSage+", "FED-PUB", "AdaFGL"}
	levels := []float64{0.2, 0.5, 0.8}
	modes := []struct {
		name  string
		apply func(g *graph.Graph, frac float64, rng *rand.Rand)
	}{
		{"feature", func(g *graph.Graph, f float64, rng *rand.Rand) { partition.SparsifyFeatures(g, f, rng) }},
		{"edge", func(g *graph.Graph, f float64, rng *rand.Rand) { g.RemoveEdgesRandom(f, rng) }},
		{"label", func(g *graph.Graph, f float64, rng *rand.Rand) { partition.SparsifyLabels(g, f, rng) }},
	}
	for _, mode := range modes {
		for _, kind := range bothSplits {
			out = append(out, fmt.Sprintf("  %s sparsity — %s", mode.name, kind))
			for _, mn := range methods {
				row := fmt.Sprintf("   %-10s", mn)
				for _, lvl := range levels {
					sparsify := func(subs []*graph.Graph, _ *federated.Options) error {
						rng := rand.New(rand.NewSource(s.Seed + int64(lvl*100)))
						for _, sub := range subs {
							mode.apply(sub, lvl, rng)
						}
						return nil
					}
					res, _, err := runOne(s, runSpec{dataset: "Computer", kind: kind, method: mn, prepare: sparsify}, s.Seed)
					if err != nil {
						return nil, err
					}
					row += fmt.Sprintf(" %.1f→%.3f", lvl, res.TestAcc)
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// Fig11 regenerates the sparse client-participation experiment on
// arxiv-year, Flickr and Reddit with twice the scale's client count (the
// paper's 20 at its 10-client protocol).
func Fig11(s Scale) ([]string, error) {
	s.Clients *= 2
	out := []string{fmt.Sprintf("FIG 11: accuracy vs participation ratio (%d-client split)", s.Clients)}
	methods := []string{"FedGL", "FedSage+", "FED-PUB", "AdaFGL"}
	ratios := []float64{0.2, 0.5, 1.0}
	for _, d := range []string{"arxiv-year", "Flickr", "Reddit"} {
		for _, kind := range bothSplits {
			out = append(out, fmt.Sprintf("  %s — %s", d, kind))
			for _, mn := range methods {
				row := fmt.Sprintf("   %-10s", mn)
				for _, ratio := range ratios {
					res, _, err := runOne(s, runSpec{dataset: d, kind: kind, method: mn,
						prepare: func(_ []*graph.Graph, fo *federated.Options) error { fo.Participation = ratio; return nil }}, s.Seed)
					if err != nil {
						return nil, err
					}
					row += fmt.Sprintf(" p%.1f=%.3f", ratio, res.TestAcc)
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}
