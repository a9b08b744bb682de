// Chaos demo: federation under realistic failure. One named scenario from
// the scenario registry (churn, crash-and-rejoin, byzantine arms, ...) is
// compiled onto the federated engine's fault schedule and run with AdaFGL and a
// FedGCN reference, under plain FedAvg and under a robust aggregator, against
// the fault-free steady baseline — showing how much each method loses to the
// failure and how much the robust aggregator claws back. Every run is seeded
// and bit-reproducible for any -workers value.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/fgl"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/scenario"
)

func main() {
	parallel.RegisterFlag(flag.CommandLine)
	spec := flag.String("scenario", "byz-scale:factor=10", "failure scenario spec (see the roster printed at startup)")
	robust := flag.String("robust", "median", "robust aggregator for the mitigation arm: median or trim")
	trimFrac := flag.Float64("trim-frac", 0.2, "trimmed-mean fraction dropped per side when -robust trim")
	clip := flag.Float64("clip", 0, "L2 update-norm clipping bound applied in the mitigation arm (0 = off)")
	clients := flag.Int("clients", 5, "federation size")
	rounds := flag.Int("rounds", 15, "federated rounds")
	factor := flag.Float64("factor", 0.3, "dataset scale factor")
	seed := flag.Int64("seed", 1, "base seed")
	flag.Parse()

	agg, err := federated.ParseAggregator(*robust)
	if err != nil {
		log.Fatal(err)
	}
	mitigation := federated.RobustOptions{Aggregator: agg, ClipNorm: *clip}
	if agg == federated.AggTrimmedMean {
		mitigation.TrimFrac = *trimFrac
	}

	fmt.Println("== chaos demo: federation under realistic failure ==")
	fmt.Println("scenario roster:")
	for _, name := range scenario.Names() {
		sc, err := scenario.Parse(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %s\n", name, sc.Title)
	}

	sc, err := scenario.Parse(*spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrunning %q on Cora (factor %.2f, %d clients, %d rounds, seed %d)\n",
		sc.Spec(), *factor, *clients, *rounds, *seed)

	dsSpec, err := datasets.ByName("Cora")
	if err != nil {
		log.Fatal(err)
	}
	newSubs := func() []*graph.Graph {
		g := datasets.GenerateScaled(dsSpec, *factor, *seed)
		return partition.CommunitySplit(g, *clients, rand.New(rand.NewSource(*seed+101))).Subgraphs
	}
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0

	run := func(applyScenario bool, ro federated.RobustOptions, methodName string) *federated.Result {
		subs := newSubs()
		opt := federated.DefaultOptions()
		opt.Rounds = *rounds
		opt.LocalEpochs = 2
		opt.Seed = *seed
		if applyScenario {
			if err := sc.Apply(subs, &opt); err != nil {
				log.Fatal(err)
			}
		}
		opt.Robust = ro
		var m interface {
			Run([]*graph.Graph, models.Config, federated.Options) (*federated.Result, error)
		}
		if methodName == "AdaFGL" {
			a := core.New()
			a.Opt.Epochs = 60
			m = a
		} else {
			m = fgl.FedModel{Arch: "GCN", Correction: 10}
		}
		res, err := m.Run(subs, cfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	type arm struct {
		label    string
		scenario bool
		ro       federated.RobustOptions
	}
	arms := []arm{
		{"steady / fedavg", false, federated.RobustOptions{}},
		{sc.Name + " / fedavg", true, federated.RobustOptions{}},
		{sc.Name + " / " + agg.String(), true, mitigation},
	}
	fmt.Printf("\n%-28s %8s %8s\n", "arm", "AdaFGL", "FedGCN")
	acc := make(map[string][2]float64, len(arms))
	for _, a := range arms {
		ada := run(a.scenario, a.ro, "AdaFGL")
		base := run(a.scenario, a.ro, "FedGCN")
		acc[a.label] = [2]float64{ada.TestAcc, base.TestAcc}
		extra := ""
		if a.scenario && ada.DroppedUpdates+ada.StragglerUpdates > 0 {
			extra = fmt.Sprintf("   (adafgl ledger: %d dispatched = %d committed + %d dropped + %d straggler)",
				ada.DispatchedUpdates, ada.CommittedUpdates, ada.DroppedUpdates, ada.StragglerUpdates)
		}
		fmt.Printf("%-28s %8.3f %8.3f%s\n", a.label, ada.TestAcc, base.TestAcc, extra)
	}

	steady, faulted, mitigated := acc[arms[0].label], acc[arms[1].label], acc[arms[2].label]
	dAda, dBase := steady[0]-faulted[0], steady[1]-faulted[1]
	fmt.Printf("\ndegradation under %s (fedavg): AdaFGL %.1f pts, FedGCN %.1f pts",
		sc.Name, dAda*100, dBase*100)
	if dAda < dBase {
		fmt.Printf("  -> AdaFGL degrades less (personalized Step-2 recovery)\n")
	} else {
		fmt.Println()
	}
	fmt.Printf("mitigation via %s: AdaFGL %+.1f pts, FedGCN %+.1f pts vs the attacked fedavg arm\n",
		strings.TrimSpace(agg.String()), (mitigated[0]-faulted[0])*100, (mitigated[1]-faulted[1])*100)
}
