// Sparse federation: the deployment stress tests of Sec. IV-E — label, edge
// and feature sparsity (Fig. 10) plus partial client participation (Fig. 11)
// — run on one dataset with AdaFGL and a FedGCN reference.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/fgl"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
)

func main() {
	parallel.RegisterFlag(flag.CommandLine)
	asyncK := flag.Int("async-k", 0, "commit threshold K: aggregate once K client updates are buffered (0 or >= participants = synchronous FedAvg)")
	asyncStaleness := flag.Float64("async-staleness", 0, "staleness discount α: updates s rounds stale weigh α/(1+s) (0 = 1.0)")
	flag.Parse()

	spec, err := datasets.ByName("Computer")
	if err != nil {
		log.Fatal(err)
	}
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	fed := federated.DefaultOptions()
	fed.Rounds = 20
	fed.LocalEpochs = 2
	// One client is (simulated) 4x slower. At the default K = N it gates every
	// aggregation round; -async-k below the participant count drops that
	// barrier and folds its late updates in staleness-discounted.
	fed.Async = federated.AsyncOptions{
		MinUpdates: *asyncK, Staleness: *asyncStaleness,
		Speed: &federated.SpeedModel{Slowdown: []float64{4}, Jitter: 0.05, Seed: 1},
	}

	fmt.Println("== sparsity sweeps on Computer (structure Non-iid split) ==")
	for _, mode := range []string{"label", "edge", "feature"} {
		fmt.Printf("\n%s sparsity:\n", mode)
		for _, frac := range []float64{0.0, 0.4, 0.8} {
			subs := makeSplit(spec, 5, 3)
			rng := rand.New(rand.NewSource(99))
			for _, sub := range subs {
				switch mode {
				case "label":
					partition.SparsifyLabels(sub, frac, rng)
				case "edge":
					sub.RemoveEdgesRandom(frac, rng)
				case "feature":
					partition.SparsifyFeatures(sub, frac, rng)
				}
			}
			ada := core.New()
			ada.Opt.Epochs = 40
			resA, err := ada.Run(cloneAll(subs), cfg, fed)
			if err != nil {
				log.Fatal(err)
			}
			resG, err := fgl.FedModel{Arch: "GCN", Correction: 10}.Run(cloneAll(subs), cfg, fed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  frac %.1f: AdaFGL %.3f | FedGCN %.3f\n", frac, resA.TestAcc, resG.TestAcc)
		}
	}

	fmt.Println("\n== sparse client participation (10 clients) ==")
	for _, p := range []float64{0.2, 0.5, 1.0} {
		subs := makeSplit(spec, 10, 5)
		fo := fed
		fo.Participation = p
		ada := core.New()
		ada.Opt.Epochs = 40
		res, err := ada.Run(subs, cfg, fo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  participation %.1f: AdaFGL %.3f (sim time %.0f, mean staleness %.2f)\n",
			p, res.TestAcc, res.RoundTime[len(res.RoundTime)-1], res.MeanStaleness)
	}
}

func makeSplit(spec datasets.Spec, clients int, seed int64) []*graph.Graph {
	g := datasets.GenerateScaled(spec, 0.4, seed)
	cd := partition.StructureNonIIDSplit(g, clients, partition.DefaultNonIID(), rand.New(rand.NewSource(seed)))
	return cd.Subgraphs
}

func cloneAll(subs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(subs))
	for i, g := range subs {
		out[i] = g.Clone()
	}
	return out
}
