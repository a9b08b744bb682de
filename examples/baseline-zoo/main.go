// Baseline zoo: run every method of the paper's main comparison — six
// federated GNN wrappers, four FGL systems and AdaFGL — on one homophilous
// and one heterophilous dataset under both data simulation strategies,
// printing a miniature Table II.
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
	flag.Parse()

	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	fed := federated.DefaultOptions()
	fed.Rounds = 20
	fed.LocalEpochs = 2

	methods := []string{"GCN", "GCNII", "GAMLP", "GGCN", "GloGNN", "GPRGNN",
		"FedGL", "GCFL+", "FedSage+", "FED-PUB", "AdaFGL"}

	for _, ds := range []string{"Cora", "Chameleon"} {
		for _, noniid := range []bool{false, true} {
			splitName := "community"
			if noniid {
				splitName = "structure Non-iid"
			}
			fmt.Printf("\n== %s — %s split ==\n", ds, splitName)
			subs := makeSplit(ds, 5, noniid, 7)
			for _, name := range methods {
				res, err := runMethod(name, cloneAll(subs), cfg, fed)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %-10s %.3f\n", name, res.TestAcc)
			}
		}
	}
}

func runMethod(name string, subs []*graph.Graph, cfg models.Config, fed federated.Options) (*federated.Result, error) {
	if name == "AdaFGL" {
		ada := core.New()
		ada.Opt.Epochs = 40
		return ada.Run(subs, cfg, fed)
	}
	m, err := fgl.MethodByName(name)
	if err != nil {
		return nil, err
	}
	return m.Run(subs, cfg, fed)
}

func makeSplit(name string, clients int, noniid bool, seed int64) []*graph.Graph {
	spec, err := datasets.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.35, seed)
	rng := rand.New(rand.NewSource(seed))
	if noniid {
		return partition.StructureNonIIDSplit(g, clients, partition.DefaultNonIID(), rng).Subgraphs
	}
	return partition.CommunitySplit(g, clients, rng).Subgraphs
}

func cloneAll(subs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(subs))
	for i, g := range subs {
		out[i] = g.Clone()
	}
	return out
}
