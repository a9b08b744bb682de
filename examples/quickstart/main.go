// Quickstart: generate a Cora-like benchmark graph, simulate a 5-client
// federation with the community split, and compare AdaFGL against plain
// federated GCN — the minimal end-to-end use of the public pipeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/checkpoint"
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
	save := flag.String("save", "", "write the trained AdaFGL Step-1 extractor as a servable checkpoint (feed to cmd/adafgl-serve)")
	flag.Parse()

	// 1. Synthesise the global graph (Cora statistics, scaled down).
	spec, err := datasets.ByName("Cora")
	if err != nil {
		log.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.5, 42)
	fmt.Printf("global graph: %d nodes, %d edges, edge homophily %.3f\n",
		g.N, g.M(), g.EdgeHomophily())

	// 2. Simulate the federation: Louvain community split over 5 clients.
	cd := partition.CommunitySplit(g, 5, rand.New(rand.NewSource(7)))
	for i, sub := range cd.Subgraphs {
		fmt.Printf("  client %d: %4d nodes, %5d edges, homophily %.3f\n",
			i, sub.N, sub.M(), sub.EdgeHomophily())
	}

	// 3. Shared training configuration. federated.DefaultOptions is exactly
	// this example's scale (30 rounds x 3 local epochs, full participation);
	// see federated.PaperOptions for the full Sec. IV-A protocol.
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	fed := federated.DefaultOptions()

	// 4. Baseline: federated GCN with local correction.
	gcn := fgl.FedModel{Arch: "GCN", Correction: 10}
	resGCN, err := gcn.Run(clone(cd.Subgraphs), cfg, fed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFedGCN  : weighted test accuracy %.3f\n", resGCN.TestAcc)

	// 5. AdaFGL: Step 1 federated knowledge extractor, Step 2 adaptive
	// personalized propagation per client.
	ada := core.New()
	ada.Opt.Epochs = 60
	resAda, err := ada.Run(clone(cd.Subgraphs), cfg, fed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AdaFGL  : weighted test accuracy %.3f\n", resAda.TestAcc)
	fmt.Println("\nper-client view (HCS = homophily confidence score):")
	for i, r := range ada.Reports {
		fmt.Printf("  client %d: HCS %.2f, true homophily %.2f, accuracy %.3f\n",
			i, r.HCS, r.EdgeHomophily, r.TestAccuracy)
	}

	// 6. Optionally persist the Step-1 federated knowledge extractor, bound
	// to the full graph, as a servable checkpoint:
	//
	//	go run ./examples/quickstart -save model.ckpt
	//	go run ./cmd/adafgl-serve -ckpt model.ckpt -addr :8080
	//	curl 'localhost:8080/v1/models/model/predict?nodes=0,1,2'
	if *save != "" {
		ck, err := checkpoint.FromResult(resAda, ada.Opt.ExtractorArch, cfg, g)
		if err != nil {
			log.Fatal(err)
		}
		if err := checkpoint.Save(*save, ck); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncheckpoint written to %s (serve with: go run ./cmd/adafgl-serve -ckpt %s)\n", *save, *save)
	}
}

// clone deep-copies the subgraphs so each method trains from pristine data.
func clone(subs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(subs))
	for i, g := range subs {
		out[i] = g.Clone()
	}
	return out
}
