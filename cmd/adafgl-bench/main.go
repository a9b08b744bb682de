// Command adafgl-bench regenerates any table or figure of the AdaFGL paper's
// evaluation section from the synthetic benchmark suite.
//
// Usage:
//
//	adafgl-bench -list
//	adafgl-bench -exp table2 -factor 0.3 -rounds 30 -runs 3
//	adafgl-bench -exp all -paper        # full protocol (slow on one CPU)
//	adafgl-bench -exp chaos             # failure scenarios x robust aggregators
//	adafgl-bench -exp table2 -robust median -clip 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/federated"
	"repro/internal/parallel"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id: "+strings.Join(bench.IDs(), ", ")+", or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		paper   = flag.Bool("paper", false, "use the paper-scale protocol (slow)")
		factor  = flag.Float64("factor", 0, "dataset scale factor override")
		clients = flag.Int("clients", 0, "client count override")
		rounds  = flag.Int("rounds", 0, "federated rounds override")
		epochs  = flag.Int("epochs", 0, "local epochs override")
		runs    = flag.Int("runs", 0, "seeds per cell override")
		seed    = flag.Int64("seed", 0, "base seed override")

		asyncK         = flag.Int("async-k", 0, "Step-1 commit threshold K: commit a round once K client updates are buffered (0 or >= participants = synchronous FedAvg, the default)")
		asyncStaleness = flag.Float64("async-staleness", 0, "staleness discount α — an update s rounds stale is weighted α/(1+s) (0 = 1.0, leaving fresh updates undiscounted)")

		shardNodes = flag.Int("shard-nodes", 1_000_000, "streamed graph size for the shard scaling experiment")
		shardMax   = flag.Int("shard-max", 8, "largest shard count of the shard experiment's sweep")

		robust    = flag.String("robust", "", "Step-1 robust aggregator: fedavg (default), median, or trim")
		trimFrac  = flag.Float64("trim-frac", 0.2, "trimmed-mean fraction dropped per side when -robust trim (in [0, 0.5))")
		clip      = flag.Float64("clip", 0, "L2 update-norm clipping bound applied to every client update before aggregation (0 = off)")
		dpNoise   = flag.Float64("dp-noise", 0, "seeded Gaussian noise stddev added to the committed global each round (0 = off)")
		noiseSeed = flag.Int64("dp-noise-seed", 0, "noise stream seed (0 = derived from the run seed)")
	)
	parallel.RegisterFlag(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Printf("%-8s %s\n", id, bench.Experiments[id].Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "missing -exp (try -list)")
		os.Exit(2)
	}

	scale := bench.DefaultScale()
	scale.Factor = 0.3
	scale.Rounds = 30
	scale.Runs = 3
	if *paper {
		scale = bench.PaperScale()
	}
	if *factor > 0 {
		scale.Factor = *factor
	}
	if *clients > 0 {
		scale.Clients = *clients
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
	}
	if *epochs > 0 {
		scale.LocalEpochs = *epochs
	}
	if *runs > 0 {
		scale.Runs = *runs
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.ShardNodes = *shardNodes
	scale.ShardMax = *shardMax
	scale.Async = federated.AsyncOptions{MinUpdates: *asyncK, Staleness: *asyncStaleness}
	agg, err := federated.ParseAggregator(*robust)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale.Robust = federated.RobustOptions{Aggregator: agg, ClipNorm: *clip, NoiseStd: *dpNoise, NoiseSeed: *noiseSeed}
	if agg == federated.AggTrimmedMean {
		scale.Robust.TrimFrac = *trimFrac
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		lines, err := bench.RunExperiment(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
