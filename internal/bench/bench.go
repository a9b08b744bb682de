// Package bench is the experiment harness of the AdaFGL reproduction: one
// runner per table and figure of the paper's evaluation section, each
// regenerating the same rows/series the paper reports (at configurable
// scale). Runners return formatted text lines so they can be driven by the
// adafgl-bench CLI, Go benchmarks, and tests alike.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/fgl"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/partition"
)

// Method is the common contract satisfied by fgl baselines and core.AdaFGL.
type Method interface {
	Name() string
	Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error)
}

// Scale controls experiment cost. Defaults regenerate the paper's shape in
// minutes on one CPU; raise the fields toward the paper's protocol (factor 1,
// 100 rounds, 10 runs) for tighter numbers.
type Scale struct {
	// Factor scales dataset node counts (1 = registry size).
	Factor float64
	// Clients is the federation size (paper default: 10).
	Clients int
	// Rounds / LocalEpochs configure Step-1 federated training.
	Rounds, LocalEpochs int
	// Runs is the number of seeds averaged per cell (paper: 10).
	Runs int
	// AdaEpochs is AdaFGL's Step-2 epoch budget.
	AdaEpochs int
	// Correction is the local-correction epoch budget for GNN wrappers.
	Correction int
	Seed       int64
	// Async configures Step-1's commit threshold and staleness discount for
	// every experiment (wired to the -async-k/-async-staleness flags of
	// cmd/adafgl-bench); the zero value is synchronous FedAvg.
	Async federated.AsyncOptions
	// Robust configures Step-1 robust aggregation for every experiment
	// (wired to the -robust/-trim-frac/-clip/-dp-noise flags of
	// cmd/adafgl-bench); the zero value keeps exact FedAvg. The chaos
	// experiment owns its aggregator sweep and ignores this field.
	Robust federated.RobustOptions
	// ShardNodes / ShardMax size the "shard" scaling experiment: the
	// streamed graph's node count and the largest shard count of the sweep
	// (wired to -shard-nodes/-shard-max; zero selects the smoke defaults of
	// 60k nodes and 8 shards — the CLI default is the million-node run).
	ShardNodes, ShardMax int
}

// DefaultScale is the smoke scale used by tests and testing.B benches.
func DefaultScale() Scale {
	return Scale{Factor: 0.2, Clients: 5, Rounds: 12, LocalEpochs: 2, Runs: 2, AdaEpochs: 80, Correction: 10, Seed: 1}
}

// PaperScale approximates the paper's protocol (expensive on one CPU).
func PaperScale() Scale {
	return Scale{Factor: 1, Clients: 10, Rounds: 100, LocalEpochs: 5, Runs: 10, AdaEpochs: 100, Correction: 20, Seed: 1}
}

func (s Scale) cfg() models.Config {
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	return cfg
}

func (s Scale) fedOpts(seed int64) federated.Options {
	o := federated.DefaultOptions()
	o.Rounds = s.Rounds
	o.LocalEpochs = s.LocalEpochs
	o.Seed = seed
	o.Async = s.Async
	o.Robust = s.Robust
	return o
}

func (s Scale) adaMethod() *core.AdaFGL {
	a := core.New()
	a.Opt.Epochs = s.AdaEpochs
	return a
}

// SplitKind selects the data simulation strategy.
type SplitKind int

const (
	// Community is the Louvain-based community split.
	Community SplitKind = iota
	// NonIID is the structure Non-iid split with random-injection.
	NonIID
	// NonIIDMeta is the structure Non-iid split with meta-injection.
	NonIIDMeta
)

func (k SplitKind) String() string {
	switch k {
	case Community:
		return "Community"
	case NonIID:
		return "Non-iid"
	case NonIIDMeta:
		return "Non-iid(meta)"
	}
	return "?"
}

// MakeSplit generates the dataset and applies the chosen strategy.
func MakeSplit(name string, kind SplitKind, s Scale, seed int64) ([]*graph.Graph, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	g := datasets.GenerateScaled(spec, s.Factor, seed)
	rng := rand.New(rand.NewSource(seed + 101))
	switch kind {
	case Community:
		return partition.CommunitySplit(g, s.Clients, rng).Subgraphs, nil
	case NonIID:
		return partition.StructureNonIIDSplit(g, s.Clients, partition.DefaultNonIID(), rng).Subgraphs, nil
	case NonIIDMeta:
		opt := partition.DefaultNonIID()
		opt.Meta = true
		return partition.StructureNonIIDSplit(g, s.Clients, opt, rng).Subgraphs, nil
	}
	return nil, fmt.Errorf("bench: unknown split %v", kind)
}

// ResolveMethod returns the named method; "AdaFGL" resolves to the core
// implementation, everything else through the fgl registry.
func ResolveMethod(name string, s Scale) (Method, error) {
	if name == "AdaFGL" {
		return s.adaMethod(), nil
	}
	m, err := fgl.MethodByName(name)
	if err != nil {
		return nil, err
	}
	if fm, ok := m.(fgl.FedModel); ok {
		fm.Correction = s.Correction
		return fm, nil
	}
	return m, nil
}

// Cell is one mean±std accuracy measurement.
type Cell struct {
	Mean, Std float64
	// Curve is the round-accuracy trace of the first run.
	Curve []float64
	// PerClient holds the first run's per-client accuracies.
	PerClient []float64
}

// RunCell evaluates a method on a dataset/split over s.Runs seeds.
func RunCell(dataset string, kind SplitKind, methodName string, s Scale) (Cell, error) {
	var accs []float64
	var cell Cell
	for r := 0; r < s.Runs; r++ {
		seed := s.Seed + int64(r)*1000
		subs, err := MakeSplit(dataset, kind, s, seed)
		if err != nil {
			return cell, err
		}
		m, err := ResolveMethod(methodName, s)
		if err != nil {
			return cell, err
		}
		res, err := m.Run(subs, s.cfg(), s.fedOpts(seed))
		if err != nil {
			return cell, err
		}
		accs = append(accs, res.TestAcc)
		if r == 0 {
			cell.Curve = res.RoundAcc
			cell.PerClient = res.PerClient
		}
	}
	cell.Mean, cell.Std = meanStd(accs)
	return cell, nil
}

func meanStd(v []float64) (float64, float64) { return metrics.MeanStd(v) }

// fmtCell renders "82.9±0.5" in the paper's percent convention.
func fmtCell(c Cell) string { return fmt.Sprintf("%5.1f±%.1f", c.Mean*100, c.Std*100) }

// fmtCurve renders a sparkline-ish numeric series.
func fmtCurve(curve []float64, every int) string {
	s := ""
	for i := 0; i < len(curve); i += every {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%.2f", curve[i])
	}
	return s
}
