// Package bench is the experiment harness of the AdaFGL reproduction: one
// runner per table and figure of the paper's evaluation section, each
// regenerating the same rows/series the paper reports (at configurable
// scale). Runners return formatted text lines so they can be driven by the
// adafgl-bench CLI, Go benchmarks, and tests alike.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/fgl"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/partition"
)

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

// bothSplits is the pair of strategies most tables and figures compare, and
// splitTitle their long names.
var (
	bothSplits = []SplitKind{Community, NonIID}
	splitTitle = map[SplitKind]string{Community: "community split", NonIID: "structure Non-iid split"}
)

// MakeSplit generates the dataset and applies the chosen strategy.
func MakeSplit(name string, kind SplitKind, s Scale, seed int64) ([]*graph.Graph, error) {
	_, subs, err := split(name, kind, nil, s, seed)
	return subs, err
}

// split is the one place a dataset becomes client subgraphs: the graph is
// generated from seed, the partition draws from the stream seed+101. tweak,
// when set, adjusts the structure Non-iid options (ignored by Community). The
// full graph is returned beside the subgraphs for callers that serve it.
func split(name string, kind SplitKind, tweak func(*partition.StructureNonIIDOptions), s Scale, seed int64) (*graph.Graph, []*graph.Graph, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	g := datasets.GenerateScaled(spec, s.Factor, seed)
	rng := rand.New(rand.NewSource(seed + 101))
	opt := partition.DefaultNonIID()
	switch kind {
	case Community:
		return g, partition.CommunitySplit(g, s.Clients, rng).Subgraphs, nil
	case NonIID:
	case NonIIDMeta:
		opt.Meta = true
	default:
		return nil, nil, fmt.Errorf("bench: unknown split %v", kind)
	}
	if tweak != nil {
		tweak(&opt)
	}
	return g, partition.StructureNonIIDSplit(g, s.Clients, opt, rng).Subgraphs, nil
}

// ResolveMethod returns the named method; "AdaFGL" resolves to the core
// implementation, everything else through the fgl registry.
func ResolveMethod(name string, s Scale) (fgl.Method, error) {
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

// runSpec is one run of the paper's protocol: a method on a dataset under a
// split. Every table and figure is a loop over runSpecs; the optional fields
// are the axes the evaluation varies.
type runSpec struct {
	dataset string
	kind    SplitKind
	// partition adjusts the structure Non-iid injection (Fig. 5).
	partition func(*partition.StructureNonIIDOptions)
	method    string
	// ada adjusts AdaFGL's options (Tables VI/VII, Fig. 6); other methods
	// ignore it.
	ada func(*core.Options)
	// prepare edits the client subgraphs and the federated options between
	// the split and the run (inductive transplant, sparsifiers,
	// participation, chaos scenarios).
	prepare func(subs []*graph.Graph, fo *federated.Options) error
}

// runOne executes sp once from seed. The reports are AdaFGL's per-client
// diagnostics, nil for every other method.
func runOne(s Scale, sp runSpec, seed int64) (*federated.Result, []core.ClientReport, error) {
	_, subs, err := split(sp.dataset, sp.kind, sp.partition, s, seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := ResolveMethod(sp.method, s)
	if err != nil {
		return nil, nil, err
	}
	ada, _ := m.(*core.AdaFGL)
	if ada != nil && sp.ada != nil {
		sp.ada(&ada.Opt)
	}
	fo := s.fedOpts(seed)
	if sp.prepare != nil {
		if err := sp.prepare(subs, &fo); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run(subs, s.cfg(), fo)
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s (%v): %w", sp.method, sp.dataset, sp.kind, err)
	}
	if ada != nil {
		return res, ada.Reports, nil
	}
	return res, nil, nil
}

// runCell folds sp over s.Runs seeds into one mean±std cell.
func runCell(s Scale, sp runSpec) (Cell, error) {
	var accs []float64
	var cell Cell
	for r := 0; r < s.Runs; r++ {
		res, _, err := runOne(s, sp, s.Seed+int64(r)*1000)
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

// RunCell evaluates a method on a dataset/split over s.Runs seeds.
func RunCell(dataset string, kind SplitKind, methodName string, s Scale) (Cell, error) {
	return runCell(s, runSpec{dataset: dataset, kind: kind, method: methodName})
}

// meanStd returns the sample mean and (n-1) standard deviation of a cell's
// per-seed accuracies.
func meanStd(v []float64) (mean, std float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(v)-1))
}

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
