// Package models implements the centralized GNN architectures evaluated in
// the AdaFGL paper as client-side models: GCN, SGC, GCNII, GAMLP (homophilous
// family) and GPRGNN, GGCN, GloGNN (heterophilous family), plus a plain MLP.
// Each model binds to one graph at construction (its client subgraph in the
// federated setting) and exposes logits plus manual backpropagation, so all
// models share one training loop and one FedAvg parameter layout.
package models

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
)

// Model is a node classifier bound to a fixed graph.
type Model interface {
	nn.Module
	// Logits returns the N x Classes score matrix. train toggles dropout.
	Logits(train bool) *matrix.Dense
	// Backward backpropagates dL/dlogits into parameter gradients.
	Backward(grad *matrix.Dense)
}

// Config carries the architecture hyperparameters shared by all models,
// matching Sec. IV-A of the paper (hidden 64, dropout 0.5 unless noted).
type Config struct {
	Hidden  int
	Dropout float64
	// Hops is the propagation depth K for decoupled models (SGC, GAMLP,
	// GPRGNN) and the layer count for deep models (GCNII).
	Hops int
	// Alpha is the residual/teleport coefficient (GCNII initial residual,
	// GPRGNN PPR initialisation, GloGNN mixing).
	Alpha float64
	// LR and WeightDecay configure the optimiser built by NewOptimizer.
	LR          float64
	WeightDecay float64
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{Hidden: 64, Dropout: 0.5, Hops: 3, Alpha: 0.1, LR: 0.01, WeightDecay: 5e-4}
}

// NewOptimizer builds the Adam optimiser used across all experiments.
func (c Config) NewOptimizer() nn.Optimizer { return nn.NewAdam(c.LR, c.WeightDecay) }

// Builder constructs a model of some architecture bound to g. Federated
// clients use a shared Builder so parameter layouts align for FedAvg.
type Builder func(g *graph.Graph, cfg Config, rng *rand.Rand) Model

// Registry maps the architecture names used in the paper's tables to
// builders.
var Registry = map[string]Builder{
	"MLP":    func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewMLPModel(g, c, r) },
	"GCN":    func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGCN(g, c, r) },
	"SGC":    func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewSGC(g, c, r) },
	"GCNII":  func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGCNII(g, c, r) },
	"GAMLP":  func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGAMLP(g, c, r) },
	"GPRGNN": func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGPRGNN(g, c, r) },
	"GGCN":   func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGGCN(g, c, r) },
	"GloGNN": func(g *graph.Graph, c Config, r *rand.Rand) Model { return NewGloGNN(g, c, r) },
}

// BuilderFor returns the registered builder or an error for unknown names.
func BuilderFor(name string) (Builder, error) {
	b, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown architecture %q", name)
	}
	return b, nil
}

// TrainEpoch runs one full-batch gradient step on the given mask and returns
// the loss. It is the LocalTraining primitive of Eq. (3).
func TrainEpoch(m Model, opt nn.Optimizer, labels []int, mask []bool) float64 {
	nn.ZeroGrads(m)
	logits := m.Logits(true)
	loss, grad := nn.SoftmaxCrossEntropy(logits, labels, mask)
	m.Backward(grad)
	opt.Step(m)
	return loss
}

// Accuracy evaluates m on the given mask.
func Accuracy(m Model, labels []int, mask []bool) float64 {
	logits := m.Logits(false)
	return AccuracyFromLogits(logits, labels, mask)
}

// AccuracyFromLogits computes masked argmax accuracy.
func AccuracyFromLogits(logits *matrix.Dense, labels []int, mask []bool) float64 {
	pred := matrix.ArgmaxRows(logits)
	correct, total := 0, 0
	for i, p := range pred {
		if mask != nil && !mask[i] {
			continue
		}
		total++
		if p == labels[i] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// MLPModel is a topology-free baseline: logits = MLP(X).
type MLPModel struct {
	g   *graph.Graph
	mlp *nn.MLP
}

// NewMLPModel builds a 2-layer MLP classifier on node features.
func NewMLPModel(g *graph.Graph, cfg Config, rng *rand.Rand) *MLPModel {
	return &MLPModel{g: g, mlp: nn.NewMLP("mlp", []int{g.X.Cols, cfg.Hidden, g.Classes}, cfg.Dropout, rng).MarkLeaf()}
}

// Params implements nn.Module.
func (m *MLPModel) Params() []*nn.Parameter { return m.mlp.Params() }

// Logits implements Model.
func (m *MLPModel) Logits(train bool) *matrix.Dense {
	m.mlp.SetTraining(train)
	return m.mlp.Forward(m.g.X)
}

// Backward implements Model.
func (m *MLPModel) Backward(grad *matrix.Dense) { m.mlp.Backward(grad) }
