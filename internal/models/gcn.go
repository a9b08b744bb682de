package models

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// GCN is the two-layer graph convolutional network of Kipf & Welling
// (Eq. (1) of the AdaFGL paper with r = 1/2):
//
//	Z = Ã · ReLU(Ã · X · W₁) · W₂
//
// Backpropagation through the SpMM uses Ãᵀ = Ã (symmetric normalisation).
type GCN struct {
	g    *graph.Graph
	adj  *sparse.Plan // reusable blocked-SpMM plan for Ã
	l1   *nn.Linear
	l2   *nn.Linear
	act  *nn.ReLU
	drop *nn.Dropout

	// forward caches
	h1 *matrix.Dense // Ã·X·W₁ pre-activation input to layer 2 chain
}

// NewGCN builds a 2-layer GCN bound to g. The Ã propagation plan is shared
// with every other model bound to g, so its blocking cost is amortised
// across all forward/backward passes of a training run.
func NewGCN(g *graph.Graph, cfg Config, rng *rand.Rand) *GCN {
	return &GCN{
		g:    g,
		adj:  g.NormAdjPlan(sparse.NormSym),
		l1:   nn.NewLinear("gcn.l1", g.X.Cols, cfg.Hidden, rng).MarkLeaf(), // fed Ã·X
		l2:   nn.NewLinear("gcn.l2", cfg.Hidden, g.Classes, rng),
		act:  &nn.ReLU{},
		drop: nn.NewDropout(cfg.Dropout, rng),
	}
}

// Params implements nn.Module.
func (m *GCN) Params() []*nn.Parameter {
	return append(m.l1.Params(), m.l2.Params()...)
}

// Logits implements Model: Ã·dropout(ReLU(Ã·X·W₁))·W₂.
func (m *GCN) Logits(train bool) *matrix.Dense {
	ax := m.g.PropagatedX(sparse.NormSym) // Ã·X, constant between epochs
	h := m.l1.Forward(ax)                 // Ã·X·W₁
	h = m.act.Forward(h)                  // ReLU
	h = m.drop.Forward(h, train)          // dropout
	ah := m.adj.MulDense(h)               // Ã·H
	m.h1 = ah
	return m.l2.Forward(ah) // Ã·H·W₂
}

// Backward implements Model.
func (m *GCN) Backward(grad *matrix.Dense) {
	g := m.l2.Backward(grad) // d(Ã·H)
	g = m.adj.MulDense(g)    // Ãᵀ·g = Ã·g (dH)
	g = m.drop.Backward(g)
	g = m.act.Backward(g)
	m.l1.Backward(g)
}
