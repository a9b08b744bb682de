package models

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// GCNII implements Chen et al.'s deep GCN with initial residual and identity
// mapping (Sec. II-B of the paper). Layer l computes
//
//	U^(l) = (1-α)·Ã·H^(l-1) + α·H^(0)
//	H^(l) = ReLU( U^(l) · ((1-β_l)·I + β_l·W^(l)) ),  β_l = λ/l
//
// with an input encoder H^(0) = ReLU(X·W_in) and an output head.
type GCNII struct {
	g   *graph.Graph
	adj *sparse.Plan // reusable blocked-SpMM plan for Ã

	in   *nn.Linear
	out  *nn.Linear
	ws   []*nn.Parameter // hidden x hidden per layer
	drop *nn.Dropout

	alpha  float64
	lambda float64

	// forward caches
	inAct *nn.ReLU
	acts  []*nn.ReLU
	h0    *matrix.Dense
	us    []*matrix.Dense // U^(l)
	hLast *matrix.Dense
	betas []float64
}

// NewGCNII builds a GCNII with cfg.Hops hidden layers.
func NewGCNII(g *graph.Graph, cfg Config, rng *rand.Rand) *GCNII {
	layers := cfg.Hops
	if layers < 1 {
		layers = 1
	}
	m := &GCNII{
		g:      g,
		adj:    g.NormAdjPlan(sparse.NormSym),
		in:     nn.NewLinear("gcnii.in", g.X.Cols, cfg.Hidden, rng).MarkLeaf(), // fed dropout(X)
		out:    nn.NewLinear("gcnii.out", cfg.Hidden, g.Classes, rng),
		drop:   nn.NewDropout(cfg.Dropout, rng),
		alpha:  cfg.Alpha,
		lambda: 0.5,
		inAct:  &nn.ReLU{},
	}
	if m.alpha <= 0 || m.alpha >= 1 {
		m.alpha = 0.1
	}
	for l := 1; l <= layers; l++ {
		w := nn.NewParameter("gcnii.w", cfg.Hidden, cfg.Hidden)
		matrix.XavierUniform(w.Value, rng)
		m.ws = append(m.ws, w)
		m.acts = append(m.acts, &nn.ReLU{})
		m.betas = append(m.betas, m.lambda/float64(l))
	}
	return m
}

// Params implements nn.Module.
func (m *GCNII) Params() []*nn.Parameter {
	out := append(m.in.Params(), m.out.Params()...)
	return append(out, m.ws...)
}

// Logits implements Model.
func (m *GCNII) Logits(train bool) *matrix.Dense {
	h := m.in.Forward(m.drop.Forward(m.g.X, train))
	h = m.inAct.Forward(h)
	m.h0 = h
	m.us = m.us[:0]
	for l, w := range m.ws {
		ah := m.adj.MulDense(h)
		u := matrix.Scale(1-m.alpha, ah)
		matrix.AddScaled(u, m.alpha, m.h0)
		m.us = append(m.us, u)
		beta := m.betas[l]
		// V = (1-β)·U + β·U·W
		v := matrix.Scale(1-beta, u)
		matrix.AddScaled(v, beta, matrix.Mul(u, w.Value))
		h = m.acts[l].Forward(v)
	}
	m.hLast = h
	return m.out.Forward(h)
}

// Backward implements Model.
func (m *GCNII) Backward(grad *matrix.Dense) {
	dh := m.out.Backward(grad)
	dh0 := matrix.New(m.h0.Rows, m.h0.Cols)
	for l := len(m.ws) - 1; l >= 0; l-- {
		dv := m.acts[l].Backward(dh)
		beta := m.betas[l]
		w := m.ws[l]
		// dW += β·Uᵀ·dV ; dU = (1-β)·dV + β·dV·Wᵀ
		matrix.AddScaled(w.Grad, beta, matrix.TMul(m.us[l], dv))
		du := matrix.Scale(1-beta, dv)
		matrix.AddScaled(du, beta, matrix.MulT(dv, w.Value))
		// U = (1-α)ÃH + αH0.
		matrix.AddScaled(dh0, m.alpha, du)
		dh = matrix.Scale(1-m.alpha, m.adj.MulDense(du))
	}
	matrix.AddInPlace(dh0, dh)
	m.in.Backward(m.inAct.Backward(dh0))
}
