package models

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// PropagateK returns [X, ÃX, Ã²X, …, ÃᵏX] (k+1 matrices), the shared
// pre-propagation step of the decoupled models and of AdaFGL Eq. (7). It
// takes a propagation plan so the blocked layout of Ã is reused across all
// k steps (and across every caller sharing the plan).
func PropagateK(adj *sparse.Plan, x *matrix.Dense, k int) []*matrix.Dense {
	out := make([]*matrix.Dense, 0, k+1)
	out = append(out, x)
	cur := x
	for i := 0; i < k; i++ {
		cur = adj.MulDense(cur)
		out = append(out, cur)
	}
	return out
}

// SGC is the simplified graph convolution of Wu et al.: a linear model on
// k-step propagated features, X^(k) = ÃᵏX (Sec. II-B of the paper).
type SGC struct {
	g      *graph.Graph
	hops   int
	xk     *matrix.Dense
	linear *nn.Linear
}

// NewSGC builds SGC with cfg.Hops propagation steps.
func NewSGC(g *graph.Graph, cfg Config, rng *rand.Rand) *SGC {
	adj := g.NormAdjPlan(sparse.NormSym)
	hops := PropagateK(adj, g.X, cfg.Hops)
	return &SGC{
		g:      g,
		hops:   cfg.Hops,
		xk:     hops[len(hops)-1],
		linear: nn.NewLinear("sgc", g.X.Cols, g.Classes, rng).MarkLeaf(), // fed ÃᵏX
	}
}

// Params implements nn.Module.
func (m *SGC) Params() []*nn.Parameter { return m.linear.Params() }

// Logits implements Model.
func (m *SGC) Logits(train bool) *matrix.Dense { return m.linear.Forward(m.xk) }

// Backward implements Model.
func (m *SGC) Backward(grad *matrix.Dense) { m.linear.Backward(grad) }

// GAMLP follows Zhang et al.: k-hop propagated features combined by a
// learnable attention over hops (softmax-gated), then an MLP:
//
//	Z = MLP( Σ_k softmax(θ)_k · X^(k) )
//
// This is the recursive-attention variant reduced to hop-level gates, which
// preserves the architecture's behaviour (adaptive receptive field) while
// staying dependency-free.
type GAMLP struct {
	g    *graph.Graph
	hops []*matrix.Dense
	gate *nn.Parameter // 1 x (K+1) hop logits
	mlp  *nn.MLP

	// caches
	weights []float64
	combo   *matrix.Dense
}

// NewGAMLP builds GAMLP with cfg.Hops hops and a 2-layer MLP head.
func NewGAMLP(g *graph.Graph, cfg Config, rng *rand.Rand) *GAMLP {
	adj := g.NormAdjPlan(sparse.NormSym)
	m := &GAMLP{
		g:    g,
		hops: PropagateK(adj, g.X, cfg.Hops),
		gate: nn.NewParameter("gamlp.gate", 1, cfg.Hops+1),
		// Not a leaf: the MLP is fed the gated hop combination, and Backward
		// reads dL/dcombo for the gate gradient.
		mlp: nn.NewMLP("gamlp", []int{g.X.Cols, cfg.Hidden, g.Classes}, cfg.Dropout, rng),
	}
	return m
}

// Params implements nn.Module.
func (m *GAMLP) Params() []*nn.Parameter {
	return append([]*nn.Parameter{m.gate}, m.mlp.Params()...)
}

// combine returns the hop combination Σ_k softmax(θ)_k·X^(k) under the
// current gate values, plus the softmax weights (shared by training forward
// passes and inference-factor extraction, so the two can never drift).
func (m *GAMLP) combine() (*matrix.Dense, []float64) {
	weights := softmaxVec(m.gate.Value.Data)
	combo := matrix.New(m.g.N, m.g.X.Cols)
	for k, h := range m.hops {
		matrix.AddScaled(combo, weights[k], h)
	}
	return combo, weights
}

// Logits implements Model.
func (m *GAMLP) Logits(train bool) *matrix.Dense {
	m.combo, m.weights = m.combine()
	m.mlp.SetTraining(train)
	return m.mlp.Forward(m.combo)
}

// Backward implements Model.
func (m *GAMLP) Backward(grad *matrix.Dense) {
	gc := m.mlp.Backward(grad)
	// dL/dw_k = <gc, X^(k)>; then softmax backward into gate logits.
	dw := make([]float64, len(m.hops))
	for k, h := range m.hops {
		var s float64
		for i, v := range gc.Data {
			s += v * h.Data[i]
		}
		dw[k] = s
	}
	var dot float64
	for k, w := range m.weights {
		dot += w * dw[k]
	}
	for k, w := range m.weights {
		m.gate.Grad.Data[k] += w * (dw[k] - dot)
	}
}

func softmaxVec(v []float64) []float64 {
	out := make([]float64, len(v))
	max := math.Inf(-1)
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		out[i] = math.Exp(x - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// GPRGNN is the generalized PageRank GNN of Chien et al. (Sec. II-B):
//
//	Z = Σ_{k=0}^{K} γ_k · Ãᵏ · MLP(X)
//
// with learnable γ initialised to the PPR profile γ_k = α(1-α)^k. Negative
// learned γ_k let the model exploit heterophily.
type GPRGNN struct {
	g     *graph.Graph
	adj   *sparse.Plan  // reusable blocked-SpMM plan for Ã
	gamma *nn.Parameter // 1 x (K+1)
	mlp   *nn.MLP

	hk []*matrix.Dense // cached H^(k) from the last forward
}

// NewGPRGNN builds GPRGNN with cfg.Hops propagation steps and PPR init.
func NewGPRGNN(g *graph.Graph, cfg Config, rng *rand.Rand) *GPRGNN {
	m := &GPRGNN{
		g:     g,
		adj:   g.NormAdjPlan(sparse.NormSym),
		gamma: nn.NewParameter("gpr.gamma", 1, cfg.Hops+1),
		mlp:   nn.NewMLP("gpr", []int{g.X.Cols, cfg.Hidden, g.Classes}, cfg.Dropout, rng).MarkLeaf(), // fed X
	}
	a := cfg.Alpha
	if a <= 0 || a >= 1 {
		a = 0.1
	}
	for k := 0; k <= cfg.Hops; k++ {
		if k == cfg.Hops {
			m.gamma.Value.Data[k] = math.Pow(1-a, float64(k))
		} else {
			m.gamma.Value.Data[k] = a * math.Pow(1-a, float64(k))
		}
	}
	return m
}

// Params implements nn.Module.
func (m *GPRGNN) Params() []*nn.Parameter {
	return append([]*nn.Parameter{m.gamma}, m.mlp.Params()...)
}

// Logits implements Model.
func (m *GPRGNN) Logits(train bool) *matrix.Dense {
	m.mlp.SetTraining(train)
	h0 := m.mlp.Forward(m.g.X)
	k := len(m.gamma.Value.Data) - 1
	m.hk = PropagateK(m.adj, h0, k)
	z := matrix.New(h0.Rows, h0.Cols)
	for i, h := range m.hk {
		matrix.AddScaled(z, m.gamma.Value.Data[i], h)
	}
	return z
}

// Backward implements Model.
func (m *GPRGNN) Backward(grad *matrix.Dense) {
	// dγ_k = <grad, H^(k)>.
	for k, h := range m.hk {
		var s float64
		for i, v := range grad.Data {
			s += v * h.Data[i]
		}
		m.gamma.Grad.Data[k] += s
	}
	// dH0 = Σ_k γ_k Ãᵏ·grad (Ã symmetric), accumulated iteratively.
	acc := matrix.Scale(m.gamma.Value.Data[0], grad)
	cur := grad
	for k := 1; k < len(m.gamma.Value.Data); k++ {
		cur = m.adj.MulDense(cur)
		matrix.AddScaled(acc, m.gamma.Value.Data[k], cur)
	}
	m.mlp.Backward(acc)
}
