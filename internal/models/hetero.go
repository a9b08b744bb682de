package models

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// GGCN is a signed, degree-corrected message-passing network in the spirit of
// Yan et al. ("Two sides of the same coin"). Edges are partitioned into
// positive (feature-similar) and negative (feature-dissimilar) sets from the
// cosine similarity of raw features; the layer mixes self, positive and
// negative aggregations with learnable scalar gates:
//
//	H = α₀·T + α₁·S⁺·T − α₂·S⁻·T,  T = ReLU(X·W₁)
//
// followed by a linear head. The signed split is what lets GGCN exploit
// heterophilous edges as (negated) evidence, the property the paper's
// structure Non-iid experiments reward.
type GGCN struct {
	g *graph.Graph

	pos, neg   *sparse.Plan // row-normalised signed adjacencies (blocked plans)
	posT, negT *sparse.Plan

	l1    *nn.Linear
	l2    *nn.Linear
	gates *nn.Parameter // 1x3: self, positive, negative
	act   *nn.ReLU
	drop  *nn.Dropout

	// caches
	t, pt, nt *matrix.Dense
}

// NewGGCN builds a GGCN bound to g, precomputing the signed adjacencies and
// their propagation plans (each signed operator is applied every epoch in
// both directions).
func NewGGCN(g *graph.Graph, cfg Config, rng *rand.Rand) *GGCN {
	pos, neg := signedSplit(g)
	m := &GGCN{
		g:     g,
		pos:   sparse.NewPlan(pos),
		neg:   sparse.NewPlan(neg),
		posT:  sparse.NewPlan(pos.Transpose()),
		negT:  sparse.NewPlan(neg.Transpose()),
		l1:    nn.NewLinear("ggcn.l1", g.X.Cols, cfg.Hidden, rng).MarkLeaf(), // fed X
		l2:    nn.NewLinear("ggcn.l2", cfg.Hidden, g.Classes, rng),
		gates: nn.NewParameter("ggcn.gates", 1, 3),
		act:   &nn.ReLU{},
		drop:  nn.NewDropout(cfg.Dropout, rng),
	}
	m.gates.Value.Data[0] = 1
	m.gates.Value.Data[1] = 0.5
	m.gates.Value.Data[2] = 0.5
	return m
}

// signedSplit partitions edges by the sign of centred cosine feature
// similarity, returning row-normalised positive and negative operators.
func signedSplit(g *graph.Graph) (pos, neg *sparse.CSR) {
	var pc, nc []sparse.Coord
	for _, e := range g.Edges {
		if e[0] == e[1] {
			continue
		}
		s := cosine(g.X.Row(e[0]), g.X.Row(e[1]))
		if s >= 0 {
			pc = append(pc, sparse.Coord{Row: e[0], Col: e[1], Val: 1}, sparse.Coord{Row: e[1], Col: e[0], Val: 1})
		} else {
			nc = append(nc, sparse.Coord{Row: e[0], Col: e[1], Val: 1}, sparse.Coord{Row: e[1], Col: e[0], Val: 1})
		}
	}
	pos = rowNormalize(sparse.FromCoords(g.N, g.N, pc))
	neg = rowNormalize(sparse.FromCoords(g.N, g.N, nc))
	return pos, neg
}

func rowNormalize(m *sparse.CSR) *sparse.CSR {
	out := m.Clone()
	for i := 0; i < out.NRows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		var s float64
		for _, v := range out.Val[lo:hi] {
			s += v
		}
		if s == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			out.Val[k] /= s
		}
	}
	return out
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Params implements nn.Module.
func (m *GGCN) Params() []*nn.Parameter {
	out := append(m.l1.Params(), m.l2.Params()...)
	return append(out, m.gates)
}

// Logits implements Model.
func (m *GGCN) Logits(train bool) *matrix.Dense {
	t := m.l1.Forward(m.g.X)
	t = m.act.Forward(t)
	t = m.drop.Forward(t, train)
	m.t = t
	m.pt = m.pos.MulDense(t)
	m.nt = m.neg.MulDense(t)
	a := m.gates.Value.Data
	h := matrix.Scale(a[0], t)
	matrix.AddScaled(h, a[1], m.pt)
	matrix.AddScaled(h, -a[2], m.nt)
	return m.l2.Forward(h)
}

// Backward implements Model.
func (m *GGCN) Backward(grad *matrix.Dense) {
	dh := m.l2.Backward(grad)
	a := m.gates.Value.Data
	// Gate gradients.
	m.gates.Grad.Data[0] += dotAll(dh, m.t)
	m.gates.Grad.Data[1] += dotAll(dh, m.pt)
	m.gates.Grad.Data[2] -= dotAll(dh, m.nt)
	// dT = α₀·dH + α₁·S⁺ᵀ·dH − α₂·S⁻ᵀ·dH.
	dt := matrix.Scale(a[0], dh)
	matrix.AddScaled(dt, a[1], m.posT.MulDense(dh))
	matrix.AddScaled(dt, -a[2], m.negT.MulDense(dh))
	dt = m.drop.Backward(dt)
	dt = m.act.Backward(dt)
	m.l1.Backward(dt)
}

func dotAll(a, b *matrix.Dense) float64 {
	var s float64
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// GloGNN follows Li et al.: each node aggregates from the whole subgraph via
// a coefficient matrix T derived from node similarity, mixed with the ego
// embedding (Sec. II-B: Z = (1-γ)·T·H + γ·H). T is the closed-form global
// coefficient matrix computed once from the scaled feature Gram matrix
// (row-softmax), so it captures global, topology-independent affinity —
// the property that makes GloGNN strong under heterophily. Dense N×N work
// makes this suitable for client-scale subgraphs, exactly where the paper
// uses it.
type GloGNN struct {
	g *graph.Graph

	l1   *nn.Linear
	l2   *nn.Linear
	mixP *nn.Parameter // scalar logit; γ = sigmoid(mixP)
	act  *nn.ReLU
	drop *nn.Dropout

	tMat  *matrix.Dense // fixed global coefficient matrix
	tMatT *matrix.Dense

	// caches
	h0    *matrix.Dense
	gamma float64
}

// NewGloGNN builds a GloGNN bound to g, precomputing the global coefficient
// matrix from feature similarity.
func NewGloGNN(g *graph.Graph, cfg Config, rng *rand.Rand) *GloGNN {
	scale := 1 / math.Sqrt(float64(g.X.Cols))
	tMat := matrix.SoftmaxRows(matrix.Scale(scale, matrix.MulT(g.X, g.X)))
	m := &GloGNN{
		g:     g,
		l1:    nn.NewLinear("glognn.l1", g.X.Cols, cfg.Hidden, rng).MarkLeaf(), // fed X
		l2:    nn.NewLinear("glognn.l2", cfg.Hidden, g.Classes, rng),
		mixP:  nn.NewParameter("glognn.mix", 1, 1),
		act:   &nn.ReLU{},
		drop:  nn.NewDropout(cfg.Dropout, rng),
		tMat:  tMat,
		tMatT: matrix.Transpose(tMat),
	}
	return m
}

// Params implements nn.Module.
func (m *GloGNN) Params() []*nn.Parameter {
	out := append(m.l1.Params(), m.l2.Params()...)
	return append(out, m.mixP)
}

// Logits implements Model.
func (m *GloGNN) Logits(train bool) *matrix.Dense {
	h := m.l1.Forward(m.g.X)
	h = m.act.Forward(h)
	h = m.drop.Forward(h, train)
	m.h0 = h
	m.gamma = sigmoid(m.mixP.Value.Data[0])
	z := matrix.Scale(1-m.gamma, matrix.Mul(m.tMat, h))
	matrix.AddScaled(z, m.gamma, h)
	return m.l2.Forward(z)
}

// Backward implements Model.
func (m *GloGNN) Backward(grad *matrix.Dense) {
	dz := m.l2.Backward(grad)
	th := matrix.Mul(m.tMat, m.h0)
	// dγ (through sigmoid): z = (1-γ)TH + γH ⇒ ∂z/∂γ = H − TH.
	dgamma := dotAll(dz, m.h0) - dotAll(dz, th)
	m.mixP.Grad.Data[0] += dgamma * m.gamma * (1 - m.gamma)
	// dH = (1-γ)·Tᵀ·dz + γ·dz.
	dh := matrix.Scale(1-m.gamma, matrix.Mul(m.tMatT, dz))
	matrix.AddScaled(dh, m.gamma, dz)
	dh = m.drop.Backward(dh)
	dh = m.act.Backward(dh)
	m.l1.Backward(dh)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
