package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/matrix"
)

// MLP is a multi-layer perceptron: Linear → ReLU → Dropout repeated, with a
// final Linear producing logits. It is the MessageUpdater of Eq. (7), the
// topology-independent feature encoder of Eq. (10) and the message encoder of
// Eq. (11) in the AdaFGL paper, and the client model of several baselines.
type MLP struct {
	Layers   []*Linear
	acts     []*ReLU
	drops    []*Dropout
	training bool
}

// NewMLP builds an MLP with the given layer dimensions, e.g.
// dims = [in, hidden, out] for a two-layer network.
func NewMLP(name string, dims []int, dropout float64, rng *rand.Rand) *MLP {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP needs >= 2 dims, got %v", dims))
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &ReLU{})
			m.drops = append(m.drops, NewDropout(dropout, rng))
		}
	}
	return m
}

// MarkLeaf marks the first layer as a leaf (see Linear.MarkLeaf) for an MLP
// that is fed data, and returns m; Backward then returns nil.
func (m *MLP) MarkLeaf() *MLP {
	m.Layers[0].MarkLeaf()
	return m
}

// BindInput binds the first layer to the constant input x (see
// Linear.BindInput: packed once, for the weight gradient too when train is
// set) and returns m; Forward(nil) then runs the network on x and Backward
// returns nil.
func (m *MLP) BindInput(x *matrix.Dense, train bool) *MLP {
	m.Layers[0].BindInput(x, train)
	return m
}

// OwnBuffers makes every layer of m own its activations and gradients, and
// returns m. A training loop that runs the same shapes every epoch then
// allocates no matrix in m, under one rule: a layer's output is valid until
// its next Forward and its input gradient until its next Backward, so a
// caller must be done with what Forward returned before the next Forward,
// and with what Backward returned before the next Backward. By default each
// pass returns fresh matrices the caller may keep.
func (m *MLP) OwnBuffers() *MLP {
	for i, l := range m.Layers {
		l.own = true
		if i < len(m.acts) {
			m.acts[i].own = true
			m.drops[i].own = true
		}
	}
	return m
}

// Scratch returns the data of every buffer m's layers own and have
// allocated (see OwnBuffers): what a test overwrites between passes to prove
// no caller reads a buffer past the ownership rule.
func (m *MLP) Scratch() [][]float64 {
	var out [][]float64
	add := func(ms ...*matrix.Dense) {
		for _, d := range ms {
			if d != nil {
				out = append(out, d.Data)
			}
		}
	}
	for i, l := range m.Layers {
		add(l.out, l.dW, l.dx)
		if l.db != nil {
			out = append(out, l.db)
		}
		if i < len(m.acts) {
			add(m.acts[i].out, m.acts[i].dx, m.drops[i].out, m.drops[i].dx)
		}
	}
	return out
}

// Params implements Module.
func (m *MLP) Params() []*Parameter {
	var out []*Parameter
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SetTraining toggles dropout.
func (m *MLP) SetTraining(train bool) { m.training = train }

// Forward runs the network, caching activations for Backward; x nil means
// the input bound by BindInput.
func (m *MLP) Forward(x *matrix.Dense) *matrix.Dense {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(h)
		if i < len(m.acts) {
			h = m.acts[i].Forward(h)
			h = m.drops[i].Forward(h, m.training)
		}
	}
	return h
}

// Backward backpropagates dL/dlogits through the whole stack and returns
// dL/dinput (nil when the first layer is a leaf).
func (m *MLP) Backward(gradOut *matrix.Dense) *matrix.Dense {
	g := gradOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i < len(m.acts) {
			g = m.drops[i].Backward(g)
			g = m.acts[i].Backward(g)
		}
		g = m.Layers[i].Backward(g)
	}
	return g
}
