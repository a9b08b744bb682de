// Package nn implements the neural-network training substrate for the AdaFGL
// reproduction: parameters with gradients, linear layers, activations,
// dropout, softmax cross-entropy, optimisers (SGD, Adam) and parameter
// (de)serialisation for federated model transport. Backpropagation is manual:
// each layer caches its forward inputs and exposes Backward.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// Parameter is a trainable tensor with an accumulated gradient.
type Parameter struct {
	Name  string
	Value *matrix.Dense
	Grad  *matrix.Dense
}

// NewParameter allocates a named rows x cols parameter with a zero gradient.
func NewParameter(name string, rows, cols int) *Parameter {
	return &Parameter{Name: name, Value: matrix.New(rows, cols), Grad: matrix.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*Parameter
}

// ZeroGrads clears gradients of every parameter of m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count of m.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

// Flatten serialises all parameter values of m into one vector, the unit of
// federated communication (model upload/broadcast).
func Flatten(m Module) []float64 {
	out := make([]float64, 0, NumParams(m))
	for _, p := range m.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// Unflatten loads a vector produced by Flatten back into m's parameters.
func Unflatten(m Module, v []float64) error {
	off := 0
	for _, p := range m.Params() {
		n := len(p.Value.Data)
		if off+n > len(v) {
			return fmt.Errorf("nn: Unflatten vector too short: have %d, need >= %d", len(v), off+n)
		}
		copy(p.Value.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		return fmt.Errorf("nn: Unflatten vector too long: %d values for %d params", len(v), off)
	}
	return nil
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *Parameter // in x out
	B *Parameter // 1 x out

	leaf      bool
	forwarded bool
	lastInput *matrix.Dense // nil after a Forward on the bound input

	// The constant input bound by BindInput, packed for x·W and (training
	// layers only) for the weight gradient xᵀ·gradOut; nil otherwise.
	fwd, grad *matrix.Packed

	buffers
	out, dW, dx *matrix.Dense
	db          []float64
}

// NewLinear creates a Linear layer with Xavier-uniform weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W: NewParameter(name+".W", in, out),
		B: NewParameter(name+".B", 1, out),
	}
	matrix.XavierUniform(l.W.Value, rng)
	return l
}

// MarkLeaf declares that the layer's input is data — node features or a
// fixed function of them — not the output of a trainable layer, and returns
// l. Nothing reads dL/dx of such a layer, so Backward skips the gradOut·Wᵀ
// product (in × out × rows multiply-adds, the widest of a first layer) and
// returns nil. Set it where the model is built; parameter gradients are
// unaffected.
func (l *Linear) MarkLeaf() *Linear {
	l.leaf = true
	return l
}

// BindInput makes l a leaf (see MarkLeaf) fed the constant x for the rest of
// its life, and returns l. x is packed once for x·W and, when train is set,
// once more for the weight gradient xᵀ·gradOut (an evaluation-only layer
// never runs Backward and skips that pack); Forward(nil) then runs on the
// packs and no epoch packs x again. Above the blocked-GEMM cutover the packs
// are copies and l keeps no reference to x, so x must not change after it
// is bound — bind a new input instead. Bind where the model is built, as
// with MarkLeaf; the bits are those of Forward(x) and Backward on x.
func (l *Linear) BindInput(x *matrix.Dense, train bool) *Linear {
	out := l.W.Value.Cols
	l.fwd, l.grad = matrix.PackMul(x, out), nil
	if train {
		l.grad = matrix.PackTMul(x, out)
	}
	return l.MarkLeaf()
}

// Params implements Module.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.W, l.B} }

// Forward computes x·W + b, caching x for Backward; x nil means the input
// bound by BindInput. The result is a fresh matrix, or l's own buffer when
// l owns its buffers (valid until l's next Forward).
func (l *Linear) Forward(x *matrix.Dense) *matrix.Dense {
	w := l.W.Value
	var out *matrix.Dense
	if x == nil {
		if l.fwd == nil {
			panic("nn: Linear.Forward(nil) on a layer with no bound input")
		}
		out = l.buffer(&l.out, l.fwd.Rows(), w.Cols)
		l.fwd.MulInto(out, w)
	} else {
		out = l.buffer(&l.out, x.Rows, w.Cols)
		matrix.MulInto(out, x, w)
	}
	l.lastInput, l.forwarded = x, true
	matrix.AddRowVector(out, l.B.Value.Data)
	return out
}

// Backward accumulates dL/dW and dL/db from dL/dy and returns dL/dx (nil for
// a leaf layer, see MarkLeaf): a fresh matrix, or l's own buffer when l owns
// its buffers (valid until l's next Backward).
func (l *Linear) Backward(gradOut *matrix.Dense) *matrix.Dense {
	if !l.forwarded {
		panic("nn: Linear.Backward before Forward")
	}
	w := l.W.Value
	dW := l.buffer(&l.dW, w.Rows, w.Cols)
	if l.lastInput == nil {
		if l.grad == nil {
			panic("nn: Linear.Backward on an input bound without its gradient pack")
		}
		l.grad.MulInto(dW, gradOut)
	} else {
		matrix.TMulInto(dW, l.lastInput, gradOut)
	}
	matrix.AddInPlace(l.W.Grad, dW)
	db := l.floats(&l.db, gradOut.Cols)
	matrix.ColSumsInto(db, gradOut)
	for j, v := range db {
		l.B.Grad.Data[j] += v
	}
	if l.leaf {
		return nil
	}
	dx := l.buffer(&l.dx, gradOut.Rows, w.Rows)
	matrix.MulTInto(dx, gradOut, w) // gradOut · Wᵀ
	return dx
}

// buffers decides who owns a layer's outputs and gradients. By default every
// pass returns a fresh matrix the caller owns. A layer that owns its buffers
// (MLP.OwnBuffers) allocates each on first use and overwrites it on every
// later pass, so a result is valid only until the layer's next Forward (for
// outputs) or Backward (for gradients).
type buffers struct{ own bool }

// buffer returns *m sized rows x cols when the layer owns its buffers —
// reallocated only when the shape changes — and a fresh matrix otherwise.
func (b buffers) buffer(m **matrix.Dense, rows, cols int) *matrix.Dense {
	if !b.own {
		return matrix.New(rows, cols)
	}
	if *m == nil || (*m).Rows != rows || (*m).Cols != cols {
		*m = matrix.New(rows, cols)
	}
	return *m
}

// floats is buffer for a vector of length n.
func (b buffers) floats(s *[]float64, n int) []float64 {
	if !b.own {
		return make([]float64, n)
	}
	*s = resize(*s, n)
	return *s
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ReLU is the rectified linear activation with cached mask.
type ReLU struct {
	mask []bool

	buffers
	out, dx *matrix.Dense
}

// Forward returns max(x, 0) elementwise: x where x > 0, +0 elsewhere (NaN
// included).
func (r *ReLU) Forward(x *matrix.Dense) *matrix.Dense {
	out := r.buffer(&r.out, x.Rows, x.Cols)
	r.mask = resize(r.mask, len(x.Data))
	mask, dst := r.mask, out.Data[:len(x.Data)]
	for i, v := range x.Data {
		bits := math.Float64bits(v)
		m := matrix.PositiveMask(bits)
		dst[i] = math.Float64frombits(bits & m)
		mask[i] = m != 0
	}
	return out
}

// Backward zeroes gradient where the forward input was non-positive (a
// select on the cached mask, not a branch).
func (r *ReLU) Backward(gradOut *matrix.Dense) *matrix.Dense {
	out := r.buffer(&r.dx, gradOut.Rows, gradOut.Cols)
	mask, dst := r.mask[:len(gradOut.Data)], out.Data[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		var m uint64
		if mask[i] {
			m = ^uint64(0)
		}
		dst[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
	return out
}

// Dropout zeroes activations with probability P during training and rescales
// survivors by 1/(1-P) (inverted dropout).
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []float64

	buffers
	out, dx *matrix.Dense
}

// NewDropout creates a Dropout layer; p outside (0,1) disables it.
func NewDropout(p float64, rng *rand.Rand) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies dropout when train is true; identity otherwise.
func (d *Dropout) Forward(x *matrix.Dense, train bool) *matrix.Dense {
	if !train || d.P <= 0 || d.P >= 1 {
		d.mask = nil
		return x
	}
	out := d.buffer(&d.out, x.Rows, x.Cols)
	d.mask = resize(d.mask, len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
			out.Data[i] = 0 // an owned buffer holds the last pass's values
		} else {
			d.mask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(gradOut *matrix.Dense) *matrix.Dense {
	if d.mask == nil {
		return gradOut
	}
	out := d.buffer(&d.dx, gradOut.Rows, gradOut.Cols)
	for i, v := range gradOut.Data {
		out.Data[i] = v * d.mask[i]
	}
	return out
}

// SoftmaxCrossEntropy computes the mean masked cross-entropy between
// row-softmaxed logits and integer labels, plus dL/dlogits. Only rows with
// mask true contribute; the gradient of other rows is zero. Returns loss 0
// and a zero gradient when the mask is empty.
func SoftmaxCrossEntropy(logits *matrix.Dense, labels []int, mask []bool) (float64, *matrix.Dense) {
	probs := matrix.SoftmaxRows(logits)
	grad := matrix.New(logits.Rows, logits.Cols)
	count := 0
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		count++
		c := labels[i]
		p := probs.At(i, c)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grow := grad.Row(i)
		prow := probs.Row(i)
		copy(grow, prow)
		grow[c] -= 1
	}
	if count == 0 {
		return 0, grad
	}
	inv := 1 / float64(count)
	loss *= inv
	matrix.ScaleInPlace(grad, inv)
	return loss, grad
}

// MSELoss computes mean squared error ‖a-b‖²/(n) and dL/da.
func MSELoss(a, b *matrix.Dense) (float64, *matrix.Dense) {
	grad := matrix.New(a.Rows, a.Cols)
	return MSELossInto(grad, a, b), grad
}

// MSELossInto is MSELoss writing dL/da into grad, which must have a's shape.
func MSELossInto(grad, a, b *matrix.Dense) float64 {
	if !matrix.SameShape(a, b) || !matrix.SameShape(grad, a) {
		panic("nn: MSELoss shape mismatch")
	}
	n := float64(len(a.Data))
	if n == 0 {
		return 0
	}
	var loss float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// Optimizer updates module parameters from their accumulated gradients.
type Optimizer interface {
	Step(m Module)
}

// SGD is stochastic gradient descent with optional L2 weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies one SGD update.
func (o *SGD) Step(m Module) {
	for _, p := range m.Params() {
		for i, g := range p.Grad.Data {
			if o.WeightDecay > 0 {
				g += o.WeightDecay * p.Value.Data[i]
			}
			p.Value.Data[i] -= o.LR * g
		}
	}
}

// Adam implements the Adam optimiser (Kingma & Ba) with per-parameter state
// keyed by parameter identity.
type Adam struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	t     int
	state map[*Parameter]*adamState
}

type adamState struct{ m, v []float64 }

// NewAdam returns an Adam optimiser with the standard defaults.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		state: make(map[*Parameter]*adamState)}
}

// Step applies one Adam update to every parameter of m.
func (o *Adam) Step(m Module) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range m.Params() {
		st := o.state[p]
		if st == nil {
			st = &adamState{m: make([]float64, len(p.Value.Data)), v: make([]float64, len(p.Value.Data))}
			o.state[p] = st
		}
		for i, g := range p.Grad.Data {
			if o.WeightDecay > 0 {
				g += o.WeightDecay * p.Value.Data[i]
			}
			st.m[i] = o.Beta1*st.m[i] + (1-o.Beta1)*g
			st.v[i] = o.Beta2*st.v[i] + (1-o.Beta2)*g*g
			mHat := st.m[i] / bc1
			vHat := st.v[i] / bc2
			p.Value.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
	}
}

// ParamList is a parameter list collected once; it implements Module by
// returning itself, so a training loop that zeroes and steps the same
// parameters every epoch need not rebuild the list each time.
type ParamList []*Parameter

// Params implements Module.
func (l ParamList) Params() []*Parameter { return l }

// ParamGroup aggregates several modules into one Module (for joint
// optimisation of decoupled components, e.g. AdaFGL Step 2).
type ParamGroup []Module

// Params implements Module.
func (g ParamGroup) Params() []*Parameter {
	var out []*Parameter
	for _, m := range g {
		out = append(out, m.Params()...)
	}
	return out
}
