package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 2, 2, rng)
	l.W.Value, _ = matrix.FromRows([][]float64{{1, 0}, {0, 2}})
	l.B.Value.Data = []float64{1, -1}
	x, _ := matrix.FromRows([][]float64{{3, 4}})
	y := l.Forward(x)
	if y.At(0, 0) != 4 || y.At(0, 1) != 7 {
		t.Fatalf("Forward = %v", y)
	}
}

// numericalGrad estimates dLoss/dθ by central differences.
func numericalGrad(theta []float64, i int, loss func() float64) float64 {
	const h = 1e-5
	orig := theta[i]
	theta[i] = orig + h
	lp := loss()
	theta[i] = orig - h
	lm := loss()
	theta[i] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 3, 2, rng)
	x := matrix.New(4, 3)
	matrix.RandomNormal(x, 0, 1, rng)
	labels := []int{0, 1, 1, 0}

	loss := func() float64 {
		y := l.Forward(x)
		lv, _ := SoftmaxCrossEntropy(y, labels, nil)
		return lv
	}
	// Analytic gradients.
	ZeroGrads(l)
	y := l.Forward(x)
	_, g := SoftmaxCrossEntropy(y, labels, nil)
	gx := l.Backward(g)

	for _, p := range l.Params() {
		for i := range p.Value.Data {
			num := numericalGrad(p.Value.Data, i, loss)
			if math.Abs(num-p.Grad.Data[i]) > 1e-6 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
	// Input gradient check.
	for i := range x.Data {
		num := numericalGrad(x.Data, i, loss)
		if math.Abs(num-gx.Data[i]) > 1e-6 {
			t.Fatalf("dL/dx[%d]: analytic %v vs numeric %v", i, gx.Data[i], num)
		}
	}
}

// TestLeafLayerSkipsOnlyTheInputGradient pins the leaf rule: a layer marked
// as fed data returns nil from Backward — nothing may read dL/dx of a
// constant — while dL/dW and dL/db keep the bits of an unmarked twin, for a
// bare Linear and through an MLP's first layer. (TestLinearGradientCheck
// keeps checking dL/dx of the unmarked layer.)
func TestLeafLayerSkipsOnlyTheInputGradient(t *testing.T) {
	x := matrix.New(5, 4)
	matrix.RandomNormal(x, 0, 1, rand.New(rand.NewSource(4)))
	labels := []int{0, 1, 2, 0, 1}
	sameGrads := func(name string, leaf, plain Module) {
		t.Helper()
		lp, pp := leaf.Params(), plain.Params()
		for k := range lp {
			for i, v := range lp[k].Grad.Data {
				if math.Float64bits(v) != math.Float64bits(pp[k].Grad.Data[i]) {
					t.Fatalf("%s: %s grad[%d] = %v, unmarked twin %v", name, lp[k].Name, i, v, pp[k].Grad.Data[i])
				}
			}
		}
	}

	leaf := NewLinear("l", 4, 3, rand.New(rand.NewSource(5))).MarkLeaf()
	plain := NewLinear("l", 4, 3, rand.New(rand.NewSource(5)))
	_, g := SoftmaxCrossEntropy(leaf.Forward(x), labels, nil)
	plain.Forward(x)
	if gx := leaf.Backward(g); gx != nil {
		t.Fatalf("leaf Linear.Backward returned a %dx%d input gradient, want nil", gx.Rows, gx.Cols)
	}
	if plain.Backward(g) == nil {
		t.Fatal("unmarked Linear.Backward returned no input gradient")
	}
	sameGrads("Linear", leaf, plain)

	leafMLP := NewMLP("m", []int{4, 6, 3}, 0, rand.New(rand.NewSource(6))).MarkLeaf()
	plainMLP := NewMLP("m", []int{4, 6, 3}, 0, rand.New(rand.NewSource(6)))
	_, g = SoftmaxCrossEntropy(leafMLP.Forward(x), labels, nil)
	plainMLP.Forward(x)
	if gx := leafMLP.Backward(g); gx != nil {
		t.Fatalf("leaf MLP.Backward returned a %dx%d input gradient, want nil", gx.Rows, gx.Cols)
	}
	if plainMLP.Backward(g) == nil {
		t.Fatal("unmarked MLP.Backward returned no input gradient")
	}
	sameGrads("MLP", leafMLP, plainMLP)
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("mlp", []int{4, 5, 3}, 0, rng) // dropout off for determinism
	x := matrix.New(6, 4)
	matrix.RandomNormal(x, 0, 1, rng)
	labels := []int{0, 1, 2, 0, 1, 2}
	mask := []bool{true, true, false, true, true, true}

	loss := func() float64 {
		y := m.Forward(x)
		lv, _ := SoftmaxCrossEntropy(y, labels, mask)
		return lv
	}
	ZeroGrads(m)
	y := m.Forward(x)
	_, g := SoftmaxCrossEntropy(y, labels, mask)
	m.Backward(g)

	for _, p := range m.Params() {
		for i := range p.Value.Data {
			num := numericalGrad(p.Value.Data, i, loss)
			if math.Abs(num-p.Grad.Data[i]) > 1e-5 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestSoftmaxCrossEntropyMaskedRows(t *testing.T) {
	logits, _ := matrix.FromRows([][]float64{{10, 0}, {0, 10}})
	labels := []int{0, 0}
	_, g := SoftmaxCrossEntropy(logits, labels, []bool{true, false})
	for _, v := range g.Row(1) {
		if v != 0 {
			t.Fatal("masked row must have zero gradient")
		}
	}
	loss, _ := SoftmaxCrossEntropy(logits, labels, []bool{false, false})
	if loss != 0 {
		t.Fatal("empty mask must give zero loss")
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits, _ := matrix.FromRows([][]float64{{100, 0, 0}})
	loss, _ := SoftmaxCrossEntropy(logits, []int{0}, nil)
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction loss = %v", loss)
	}
}

func TestMSELoss(t *testing.T) {
	a, _ := matrix.FromRows([][]float64{{1, 2}})
	b, _ := matrix.FromRows([][]float64{{0, 0}})
	loss, grad := MSELoss(a, b)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("MSE = %v, want 2.5", loss)
	}
	if math.Abs(grad.At(0, 1)-2.0) > 1e-12 { // 2*2/2
		t.Fatalf("grad = %v", grad)
	}
}

func TestMSEGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := matrix.New(3, 2), matrix.New(3, 2)
	matrix.RandomNormal(a, 0, 1, rng)
	matrix.RandomNormal(b, 0, 1, rng)
	_, grad := MSELoss(a, b)
	loss := func() float64 { l, _ := MSELoss(a, b); return l }
	for i := range a.Data {
		num := numericalGrad(a.Data, i, loss)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("MSE grad[%d] analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x, _ := matrix.FromRows([][]float64{{-1, 2}, {0, -3}})
	y := r.Forward(x)
	if y.At(0, 0) != 0 || y.At(0, 1) != 2 || y.At(1, 0) != 0 {
		t.Fatalf("ReLU forward = %v", y)
	}
	g, _ := matrix.FromRows([][]float64{{5, 5}, {5, 5}})
	gx := r.Backward(g)
	if gx.At(0, 0) != 0 || gx.At(0, 1) != 5 {
		t.Fatalf("ReLU backward = %v", gx)
	}
}

// TestReLUBitsMatchBranchDefinition holds the mask-select ReLU to the
// branch it replaced — out = v if v > 0 else +0, mask = v > 0, gradient
// passed where the mask is set else +0 — bit for bit over every float64
// class: NaNs of both signs and extreme payloads, ±0, ±Inf, the smallest and
// largest subnormals, ±tiny and ±huge normals.
func TestReLUBitsMatchBranchDefinition(t *testing.T) {
	in := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF),
		2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300, 1, -1,
		math.MaxFloat64, -math.MaxFloat64,
	}
	// Gradients worth masking: the same specials, rotated so each meets both
	// a set and a clear mask bit.
	grad := append(append([]float64(nil), in[7:]...), in[:7]...)
	x, g := matrix.FromSlice(1, len(in), in), matrix.FromSlice(1, len(grad), grad)
	r := &ReLU{}
	y := r.Forward(x)
	gx := r.Backward(g)
	for i, v := range in {
		wantY, wantG := 0.0, 0.0
		if v > 0 {
			wantY, wantG = v, grad[i]
		}
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) || r.mask[i] != (v > 0) {
			t.Fatalf("Forward(%v = %#x) = %#x mask %v, want %#x mask %v", v, math.Float64bits(v),
				math.Float64bits(y.Data[i]), r.mask[i], math.Float64bits(wantY), v > 0)
		}
		if math.Float64bits(gx.Data[i]) != math.Float64bits(wantG) {
			t.Fatalf("Backward(%v) under input %v = %#x, want %#x", grad[i], v,
				math.Float64bits(gx.Data[i]), math.Float64bits(wantG))
		}
		if want := ^uint64(0); (matrix.PositiveMask(math.Float64bits(v)) == want) != (v > 0) {
			t.Fatalf("PositiveMask(%#x) = %#x for v = %v", math.Float64bits(v), matrix.PositiveMask(math.Float64bits(v)), v)
		}
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(0.5, rng)
	x := matrix.New(3, 3)
	matrix.RandomNormal(x, 0, 1, rng)
	y := d.Forward(x, false)
	if !matrix.Equal(x, y, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutTrainExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(0.3, rng)
	x := matrix.New(200, 50)
	x.Fill(1)
	y := d.Forward(x, true)
	// Inverted dropout preserves expectation ≈ 1.
	if m := matrix.Mean(y); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout mean = %v, want ≈1", m)
	}
	// Backward must use the same mask.
	g := matrix.New(200, 50)
	g.Fill(1)
	gb := d.Backward(g)
	for i := range y.Data {
		if (y.Data[i] == 0) != (gb.Data[i] == 0) {
			t.Fatal("dropout backward mask differs from forward")
		}
	}
}

func TestSGDStepAndWeightDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear("l", 1, 1, rng)
	l.W.Value.Data[0] = 2
	l.W.Grad.Data[0] = 1
	(&SGD{LR: 0.1}).Step(l)
	if math.Abs(l.W.Value.Data[0]-1.9) > 1e-12 {
		t.Fatalf("SGD step got %v", l.W.Value.Data[0])
	}
	l.W.Grad.Data[0] = 0
	(&SGD{LR: 0.1, WeightDecay: 1}).Step(l)
	if l.W.Value.Data[0] >= 1.9 {
		t.Fatal("weight decay must shrink weights")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLinear("l", 1, 1, rng)
	opt := NewAdam(0.1, 0)
	// Minimise (w - 3)² via manual gradient.
	for i := 0; i < 300; i++ {
		ZeroGrads(l)
		l.W.Grad.Data[0] = 2 * (l.W.Value.Data[0] - 3)
		opt.Step(l)
	}
	if math.Abs(l.W.Value.Data[0]-3) > 1e-2 {
		t.Fatalf("Adam did not converge: w = %v", l.W.Value.Data[0])
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP("m", []int{3, 4, 2}, 0.5, rng)
	v := Flatten(m)
	if len(v) != NumParams(m) {
		t.Fatalf("Flatten len %d, want %d", len(v), NumParams(m))
	}
	m2 := NewMLP("m", []int{3, 4, 2}, 0.5, rng)
	if err := Unflatten(m2, v); err != nil {
		t.Fatal(err)
	}
	v2 := Flatten(m2)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("round trip mismatch")
		}
	}
	if err := Unflatten(m2, v[:len(v)-1]); err == nil {
		t.Fatal("short vector must error")
	}
	if err := Unflatten(m2, append(v, 0)); err == nil {
		t.Fatal("long vector must error")
	}
}

func TestParamGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewLinear("a", 2, 2, rng)
	b := NewLinear("b", 2, 2, rng)
	g := ParamGroup{a, b}
	if len(g.Params()) != 4 {
		t.Fatalf("ParamGroup params = %d, want 4", len(g.Params()))
	}
}

func TestMLPTrainsOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 60
	x := matrix.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Set(i, 0, rng.NormFloat64()+float64(c*4))
		x.Set(i, 1, rng.NormFloat64())
	}
	m := NewMLP("m", []int{2, 8, 2}, 0, rng)
	opt := NewAdam(0.05, 0)
	m.SetTraining(true)
	for e := 0; e < 100; e++ {
		ZeroGrads(m)
		y := m.Forward(x)
		_, g := SoftmaxCrossEntropy(y, labels, nil)
		m.Backward(g)
		opt.Step(m)
	}
	m.SetTraining(false)
	pred := matrix.ArgmaxRows(m.Forward(x))
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("MLP accuracy %v on separable data", acc)
	}
}

// Property: softmax CE gradient rows sum to 0 for unmasked rows (probability
// simplex tangency), a structural invariant of the loss.
func TestQuickCEGradRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(5), 2+rng.Intn(4)
		logits := matrix.New(n, c)
		matrix.RandomNormal(logits, 0, 2, rng)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		_, g := SoftmaxCrossEntropy(logits, labels, nil)
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range g.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("m", []int{64, 64, 8}, 0.5, rng)
	x := matrix.New(500, 64)
	matrix.RandomNormal(x, 0, 1, rng)
	labels := make([]int, 500)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	opt := NewAdam(0.01, 0)
	m.SetTraining(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ZeroGrads(m)
		y := m.Forward(x)
		_, g := SoftmaxCrossEntropy(y, labels, nil)
		m.Backward(g)
		opt.Step(m)
	}
}
