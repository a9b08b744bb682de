package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged input should error")
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	i3 := Identity(3)
	got := Mul(a, i3)
	if !Equal(a, got, 0) {
		t.Fatalf("A*I = %v, want %v", got, a)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(want, got, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(4, 7)
	RandomNormal(m, 0, 1, rng)
	if !Equal(m, Transpose(Transpose(m)), 0) {
		t.Fatal("transpose twice should be identity")
	}
}

func TestTMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(5, 3), New(5, 4)
	RandomNormal(a, 0, 1, rng)
	RandomNormal(b, 0, 1, rng)
	if !Equal(TMul(a, b), Mul(Transpose(a), b), 1e-10) {
		t.Fatal("TMul must equal explicit aᵀ·b")
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(4, 6), New(3, 6)
	RandomNormal(a, 0, 1, rng)
	RandomNormal(b, 0, 1, rng)
	if !Equal(MulT(a, b), Mul(a, Transpose(b)), 1e-10) {
		t.Fatal("MulT must equal explicit a·bᵀ")
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -2}, {3, 0}})
	b, _ := FromRows([][]float64{{4, 5}, {-1, 2}})
	if got := Add(a, b).At(0, 1); got != 3 {
		t.Fatalf("Add = %v, want 3", got)
	}
	if got := Sub(a, b).At(1, 0); got != 4 {
		t.Fatalf("Sub = %v, want 4", got)
	}
	if got := Scale(2, a).At(1, 0); got != 6 {
		t.Fatalf("Scale = %v, want 6", got)
	}
}

func TestAddScaledAndInPlace(t *testing.T) {
	a := New(2, 2)
	b, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	AddScaled(a, 0.5, b)
	if a.At(0, 0) != 0.5 {
		t.Fatalf("AddScaled got %v", a.At(0, 0))
	}
	AddInPlace(a, b)
	if a.At(1, 1) != 1.5 {
		t.Fatalf("AddInPlace got %v", a.At(1, 1))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(10, 5)
	RandomNormal(m, 0, 10, rng)
	s := SoftmaxRows(m)
	for i, sum := range RowSums(s) {
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("row %d softmax sums to %v", i, sum)
		}
	}
	for _, v := range s.Data {
		if v < 0 || v > 1 {
			t.Fatalf("softmax value %v outside [0,1]", v)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	m, _ := FromRows([][]float64{{1000, 1000, 999}})
	s := SoftmaxRows(m)
	for _, v := range s.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed on large inputs")
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m, _ := FromRows([][]float64{{0, 5, 2}, {9, 1, 1}, {-3, -2, -10}})
	got := ArgmaxRows(m)
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgmaxRows[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestConcatCols(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5}, {6}})
	c := ConcatCols(a, b)
	if c.Cols != 3 || c.At(1, 2) != 6 {
		t.Fatalf("ConcatCols wrong: %v", c)
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	s := SelectRows(m, []int{2, 0})
	if s.At(0, 0) != 3 || s.At(1, 1) != 1 {
		t.Fatalf("SelectRows wrong: %v", s)
	}
}

func TestColRowSums(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	cs := ColSums(m)
	if cs[0] != 4 || cs[1] != 6 {
		t.Fatalf("ColSums = %v", cs)
	}
	rs := RowSums(m)
	if rs[0] != 3 || rs[1] != 7 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	AddRowVector(m, []float64{1, 2, 3})
	if m.At(1, 2) != 3 {
		t.Fatalf("AddRowVector got %v", m.At(1, 2))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if got := FrobeniusNorm(m); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestNormalizeRowsL1(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 2}, {0, 0}, {-1, 3}})
	NormalizeRowsL1(m)
	if !almostEqual(m.At(0, 0), 0.5, 1e-12) {
		t.Fatalf("row 0 not normalised: %v", m.Row(0))
	}
	if m.At(1, 0) != 0 {
		t.Fatal("zero row must be untouched")
	}
	// L1 normalisation uses |.|: row sums of abs values equal 1.
	if s := math.Abs(m.At(2, 0)) + math.Abs(m.At(2, 1)); !almostEqual(s, 1, 1e-12) {
		t.Fatalf("row 2 abs-sum = %v", s)
	}
}

func TestXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(30, 20)
	XavierUniform(m, rng)
	bound := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
}

func TestMeanMaxAbs(t *testing.T) {
	m, _ := FromRows([][]float64{{-4, 2}, {1, 1}})
	if Mean(m) != 0 {
		t.Fatalf("Mean = %v, want 0", Mean(m))
	}
	if MaxAbs(m) != 4 {
		t.Fatalf("MaxAbs = %v, want 4", MaxAbs(m))
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(n, k), New(k, p)
		RandomNormal(a, 0, 1, rng)
		RandomNormal(b, 0, 1, rng)
		return Equal(Transpose(Mul(a, b)), Mul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickDistributivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b, c := New(n, k), New(k, p), New(k, p)
		RandomNormal(a, 0, 1, rng)
		RandomNormal(b, 0, 1, rng)
		RandomNormal(c, 0, 1, rng)
		return Equal(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax is invariant to adding a constant to a row.
func TestQuickSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(3, 4)
		RandomNormal(m, 0, 3, rng)
		shifted := m.Clone()
		c := rng.NormFloat64() * 5
		for i := range shifted.Data {
			shifted.Data[i] += c
		}
		return Equal(SoftmaxRows(m), SoftmaxRows(shifted), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(128, 128), New(128, 128)
	RandomNormal(x, 0, 1, rng)
	RandomNormal(y, 0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
