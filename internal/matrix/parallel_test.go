package matrix

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func randDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// exactEqual fails the test unless a and b match bit-for-bit; the parallel
// kernels preserve the serial per-element arithmetic order, so tolerance-free
// comparison is the contract.
func exactEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %v, serial %v", name, i, v, want.Data[i])
		}
	}
}

func TestDenseKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// Sizes chosen to exceed parallel.MinWork so the parallel path runs.
	a := randDense(160, 120, 1)
	b := randDense(120, 140, 2)
	c := randDense(160, 120, 3)
	big := randDense(256, 256, 4)

	orig := parallel.SetWorkers(1)
	defer parallel.SetWorkers(orig)
	mul := Mul(a, b)
	mulT := MulT(a, c)
	tMul := TMul(a, c)
	add := Add(a, c)
	sub := Sub(a, c)
	scale := Scale(1.7, big)
	soft := SoftmaxRows(big)

	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		exactEqual(t, "Mul", Mul(a, b), mul)
		exactEqual(t, "MulT", MulT(a, c), mulT)
		exactEqual(t, "TMul", TMul(a, c), tMul)
		exactEqual(t, "Add", Add(a, c), add)
		exactEqual(t, "Sub", Sub(a, c), sub)
		exactEqual(t, "Scale", Scale(1.7, big), scale)
		exactEqual(t, "SoftmaxRows", SoftmaxRows(big), soft)
	}

	// The products of a training step: n_i x n_i against n_i x C and back.
	for _, s := range trainingShapes {
		sq, tall, wide := randDense(s[0], s[1], 5), randDense(s[1], s[2], 6), randDense(s[2], s[1], 7)
		parallel.SetWorkers(1)
		mul, tMul, mulT := Mul(sq, tall), TMul(sq, tall), MulT(sq, wide)
		for _, w := range []int{2, 3, 8} {
			parallel.SetWorkers(w)
			exactEqual(t, "Mul", Mul(sq, tall), mul)
			exactEqual(t, "TMul", TMul(sq, tall), tMul)
			exactEqual(t, "MulT", MulT(sq, wide), mulT)
		}
	}
}

func TestInPlaceKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	base := randDense(300, 120, 5)
	delta := randDense(300, 120, 6)

	orig := parallel.SetWorkers(1)
	defer parallel.SetWorkers(orig)
	serialAdd := base.Clone()
	AddInPlace(serialAdd, delta)
	serialScaled := base.Clone()
	AddScaled(serialScaled, 0.3, delta)

	parallel.SetWorkers(8)
	gotAdd := base.Clone()
	AddInPlace(gotAdd, delta)
	gotScaled := base.Clone()
	AddScaled(gotScaled, 0.3, delta)
	exactEqual(t, "AddInPlace", gotAdd, serialAdd)
	exactEqual(t, "AddScaled", gotScaled, serialScaled)
}
