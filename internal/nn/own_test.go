package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// bitsEqual fails unless got and want hold the same float64 bits.
func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, v, want[i])
		}
	}
}

// scribble overwrites every buffer in bufs with NaN.
func scribble(bufs [][]float64) {
	for _, b := range bufs {
		for i := range b {
			b[i] = math.NaN()
		}
	}
}

// TestPropertyBoundOwnedMLPMatchesFresh trains two twins side by side — one
// fed x on every pass with fresh buffers (how Step 1 runs), one with x bound
// and packed once and every buffer owned (how Step 2 runs) — and requires
// the same bits in every output, loss gradient and parameter gradient, for
// an input below and one above the blocked-GEMM cutover and with dropout on.
// Between steps the owned twin's buffers are scribbled with NaN: a layer
// must rewrite all of a buffer before it reads it. Owned outputs are reused,
// never reallocated.
func TestPropertyBoundOwnedMLPMatchesFresh(t *testing.T) {
	for _, shape := range [][3]int{{9, 6, 5}, {300, 203, 16}} { // rows, in, hidden; 300·203·16 is past the cutover
		t.Run(fmt.Sprintf("x=%dx%d", shape[0], shape[1]), func(t *testing.T) {
			rows, in, hidden := shape[0], shape[1], shape[2]
			x := matrix.New(rows, in)
			matrix.RandomNormal(x, 0, 1, rand.New(rand.NewSource(8)))
			labels := make([]int, rows)
			for i := range labels {
				labels[i] = i % 3
			}
			dims := []int{in, hidden, hidden, 3}
			fresh := NewMLP("m", dims, 0.3, rand.New(rand.NewSource(9))).MarkLeaf()
			owned := NewMLP("m", dims, 0.3, rand.New(rand.NewSource(9))).BindInput(x, true).OwnBuffers()
			fresh.SetTraining(true)
			owned.SetTraining(true)
			var lastOut *matrix.Dense
			for step := 0; step < 3; step++ {
				ZeroGrads(fresh)
				ZeroGrads(owned)
				wantOut, gotOut := fresh.Forward(x), owned.Forward(nil)
				bitsEqual(t, fmt.Sprintf("step %d output", step), gotOut.Data, wantOut.Data)
				if lastOut != nil && gotOut != lastOut {
					t.Fatalf("step %d: an owned MLP allocated a new output", step)
				}
				lastOut = gotOut
				_, g := SoftmaxCrossEntropy(wantOut, labels, nil)
				if fresh.Backward(g) != nil || owned.Backward(g) != nil {
					t.Fatal("a leaf MLP returned an input gradient")
				}
				fp, op := fresh.Params(), owned.Params()
				for k := range fp {
					bitsEqual(t, fmt.Sprintf("step %d %s grad", step, fp[k].Name), op[k].Grad.Data, fp[k].Grad.Data)
				}
				(&SGD{LR: 0.1}).Step(fresh)
				(&SGD{LR: 0.1}).Step(owned)
				scribble(owned.Scratch())
			}
			if len(owned.Scratch()) == 0 || fresh.Scratch() != nil {
				t.Fatal("Scratch must list the owned twin's buffers and nothing of the fresh one")
			}
		})
	}
}

// TestOwnedMLPInputGradientMatchesFresh covers the non-leaf case (Step 2's
// Θ_message): an owned MLP fed a matrix hands back the same input gradient
// as a fresh twin, in its own reused buffer.
func TestOwnedMLPInputGradientMatchesFresh(t *testing.T) {
	x := matrix.New(7, 4)
	matrix.RandomNormal(x, 0, 1, rand.New(rand.NewSource(10)))
	fresh := NewMLP("m", []int{4, 5, 3}, 0, rand.New(rand.NewSource(11)))
	owned := NewMLP("m", []int{4, 5, 3}, 0, rand.New(rand.NewSource(11))).OwnBuffers()
	var last *matrix.Dense
	for step := 0; step < 2; step++ {
		_, g := MSELoss(fresh.Forward(x), matrix.New(7, 3))
		owned.Forward(x)
		want, got := fresh.Backward(g), owned.Backward(g)
		bitsEqual(t, "input gradient", got.Data, want.Data)
		if last != nil && got != last {
			t.Fatal("an owned MLP allocated a new input gradient")
		}
		last = got
		scribble(owned.Scratch())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

func TestBoundLinearMisuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := matrix.New(4, 3)
	mustPanic(t, "Forward(nil) with nothing bound", func() { NewLinear("l", 3, 2, rng).Forward(nil) })
	mustPanic(t, "Backward before Forward", func() { NewLinear("l", 3, 2, rng).BindInput(x, true).Backward(matrix.New(4, 2)) })
	eval := NewLinear("l", 3, 2, rng).BindInput(x, false)
	eval.Forward(nil)
	mustPanic(t, "Backward on an evaluation-only bound input", func() { eval.Backward(matrix.New(4, 2)) })
	// An explicit input still wins over the bound one.
	l := NewLinear("l", 3, 2, rng).BindInput(x, false)
	y := matrix.New(6, 3)
	if out := l.Forward(y); out.Rows != 6 {
		t.Fatalf("Forward(y) on a bound layer ran on the bound input (%d rows)", out.Rows)
	}
	l.Backward(matrix.New(6, 2)) // the gradient of an explicit input needs no pack
}

// TestMSELossIntoOverwritesStaleDst: MSELossInto writes all of a reused
// gradient buffer, whatever it held, and matches MSELoss.
func TestMSELossIntoOverwritesStaleDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, g := matrix.New(6, 4), matrix.New(6, 4)
	matrix.RandomNormal(x, 0, 1, rng)
	matrix.RandomNormal(g, 0, 1, rng)
	d := matrix.New(6, 4)
	d.Fill(math.NaN())
	loss := MSELossInto(d, x, g)
	wantLoss, wantGrad := MSELoss(x, g)
	bitsEqual(t, "MSELossInto", append(d.Data, loss), append(wantGrad.Data, wantLoss))
	mustPanic(t, "MSELossInto shape", func() { MSELossInto(matrix.New(2, 2), x, g) })
}

func TestParamListIsItsOwnParams(t *testing.T) {
	m := NewMLP("m", []int{3, 4, 2}, 0, rand.New(rand.NewSource(15)))
	l := ParamList(m.Params())
	if got := l.Params(); len(got) != 4 || got[0] != m.Layers[0].W {
		t.Fatal("ParamList.Params must return the list itself")
	}
}
