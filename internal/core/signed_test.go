package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// splitHalves writes out whole the PoSign and NeSign halves signedProducts
// builds four rows at a time, from matrix.SignSplit's row panels.
func splitHalves(beta float64, pt, g *matrix.Dense, scale []float64, byCol bool) (pos, neg *matrix.Dense) {
	n := pt.Rows
	pos, neg = matrix.New(n, n), matrix.New(n, n)
	sp, sn := make([]float64, 4*n), make([]float64, 4*n)
	for i0 := 0; i0 < n; i0 += 4 {
		matrix.SignSplit(sp, sn, beta, pt, g, scale, byCol, i0)
		for s := 0; s < n; s++ {
			for r := 0; r < 4 && i0+r < n; r++ {
				pos.Set(i0+r, s, sp[s*4+r])
				neg.Set(i0+r, s, sn[s*4+r])
			}
		}
	}
	return pos, neg
}

// symmetric fails unless m is bitwise symmetric.
func symmetric(t *testing.T, name string, m *matrix.Dense) {
	t.Helper()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				t.Fatalf("%s: (%d, %d) = %v but (%d, %d) = %v", name, i, j, m.At(i, j), j, i, m.At(j, i))
			}
		}
	}
}

// TestPropertySignedOperatorSymmetric is the premise Step 2's backward rests
// on — it reads the rows of P̃ and the Gram matrix where Pᵀ needs their
// columns: OptimizedPropagation's P̃, the DisableLT operator (the dense Ã)
// and the Gram matrix MulTInto(H', H') are bitwise symmetric. Held for n of
// every residue mod 4 on both sides of the GEMM cutover, at workers 1 and 3,
// and under a tiling whose KC is below C, which splits every Gram sum.
func TestPropertySignedOperatorSymmetric(t *testing.T) {
	defer matrix.SetTiling(matrix.SetTiling(matrix.DefaultTiling()))
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const classes = 7
	for _, n := range []int{24, 25, 26, 27, 196, 197, 198, 199} {
		g := blockGraph(n, n%2 == 0, int64(n))
		rng := rand.New(rand.NewSource(int64(n) + 1))
		phat := matrix.New(n, classes)
		matrix.RandomNormal(phat, 0, 1, rng)
		phat = matrix.SoftmaxRows(phat)
		hm := matrix.New(n, classes)
		matrix.RandomNormal(hm, 0, 1, rng)
		for _, tl := range []matrix.Tiling{matrix.DefaultTiling(), {MC: 8, KC: 3, NC: 8}} {
			matrix.SetTiling(tl)
			for _, w := range []int{1, 3} {
				parallel.SetWorkers(w)
				name := fmt.Sprintf("n=%d tiles %+v workers=%d", n, tl, w)
				symmetric(t, "P̃ "+name, OptimizedPropagation(g, phat, 0.7))
				symmetric(t, "Ã "+name, g.NormAdjPlan(sparse.NormSym).Matrix().Dense())
				gram := matrix.New(n, n)
				matrix.MulTInto(gram, hm, hm)
				symmetric(t, "H'H'ᵀ "+name, gram)
			}
		}
	}
}

// TestPropertyStep2MatchesDenseReference holds Step 2's message branch, which
// never holds P⁺ or P⁻, to the dense one it replaced (reference_test.go):
// twin clients trained for several epochs, one each way, end with bit-equal
// parameters and predictions — under every ablation switch, on a client
// whose n_i²·C products take the blocked engine (n_i = 280) and on one below
// the cutover (n_i = 140), at workers 1 and 3.
func TestPropertyStep2MatchesDenseReference(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	cases := map[string]func(*Options){
		"default":    func(*Options) {},
		"DisableLT":  func(o *Options) { o.DisableLT = true },
		"DisableTF":  func(o *Options) { o.DisableTF = true },
		"DisableKP":  func(o *Options) { o.DisableKP = true },
		"DisableHCS": func(o *Options) { o.DisableHCS = true },
	}
	for name, mod := range cases {
		for _, factor := range []float64{0.2, 0.1} {
			for _, w := range []int{1, 3} {
				parallel.SetWorkers(w)
				opt := DefaultOptions()
				mod(&opt)
				got, want := step2ClientWith(t, factor, 16, opt), step2ClientWith(t, factor, 16, opt)
				got.train(4)
				denseTrain(want, 4)
				label := fmt.Sprintf("%s n_i=%d workers=%d", name, got.g.N, w)
				wantParams, gotParams := nn.Flatten(want.modules()), nn.Flatten(got.modules())
				for i, v := range wantParams {
					if math.Float64bits(gotParams[i]) != math.Float64bits(v) {
						t.Fatalf("%s: parameter %d = %v, dense reference %v", label, i, gotParams[i], v)
					}
				}
				denseForward(want)
				wantY, gotY := want.yhat.Clone(), got.forward()
				for i, v := range wantY.Data {
					if math.Float64bits(gotY.Data[i]) != math.Float64bits(v) {
						t.Fatalf("%s: Ŷ[%d] = %v, dense reference %v", label, i, gotY.Data[i], v)
					}
				}
			}
		}
	}
}

// gemmCounts reads the dense-product counters: products by engine (naive,
// blocked), then tiles by kind (full, edge).
func gemmCounts() [4]uint64 {
	reg := telemetry.Default()
	path := reg.CounterVec("adafgl_matrix_gemm_total", "", "path")
	kind := reg.CounterVec("adafgl_matrix_gemm_tiles_total", "", "kind")
	return [4]uint64{path.With("naive").Value(), path.With("blocked").Value(), kind.With("full").Value(), kind.With("edge").Value()}
}

// TestStep2EpochCountsTheDenseProducts keeps the GEMM counters truthful: the
// four signed products of an epoch no longer pass through MulInto and
// TMulInto, and must still count as four products of their full shape, on
// the engine those would have run, with their tiles — so one epoch moves
// every counter exactly as an epoch of the dense reference does, above and
// below the cutover.
func TestStep2EpochCountsTheDenseProducts(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	for _, factor := range []float64{0.2, 0.1} {
		p, dense := step2Client(t, factor, 16), step2Client(t, factor, 16)
		before := gemmCounts()
		denseTrain(dense, 1)
		mid := gemmCounts()
		p.train(1)
		after := gemmCounts()
		for i := range after {
			if after[i]-mid[i] != mid[i]-before[i] {
				t.Fatalf("n_i=%d: an epoch moved the counters (naive, blocked, full, edge) by %v, a dense epoch by %v", p.g.N,
					[4]uint64{after[0] - mid[0], after[1] - mid[1], after[2] - mid[2], after[3] - mid[3]},
					[4]uint64{mid[0] - before[0], mid[1] - before[1], mid[2] - before[2], mid[3] - before[3]})
			}
		}
	}
}
