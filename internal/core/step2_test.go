package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// referenceLoss is Eq. (14) written out from Eqs. (8)–(17), independently of
// personal.forward: L = CE(Ŷ) + MSE(H̃, Ẑ). The evolved propagation matrix is
// detached in training — backward treats its signed halves as constants — so
// the reference takes them frozen (nil under DisableLM).
func referenceLoss(p *personal, pPos, pNeg *matrix.Dense) float64 {
	hT := p.knowledge.Forward(nil) // the bound smoothed features
	sHT := matrix.SoftmaxRows(hT)
	heads := []*matrix.Dense{sHT}
	if !p.opt.DisableTF {
		heads = append(heads, matrix.SoftmaxRows(p.feature.Forward(nil))) // bound X
	}
	if !p.opt.DisableLM {
		hm := p.message.Forward(hT)
		hm1 := matrix.Add(hm, matrix.Sub(matrix.Mul(pPos, hm), matrix.Mul(pNeg, hm)))
		heads = append(heads, matrix.SoftmaxRows(hm1))
	}
	var loss float64
	count := 0
	for i := 0; i < p.g.N; i++ {
		if !p.g.TrainMask[i] {
			continue
		}
		c := p.g.Labels[i]
		var he float64
		for _, h := range heads {
			he += h.At(i, c) / float64(len(heads))
		}
		ho := (sHT.At(i, c) + p.phat.At(i, c)) / 2
		loss -= math.Log(math.Max(p.hcs*ho+(1-p.hcs)*he, 1e-9))
		count++
	}
	loss /= float64(count)
	if !p.opt.DisableKP {
		for i, v := range hT.Data {
			d := v - p.extLogits.Data[i]
			loss += d * d / float64(len(hT.Data))
		}
	}
	return loss
}

// TestStep2GradientCheck is the finite-difference check of personal.backward
// plus the KP term against the Eq. (14) loss, for all three modules, under
// the default options and each ablation switch (ROADMAP 4c). It is what
// guards the leaf first layers of Θ_knowledge and Θ_feature and the
// transposed products P⁺ᵀ·dH, P⁻ᵀ·dH in backward: P⁺ is not symmetric (its
// rows are L1-normalised, its columns not), so a dropped transpose fails
// here. The reference takes the halves written out whole (denseHalves).
func TestStep2GradientCheck(t *testing.T) {
	cases := map[string]func(*Options){
		"default":    func(*Options) {},
		"DisableKP":  func(o *Options) { o.DisableKP = true },
		"DisableTF":  func(o *Options) { o.DisableTF = true },
		"DisableLM":  func(o *Options) { o.DisableLM = true },
		"DisableLT":  func(o *Options) { o.DisableLT = true },
		"DisableHCS": func(o *Options) { o.DisableHCS = true },
	}
	for name, mod := range cases {
		t.Run(name, func(t *testing.T) {
			g := blockGraph(24, false, 21)
			cfg := quickCfg()
			cfg.Hidden = 8
			rng := rand.New(rand.NewSource(22))
			opt := quickAda()
			mod(&opt)
			p := newPersonal(g, models.NewGCN(g, cfg, rng), cfg, opt, rng)
			p.train(3) // move off the initialisation so no branch is degenerate

			nn.ZeroGrads(p.modules())
			got := p.lossGrad()
			var pPos, pNeg *matrix.Dense
			if !opt.DisableLM {
				pPos, pNeg = denseHalves(p)
			}
			if want := referenceLoss(p, pPos, pNeg); math.Abs(got-want) > 1e-12 {
				t.Fatalf("lossGrad returned %v, Eq. (14) reference %v", got, want)
			}
			for _, par := range p.modules().Params() {
				step := len(par.Value.Data)/7 + 1
				for i := 0; i < len(par.Value.Data); i += step {
					const h = 1e-6
					orig := par.Value.Data[i]
					par.Value.Data[i] = orig + h
					lp := referenceLoss(p, pPos, pNeg)
					par.Value.Data[i] = orig - h
					lm := referenceLoss(p, pPos, pNeg)
					par.Value.Data[i] = orig
					if num := (lp - lm) / (2 * h); math.Abs(num-par.Grad.Data[i]) > 1e-6 {
						t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", par.Name, i, par.Grad.Data[i], num)
					}
				}
			}
		})
	}
}

// step2Client builds the Step-2 state of one Cora-like client (F = 64,
// C = 7) of 1400·factor nodes at the paper's Step-2 defaults, with a GCN
// extractor at its initialisation.
func step2Client(tb testing.TB, factor float64, hidden int) *personal {
	tb.Helper()
	return step2ClientWith(tb, factor, hidden, DefaultOptions())
}

// step2ClientWith is step2Client under the Step-2 options opt.
func step2ClientWith(tb testing.TB, factor float64, hidden int, opt Options) *personal {
	tb.Helper()
	spec, err := datasets.ByName("Cora")
	if err != nil {
		tb.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, factor, 1)
	cfg := models.DefaultConfig()
	cfg.Hidden = hidden
	cfg.Dropout = 0
	rng := rand.New(rand.NewSource(2))
	return newPersonal(g, models.NewGCN(g, cfg, rng), cfg, opt, rng)
}

// allocSite identifies one bucket of the runtime's memory profile: the
// runtime keys buckets by call stack and object size, so every object counted
// in a bucket is exactly size bytes.
type allocSite struct {
	stack [32]uintptr
	size  int64
}

// allocCounts reads the cumulative number of heap objects allocated per
// profile bucket. Only objects allocated while runtime.MemProfileRate is 1
// are counted exactly.
func allocCounts() map[allocSite]int64 {
	// The profile lags allocation by up to two collection cycles.
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1<<10)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	counts := make(map[allocSite]int64, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			counts[allocSite{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
		}
	}
	return counts
}

// largestAllocDuring returns the size in bytes of the largest single heap
// object fn allocates, by profiling every allocation while it runs.
func largestAllocDuring(fn func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocCounts()
	fn()
	var largest int64
	for site, n := range allocCounts() {
		if n > before[site] && site.size > largest {
			largest = site.size
		}
	}
	return largest
}

// squareSink keeps the probe allocation of the test below on the heap.
var squareSink []float64

// TestStep2EpochAllocatesNoSquareMatrix is the allocation guard of the Step-2
// hot loop: after the first epoch (optimiser state, lazily sized masks) no
// single allocation inside an epoch may be as large as one n_i×n_i float64
// matrix — the Gram matrix lives in scratch owned by personal, the signed
// halves of P̃^(1) only ever as 4-row stripes of pooled scratch, and nothing
// else in the loop is n_i² wide. It reads the
// object sizes from the runtime's memory profile instead of bounding the
// bytes an epoch allocates: the byte total also counts the GEMM pack buffers,
// which sync.Pool re-allocates whenever it drops a Put (by design under the
// race detector, where the total read anywhere between 0.9 and 1.1 squares).
// The client is sized (n_i = 560, hidden 8) so that the n_i×hidden and n_i×C
// activations and gradients an epoch does allocate are far below n_i²; the
// probe at the end proves the profile would have shown a square buffer.
func TestStep2EpochAllocatesNoSquareMatrix(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	p := step2Client(t, 0.4, 8)
	p.train(1)
	square := int64(p.g.N * p.g.N * 8)
	largest := largestAllocDuring(func() { p.train(5) })
	t.Logf("n_i = %d: largest single allocation in 5 epochs is %d B, one n_i×n_i matrix is %d B", p.g.N, largest, square)
	if largest >= square {
		t.Fatalf("a Step-2 epoch allocates a %d B object, at least one %d×%d matrix (%d B)", largest, p.g.N, p.g.N, square)
	}
	if largest == 0 {
		t.Fatal("the memory profile recorded no allocation in 5 epochs; the guard is blind")
	}
	if got := largestAllocDuring(func() { squareSink = make([]float64, p.g.N*p.g.N) }); got < square {
		t.Fatalf("the memory profile missed a %d B probe allocation (largest seen %d B); the guard is blind", square, got)
	}
	squareSink = nil
}

// BenchmarkAdaFGLStep2Epoch times one Step-2 epoch at the client shape of the
// benchmark's adafgl-noniid workload: n_i = 280, F = 64, C = 7, hidden 32.
func BenchmarkAdaFGLStep2Epoch(b *testing.B) {
	p := step2Client(b, 0.2, 32)
	p.train(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.train(1)
	}
}
