package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// step2Constants are the personal fields that hold Step-1 artifacts, read by
// every epoch and written by none; every other matrix personal holds, and
// every buffer its modules own, is per-epoch scratch.
var step2Constants = map[string]bool{"extLogits": true, "phat": true, "ptilde": true}

// ownedScratch returns the data of every per-epoch buffer p and its modules
// own: each *matrix.Dense field of personal that is not a constant, found by
// reflection so that a buffer added later is covered without editing this
// list, and each module's nn.MLP.Scratch.
func ownedScratch(t *testing.T, p *personal) [][]float64 {
	t.Helper()
	var out [][]float64
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		field := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem().Interface()
		switch x := field.(type) {
		case *matrix.Dense:
			if x != nil && !step2Constants[f.Name] {
				out = append(out, x.Data)
			}
		case *nn.MLP:
			out = append(out, x.Scratch()...)
		}
	}
	return out
}

// holds reports whether one of bufs is exactly m's data.
func holds(bufs [][]float64, m *matrix.Dense) bool {
	for _, b := range bufs {
		if len(b) > 0 && len(b) == len(m.Data) && &b[0] == &m.Data[0] {
			return true
		}
	}
	return false
}

func fillNaN(bufs [][]float64) {
	for _, b := range bufs {
		for i := range b {
			b[i] = math.NaN()
		}
	}
}

// TestStep2OwnershipScribble proves the ownership rule of Step 2 — a buffer
// is valid until its owner's next forward (or backward) — holds for every
// reader: after an epoch every buffer personal and its layers own is filled
// with NaN, and the next epochs must still produce the bits of an
// unscribbled twin, so no epoch reads a value a previous epoch left behind.
// The buffers scribbled include p.hTilde, which the KP loss reads after
// backward has run. As a control, scribbling p.extLogits — a Step-1
// constant every epoch's KP loss reads — must move the result, so the
// comparison would see a buffer read past its validity.
func TestStep2OwnershipScribble(t *testing.T) {
	cases := map[string]func(*Options){
		"default":   func(*Options) {},
		"DisableLM": func(o *Options) { o.DisableLM = true },
		"DisableTF": func(o *Options) { o.DisableTF = true },
		"DisableKP": func(o *Options) { o.DisableKP = true },
	}
	for name, mod := range cases {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			mod(&opt)
			client := func() *personal {
				// n_i = 280: Step 2's products on both sides of the cutover.
				spec, err := datasets.ByName("Cora")
				if err != nil {
					t.Fatal(err)
				}
				g := datasets.GenerateScaled(spec, 0.2, 1)
				rng := rand.New(rand.NewSource(2))
				p := newPersonal(g, models.NewGCN(g, quickCfg(), rng), quickCfg(), opt, rng)
				p.train(1)
				return p
			}
			scribbled, twin, control := client(), client(), client()
			bufs := ownedScratch(t, scribbled)
			if !holds(bufs, scribbled.hTilde) {
				t.Fatal("the scribbled buffers do not include p.hTilde")
			}
			for e := 0; e < 2; e++ {
				fillNaN(ownedScratch(t, scribbled))
				scribbled.train(1)
				twin.train(1)
			}
			want, got := nn.Flatten(twin.modules()), nn.Flatten(scribbled.modules())
			for i, v := range want {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("parameter %d = %v after scribbled epochs, unscribbled twin %v", i, got[i], v)
				}
			}
			if scribbled.testAccuracy() != twin.testAccuracy() {
				t.Fatal("the scribbled client scores differently from its twin")
			}

			if opt.DisableKP {
				return // nothing reads extLogits in an epoch
			}
			fillNaN([][]float64{control.extLogits.Data})
			control.train(1)
			if !math.IsNaN(nn.Flatten(control.modules())[0]) {
				t.Fatal("scribbling p.extLogits moved nothing: the comparison is blind")
			}
		})
	}
}

// TestStep2HoldsTwoSquareMatrices: a training client holds exactly two
// n_i×n_i matrices, P̃ and the Gram matrix of the message branch — the
// signed halves of P̃^(1) exist only as 4-row stripes inside an epoch — and
// under DisableLM P̃ alone. Every matrix personal holds and every buffer its
// modules own is counted, found by reflection as ownedScratch finds them.
func TestStep2HoldsTwoSquareMatrices(t *testing.T) {
	for _, disableLM := range []bool{false, true} {
		opt := DefaultOptions()
		opt.DisableLM = disableLM
		p := step2ClientWith(t, 0.2, 16, opt)
		p.train(1)
		square := p.g.N * p.g.N
		var held []string
		v := reflect.ValueOf(p).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch x := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem().Interface().(type) {
			case *matrix.Dense:
				if x != nil && len(x.Data) == square {
					held = append(held, f.Name)
				}
			case *nn.MLP:
				for _, b := range x.Scratch() {
					if len(b) >= square {
						held = append(held, f.Name+" scratch")
					}
				}
			}
		}
		want := []string{"ptilde", "gram"}
		if disableLM {
			want = want[:1]
		}
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("DisableLM=%v: a training client holds n_i×n_i buffers %v, want %v", disableLM, held, want)
		}
	}
}

// fixedExtractor is a Step-1 extractor whose logits are given.
type fixedExtractor struct{ z *matrix.Dense }

func (f fixedExtractor) Logits(bool) *matrix.Dense { return f.z.Clone() }
func (fixedExtractor) Backward(*matrix.Dense)      {}
func (fixedExtractor) Params() []*nn.Parameter     { return nil }

// step2EpochAllocs is the allocation budget of one Step-2 epoch at the
// benchmark's client shape at one worker: what the epoch reaches (92 —
// closures and loop state handed to internal/parallel, which escape
// statically) plus slack for a pack buffer sync.Pool dropped.
const step2EpochAllocs = 100

// TestStep2EpochAllocations is the allocation guard of the Step-2 loop: at
// the adafgl-noniid client shape (n_i = 280, F = 64, C = 7, hidden 32) an
// epoch after the first allocates no matrix — every buffer is owned — so it
// stays within step2EpochAllocs objects and 64 KB (1.63 MB and 320 objects
// before personal owned its buffers).
func TestStep2EpochAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pack buffers at random under the race detector")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	p := step2Client(t, 0.2, 32)
	p.train(1)
	if got := testing.AllocsPerRun(10, func() { p.train(1) }); got > step2EpochAllocs {
		t.Fatalf("a Step-2 epoch makes %v allocations, budget %d", got, step2EpochAllocs)
	}
	const epochs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.train(epochs)
	runtime.ReadMemStats(&after)
	if perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs; perEpoch > 64<<10 {
		t.Fatalf("a Step-2 epoch allocates %d B, budget 64 KiB", perEpoch)
	}
}

// referenceOptimizedPropagation is OptimizedPropagation as it was written
// before it built P̃ in place: three n×n matrices (the densified Ã, P̂P̂ᵀ and
// their blend) combined by Scale and AddScaled.
func referenceOptimizedPropagation(g *graph.Graph, phat *matrix.Dense, alpha float64) *matrix.Dense {
	n := g.N
	adense := g.NormAdjPlan(sparse.NormSym).Matrix().Dense()
	pp := matrix.MulT(phat, phat)
	p := matrix.Scale(alpha, adense)
	matrix.AddScaled(p, 1-alpha, pp)
	for i := 0; i < n; i++ {
		p.Set(i, i, 0)
	}
	deg := matrix.RowSums(p)
	for i := 0; i < n; i++ {
		row := p.Row(i)
		for j := range row {
			d := deg[i] * deg[j]
			if d > 0 {
				row[j] /= sqrtf(d)
			}
		}
	}
	return p
}

// TestPropertyOptimizedPropagationMatchesDenseBlend holds the in-place P̃ to
// the three-matrix reference bit for bit — at the paper's α, at both ends
// and past them (where α·0 is −0) — on a graph on each side of the GEMM
// cutover; CI runs it again on a build allowed to fuse multiply-adds.
func TestPropertyOptimizedPropagationMatchesDenseBlend(t *testing.T) {
	for _, n := range []int{24, 90} {
		g := blockGraph(n, n == 24, 31)
		phat := matrix.New(n, g.Classes)
		matrix.RandomNormal(phat, 0, 1, rand.New(rand.NewSource(32)))
		phat = matrix.SoftmaxRows(phat)
		for _, alpha := range []float64{0.7, 0, 1, 0.3, -0.5, 1.5} {
			got, want := OptimizedPropagation(g, phat, alpha), referenceOptimizedPropagation(g, phat, alpha)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d α=%v: P̃[%d] = %v, reference %v", n, alpha, i, got.Data[i], v)
				}
			}
		}
	}
}

// TestEvaluatorMatchesFullTransplant: the inductive protocol's evaluation
// client runs no HCS and packs no gradient operand, and scores exactly what
// the full pipeline it replaced — newPersonal on the evaluation graph, then
// the parameters and HCS transplanted — scores.
func TestEvaluatorMatchesFullTransplant(t *testing.T) {
	cfg := quickCfg()
	g := blockGraph(40, true, 33)
	rng := rand.New(rand.NewSource(34))
	p := newPersonal(g, fixedExtractor{randLogits(g, 35)}, cfg, quickAda(), rng)
	p.train(3)

	full := blockGraph(48, true, 36)
	ext := fixedExtractor{randLogits(full, 37)}
	pe, err := newEvaluator(p, full, ext, cfg, rand.New(rand.NewSource(38)))
	if err != nil {
		t.Fatal(err)
	}
	old := newPersonal(full, ext, cfg, quickAda(), rand.New(rand.NewSource(38)))
	if err := nn.Unflatten(old.modules(), nn.Flatten(p.modules())); err != nil {
		t.Fatal(err)
	}
	old.hcs = p.hcs
	if pe.hcs != p.hcs {
		t.Fatalf("evaluator HCS %v, trained client %v", pe.hcs, p.hcs)
	}
	want, got := old.forward().Clone(), pe.forward()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("evaluator Ŷ[%d] = %v, full transplant %v", i, got.Data[i], v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an evaluation-only client trained: its gradient operand was packed")
		}
	}()
	pe.lossGrad()
}

func randLogits(g *graph.Graph, seed int64) *matrix.Dense {
	z := matrix.New(g.N, g.Classes)
	matrix.RandomNormal(z, 0, 1, rand.New(rand.NewSource(seed)))
	return z
}
