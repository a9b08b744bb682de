package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/partition"
)

// blockGraph builds a homophilous (or heterophilous) two-class graph.
func blockGraph(n int, homophilous bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := labels[i] == labels[j]
			p := 0.04
			if same == homophilous {
				p = 0.25
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	x := matrix.New(n, 6)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, rng.NormFloat64()+float64(labels[i])*1.2)
		}
	}
	g := graph.New(n, edges, x, labels, 2)
	g.SplitTransductive(0.4, 0.2, rng)
	return g
}

func TestNonParamLPPropagatesOnHomophilousGraph(t *testing.T) {
	g := blockGraph(40, true, 1)
	y := NonParamLP(g, g.TrainMask, 0.5, 5)
	pred := matrix.ArgmaxRows(y)
	correct, total := 0, 0
	for v := 0; v < g.N; v++ {
		if g.TrainMask[v] {
			continue
		}
		total++
		if pred[v] == g.Labels[v] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Fatalf("LP accuracy %.3f < 0.7 on homophilous graph", acc)
	}
}

func TestNonParamLPRowsAreDistributions(t *testing.T) {
	g := blockGraph(30, true, 2)
	y := NonParamLP(g, g.TrainMask, 0.5, 5)
	for i := 0; i < y.Rows; i++ {
		for _, v := range y.Row(i) {
			if v < -1e-9 {
				t.Fatalf("negative mass %v", v)
			}
		}
	}
}

func TestHCSHighOnHomophilyLowOnHeterophily(t *testing.T) {
	homo := blockGraph(60, true, 3)
	hetero := blockGraph(60, false, 3)
	rng := rand.New(rand.NewSource(4))
	hHomo := HCS(homo, 0.5, 5, 0.5, rng)
	hHetero := HCS(hetero, 0.5, 5, 0.5, rng)
	if hHomo <= hHetero {
		t.Fatalf("HCS(homo)=%.3f must exceed HCS(hetero)=%.3f", hHomo, hHetero)
	}
	if hHomo < 0.6 {
		t.Fatalf("HCS on homophilous graph = %.3f, want >= 0.6", hHomo)
	}
	if hHomo > 1 || hHetero < 0 {
		t.Fatal("HCS outside [0,1]")
	}
}

func TestHCSTracksSubgraphHomophily(t *testing.T) {
	// Fig. 7's claim: HCS ≈ subgraph homophily across a range of mixes.
	rng := rand.New(rand.NewSource(5))
	for _, target := range []bool{true, false} {
		g := blockGraph(80, target, 6)
		h := HCS(g, 0.5, 5, 0.5, rng)
		eh := g.EdgeHomophily()
		// Loose tracking band: same side of 0.5.
		if (h >= 0.5) != (eh >= 0.5) {
			t.Errorf("HCS %.3f and homophily %.3f on opposite sides of 0.5", h, eh)
		}
	}
}

func TestHCSFewTrainingNodes(t *testing.T) {
	g := blockGraph(10, true, 7)
	for i := range g.TrainMask {
		g.TrainMask[i] = false
	}
	g.TrainMask[0] = true
	rng := rand.New(rand.NewSource(8))
	if h := HCS(g, 0.5, 5, 0.5, rng); h != 0.5 {
		t.Fatalf("HCS with 1 train node = %v, want fallback 0.5", h)
	}
}

func TestOptimizedPropagationProperties(t *testing.T) {
	g := blockGraph(25, true, 9)
	phat := matrix.SoftmaxRows(g.X) // any row-stochastic stand-in
	pt := OptimizedPropagation(g, phat, 0.7)
	if pt.Rows != g.N || pt.Cols != g.N {
		t.Fatalf("P̃ shape %dx%d", pt.Rows, pt.Cols)
	}
	for i := 0; i < g.N; i++ {
		if pt.At(i, i) != 0 {
			t.Fatalf("diagonal not removed at %d", i)
		}
	}
	for _, v := range pt.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("invalid entry %v", v)
		}
	}
}

func TestSoftmaxBackwardMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	z := matrix.New(3, 4)
	matrix.RandomNormal(z, 0, 1, rng)
	dS := matrix.New(3, 4)
	matrix.RandomNormal(dS, 0, 1, rng)
	s := matrix.SoftmaxRows(z)
	got := matrix.New(3, 4)
	got.Fill(math.NaN()) // an owned buffer arrives holding anything
	softmaxBackwardInto(got, s, dS)
	// numeric: L = <softmax(z), dS>.
	loss := func() float64 {
		sm := matrix.SoftmaxRows(z)
		var l float64
		for i, v := range sm.Data {
			l += v * dS.Data[i]
		}
		return l
	}
	const h = 1e-6
	for i := range z.Data {
		orig := z.Data[i]
		z.Data[i] = orig + h
		lp := loss()
		z.Data[i] = orig - h
		lm := loss()
		z.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-got.Data[i]) > 1e-5 {
			t.Fatalf("softmaxBackward[%d]: %v vs %v", i, got.Data[i], num)
		}
	}
}

func TestProbCrossEntropyGrad(t *testing.T) {
	probs, _ := matrix.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	labels := []int{0, 0}
	mask := []bool{true, true}
	grad := matrix.New(2, 2)
	grad.Fill(math.NaN()) // an owned buffer arrives holding anything
	loss := probCrossEntropyGradInto(grad, probs, labels, mask)
	want := -(math.Log(0.9) + math.Log(0.2)) / 2
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	if math.Abs(grad.At(0, 0)-(-1/0.9/2)) > 1e-12 {
		t.Fatalf("grad = %v", grad.At(0, 0))
	}
	if grad.At(0, 1) != 0 {
		t.Fatal("off-label gradient must be 0")
	}
}

// TestSplitSigns pins the sign rule of the split signedProducts runs —
// positive elements to PoSign, the rest negated to NeSign, so an exact zero
// lands in NeSign as −0 — on its stripes written out whole, holds it bit for
// bit to the three-pass composition it replaced (Scale, AddScaled, then the
// split), and holds its column-scaled stripes of symmetric operands — what
// backward multiplies by — to the transposed halves.
func TestSplitSigns(t *testing.T) {
	ones := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	p, _ := matrix.FromRows([][]float64{{1, -2}, {0, 3}})
	pos, neg := splitHalves(1, p, matrix.New(2, 2), ones(2), false)
	wantPos, wantNeg := []float64{1, 0, 0, 3}, []float64{0, 2, math.Copysign(0, -1), 0}
	for i := range wantPos {
		if math.Float64bits(pos.Data[i]) != math.Float64bits(wantPos[i]) ||
			math.Float64bits(neg.Data[i]) != math.Float64bits(wantNeg[i]) {
			t.Fatalf("element %d: pos %v neg %v, want %v %v", i, pos.Data[i], neg.Data[i], wantPos[i], wantNeg[i])
		}
	}

	// The halves are selected by bit mask; hold the select to the branch it
	// replaced on the values a sign test can get wrong.
	special := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	sp := matrix.New(6, 6)
	for i := range sp.Data {
		sp.Data[i] = special[i%6]
	}
	pos, neg = splitHalves(1, sp, matrix.New(6, 6), ones(6), false)
	for i, v := range sp.Data {
		v += 0 // the (1−β)·g term: −0 evolves to +0
		wp, wn := 0.0, -v
		if v > 0 {
			wp, wn = v, 0
		}
		if math.Float64bits(pos.Data[i]) != math.Float64bits(wp) || math.Float64bits(neg.Data[i]) != math.Float64bits(wn) {
			t.Fatalf("special %v: pos %#x neg %#x, want %#x %#x", v, math.Float64bits(pos.Data[i]),
				math.Float64bits(neg.Data[i]), math.Float64bits(wp), math.Float64bits(wn))
		}
	}

	rng := rand.New(rand.NewSource(12))
	ptilde, gram := matrix.New(37, 37), matrix.New(37, 37)
	matrix.RandomNormal(ptilde, 0, 1, rng)
	matrix.RandomNormal(gram, 0, 1, rng)
	ptilde.Data[5], gram.Data[5] = 0, 0
	beta := 0.7 // a variable: the constant expression 1-0.7 would be folded exactly
	pos, neg = splitHalves(beta, ptilde, gram, ones(37), false)
	ref := matrix.Scale(beta, ptilde)
	matrix.AddScaled(ref, 1-beta, gram)
	for i, v := range ref.Data {
		wp, wn := 0.0, -v
		if v > 0 {
			wp, wn = v, 0
		}
		if math.Float64bits(pos.Data[i]) != math.Float64bits(wp) || math.Float64bits(neg.Data[i]) != math.Float64bits(wn) {
			t.Fatalf("element %d: pos %v neg %v, three-pass reference %v %v", i, pos.Data[i], neg.Data[i], wp, wn)
		}
	}

	// backward reads rows where Pᵀ needs columns: on symmetric P̃ and Gram
	// matrix the column-scaled stripes are the halves transposed.
	ptilde = matrix.Add(ptilde, matrix.Transpose(ptilde))
	h := matrix.New(37, 7)
	matrix.RandomNormal(h, 0, 1, rng)
	gram = matrix.MulT(h, h)
	scale := make([]float64, 37)
	matrix.RowL1Scales(scale, gram)
	pos, neg = splitHalves(beta, ptilde, gram, scale, false)
	posT, negT := splitHalves(beta, ptilde, gram, scale, true)
	pos, neg = matrix.Transpose(pos), matrix.Transpose(neg)
	for i := range pos.Data {
		if math.Float64bits(posT.Data[i]) != math.Float64bits(pos.Data[i]) || math.Float64bits(negT.Data[i]) != math.Float64bits(neg.Data[i]) {
			t.Fatalf("element %d: column-scaled pos %v neg %v, transposed halves %v %v", i, posT.Data[i], negT.Data[i], pos.Data[i], neg.Data[i])
		}
	}
}

func adaSubgraphs(t testing.TB, name string, k int, nonIID bool, seed int64) []*graph.Graph {
	t.Helper()
	s, err := datasets.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(s, 0.25, seed)
	if nonIID {
		cd := partition.StructureNonIIDSplit(g, k, partition.DefaultNonIID(), rand.New(rand.NewSource(seed)))
		return cd.Subgraphs
	}
	cd := partition.CommunitySplit(g, k, rand.New(rand.NewSource(seed)))
	return cd.Subgraphs
}

func quickCfg() models.Config {
	cfg := models.DefaultConfig()
	cfg.Hidden = 16
	cfg.Dropout = 0
	return cfg
}

func quickFed() federated.Options {
	o := federated.DefaultOptions()
	o.Rounds = 10
	o.LocalEpochs = 2
	return o
}

func quickAda() Options {
	o := DefaultOptions()
	o.Epochs = 30
	o.K = 2
	return o
}

func TestAdaFGLRunsOnCommunitySplit(t *testing.T) {
	subs := adaSubgraphs(t, "Cora", 4, false, 1)
	a := &AdaFGL{Opt: quickAda()}
	res, err := a.Run(subs, quickCfg(), quickFed())
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0.5 {
		t.Fatalf("AdaFGL accuracy %.3f < 0.5 on homophilous community split", res.TestAcc)
	}
	if len(a.Reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(a.Reports))
	}
	for i, r := range a.Reports {
		if r.HCS < 0 || r.HCS > 1 {
			t.Fatalf("client %d HCS %v outside [0,1]", i, r.HCS)
		}
	}
}

func TestAdaFGLBeatsFedGCNOnStructureNonIID(t *testing.T) {
	// The headline claim: under structure Non-iid, AdaFGL outperforms plain
	// federated GCN because personalized propagation adapts per client.
	subs := adaSubgraphs(t, "Cora", 5, true, 2)
	cfg := quickCfg()
	fo := quickFed()
	fo.Rounds = 15

	a := &AdaFGL{Opt: quickAda()}
	resAda, err := a.Run(subs, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	gcnClients := federated.BuildClients(subs, models.Registry["GCN"], cfg, fo.Seed)
	srv := federated.NewServer(gcnClients, fo.Seed+1)
	foGCN := fo
	foGCN.LocalCorrection = 10
	resGCN, err := srv.Run(foGCN)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("AdaFGL %.3f vs FedGCN %.3f", resAda.TestAcc, resGCN.TestAcc)
	if resAda.TestAcc < resGCN.TestAcc-0.02 {
		t.Errorf("AdaFGL %.3f below FedGCN %.3f under structure Non-iid", resAda.TestAcc, resGCN.TestAcc)
	}
}

func TestAdaFGLHCSReflectsInjectedTopology(t *testing.T) {
	subs := adaSubgraphs(t, "Cora", 6, true, 3)
	a := &AdaFGL{Opt: quickAda()}
	if _, err := a.Run(subs, quickCfg(), quickFed()); err != nil {
		t.Fatal(err)
	}
	// Fig. 7: HCS should correlate with true subgraph homophily across
	// clients. Check rank agreement between extremes.
	var loH, hiH = -1, -1
	for i := range a.Reports {
		if loH == -1 || a.Reports[i].EdgeHomophily < a.Reports[loH].EdgeHomophily {
			loH = i
		}
		if hiH == -1 || a.Reports[i].EdgeHomophily > a.Reports[hiH].EdgeHomophily {
			hiH = i
		}
	}
	if a.Reports[hiH].HCS < a.Reports[loH].HCS-0.1 {
		t.Errorf("most homophilous client has HCS %.3f < least homophilous %.3f",
			a.Reports[hiH].HCS, a.Reports[loH].HCS)
	}
}

func TestAdaFGLAblationsDegrade(t *testing.T) {
	// Tables VI/VII shape: every ablation should cost accuracy (allowing
	// noise slack on small synthetic graphs).
	subs := adaSubgraphs(t, "Cora", 4, true, 4)
	cfg := quickCfg()
	fo := quickFed()
	run := func(mod func(*Options)) float64 {
		o := quickAda()
		mod(&o)
		a := &AdaFGL{Opt: o}
		res, err := a.Run(subs, cfg, fo)
		if err != nil {
			t.Fatal(err)
		}
		return res.TestAcc
	}
	full := run(func(o *Options) {})
	ablations := map[string]func(*Options){
		"w/o K.P.": func(o *Options) { o.DisableKP = true },
		"w/o T.F.": func(o *Options) { o.DisableTF = true },
		"w/o L.M.": func(o *Options) { o.DisableLM = true },
		"w/o L.T.": func(o *Options) { o.DisableLT = true },
		"w/o HCS":  func(o *Options) { o.DisableHCS = true },
	}
	for name, mod := range ablations {
		acc := run(mod)
		t.Logf("%s: %.3f (full %.3f)", name, acc, full)
		if acc > full+0.08 {
			t.Errorf("%s unexpectedly improved accuracy by a wide margin: %.3f > %.3f", name, acc, full)
		}
	}
}

func TestAdaFGLEmptyInput(t *testing.T) {
	a := New()
	if _, err := a.Run(nil, quickCfg(), quickFed()); err == nil {
		t.Fatal("empty subgraphs must error")
	}
}

func TestAdaFGLDeterministic(t *testing.T) {
	run := func() float64 {
		subs := adaSubgraphs(t, "Cora", 3, true, 5)
		a := &AdaFGL{Opt: quickAda()}
		res, err := a.Run(subs, quickCfg(), quickFed())
		if err != nil {
			t.Fatal(err)
		}
		return res.TestAcc
	}
	if a, b := run(), run(); math.Abs(a-b) > 1e-12 {
		t.Fatalf("non-deterministic: %.6f vs %.6f", a, b)
	}
}
