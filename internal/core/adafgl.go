package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Options configures the AdaFGL pipeline; defaults follow Sec. IV-A.
type Options struct {
	// Alpha is the topology-optimisation coefficient of Eq. (5).
	Alpha float64
	// Beta is the propagation-rule residual of Eq. (11).
	Beta float64
	// K is the federated knowledge-guided smoothing depth of Eq. (7).
	K int
	// LPSteps and Kappa parameterise Non-param LP (Eq. 15; paper: K=5, κ=0.5).
	LPSteps int
	Kappa   float64
	// MaskProb is the HCS masking probability (Definition 2; paper: 0.5).
	MaskProb float64
	// Epochs is the number of Step-2 personalized training epochs per client.
	Epochs int
	// ExtractorArch selects the Step-1 knowledge extractor architecture
	// (any models.Registry name; the paper uses GCN but frames Step 1 as
	// pluggable — "AdaFGL can benefit from advancements in FL optimization
	// and GNNs to obtain a more powerful federated knowledge extractor").
	ExtractorArch string

	// Ablation switches (Tables VI/VII).
	DisableKP  bool // knowledge preserving loss (Homo.)
	DisableTF  bool // topology-independent feature embedding (Hete.)
	DisableLM  bool // learnable message-passing embedding (Hete.)
	DisableLT  bool // local topology optimisation (use raw Ã instead of P̃)
	DisableHCS bool // adaptive combination (use fixed 0.5)
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	return Options{Alpha: 0.7, Beta: 0.7, K: 3, LPSteps: 5, Kappa: 0.5, MaskProb: 0.5, Epochs: 60, ExtractorArch: "GCN"}
}

// ClientReport captures the per-client diagnostics used by Figs. 2(d) and 7.
type ClientReport struct {
	HCS           float64
	EdgeHomophily float64
	TestAccuracy  float64
}

// AdaFGL is the two-step paradigm (implements the fgl.Method contract).
type AdaFGL struct {
	Opt Options
	// Reports is filled by Run with per-client diagnostics of the last call.
	Reports []ClientReport
}

// New returns AdaFGL with default options.
func New() *AdaFGL { return &AdaFGL{Opt: DefaultOptions()} }

// Name implements the method contract.
func (a *AdaFGL) Name() string { return "AdaFGL" }

// Run executes both steps: federated knowledge extraction (Alg. 1) and
// adaptive personalized propagation (Alg. 2).
func (a *AdaFGL) Run(subgraphs []*graph.Graph, cfg models.Config, fedOpt federated.Options) (*federated.Result, error) {
	if len(subgraphs) == 0 {
		return nil, fmt.Errorf("core: no subgraphs")
	}
	// ---- Step 1: federated knowledge extractor (FedAvg over the chosen
	// architecture; GCN by default). ----
	arch := a.Opt.ExtractorArch
	if arch == "" {
		arch = "GCN"
	}
	build, err := models.BuilderFor(arch)
	if err != nil {
		return nil, err
	}
	clients := federated.BuildClients(subgraphs, build, cfg, fedOpt.Seed)
	// Synchronous FedAvg unless fedOpt.Async asks for K-of-N commits.
	fedRes, err := federated.Run(clients, fedOpt.Seed+1, fedOpt)
	if err != nil {
		return nil, err
	}

	res := &federated.Result{
		RoundAcc:      fedRes.RoundAcc,
		GlobalParams:  fedRes.GlobalParams,
		BytesPerRound: fedRes.BytesPerRound,
		RoundTime:     fedRes.RoundTime,
		MeanStaleness: fedRes.MeanStaleness,
	}
	a.Reports = a.Reports[:0]

	// ---- Step 2: per-client personalized training. ----
	// Each client's Step-2 pipeline is independent and seeded from
	// (fedOpt.Seed, ci) alone, so the fan-out below is bit-reproducible for
	// any worker count; results land in per-client slots and are reduced
	// sequentially in client order.
	type step2 struct {
		acc, w, hcs float64
	}
	outs := make([]step2, len(clients))
	grp := parallel.NewGroup(parallel.Workers())
	for ci, c := range clients {
		grp.Go(func() error {
			rng := rand.New(rand.NewSource(fedOpt.Seed*7919 + int64(ci)))
			if err := nn.Unflatten(c.Model, fedRes.GlobalParams); err != nil {
				return err
			}
			p := newPersonal(c.Graph, c.Model, cfg, a.Opt, rng)
			p.train(a.Opt.Epochs)

			o := step2{hcs: p.hcs}
			if c.Graph.Eval != nil {
				// Inductive protocol: rebuild the Step-1/Step-2 pipeline on the
				// full evaluation graph and transplant the trained parameters.
				evalExtractor := build(c.Graph.Eval, cfg, rand.New(rand.NewSource(fedOpt.Seed*7919+int64(ci)+500)))
				if err := nn.Unflatten(evalExtractor, fedRes.GlobalParams); err != nil {
					return err
				}
				pe, err := newEvaluator(p, c.Graph.Eval, evalExtractor, cfg, rand.New(rand.NewSource(fedOpt.Seed*7919+int64(ci)+900)))
				if err != nil {
					return err
				}
				o.acc = pe.testAccuracy()
				o.w = float64(graph.CountMask(c.Graph.Eval.TestMask))
			} else {
				o.acc = p.testAccuracy()
				o.w = float64(graph.CountMask(c.Graph.TestMask))
			}
			outs[ci] = o
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}

	var weighted, total float64
	for ci, c := range clients {
		o := outs[ci]
		res.PerClient = append(res.PerClient, o.acc)
		weighted += o.acc * o.w
		total += o.w
		a.Reports = append(a.Reports, ClientReport{
			HCS:           o.hcs,
			EdgeHomophily: c.Graph.EdgeHomophily(),
			TestAccuracy:  o.acc,
		})
	}
	if total > 0 {
		res.TestAcc = weighted / total
	}
	return res, nil
}

// personal holds one client's Step-2 state.
type personal struct {
	g   *graph.Graph
	opt Options

	// Step-1 artifacts. The smoothed features [X̃(1) || … || X̃(K)] of Eq. (7)
	// are not kept row-major: Θ_knowledge's first layer holds them packed
	// (nn.Linear.BindInput), as Θ_feature's holds X.
	extLogits *matrix.Dense // knowledge extractor logits Ẑ
	phat      *matrix.Dense // P̂ = softmax(Ẑ)
	ptilde    *matrix.Dense // optimized propagation matrix P̃ (Eq. 5–6)

	// Trainable modules, and their parameters collected once.
	knowledge *nn.MLP // MessageUpdater Θ_knowledge → H̃ logits
	feature   *nn.MLP // Θ_feature (Eq. 10) → Hf logits
	message   *nn.MLP // Θ_message (Eq. 11) → Hm' logits
	params    nn.Module
	optimizer nn.Optimizer

	hcs float64

	// Module outputs of the last forward, owned by the modules.
	hTilde, hf, hmPrime *matrix.Dense

	// Per-epoch scratch, every one n_i×C and owned by personal: allocated on
	// first use, then overwritten — a value is valid until the next forward
	// (forward results) or backward (gradients). posH and negH hold P⁺H' and
	// P⁻H' in forward and P⁺ᵀdH, P⁻ᵀdH in backward; dS and dZ serve each
	// softmax head of backward in turn.
	sHT, sHF, sHM, hm1, posH, negH *matrix.Dense
	yho, yhe, yhat                 *matrix.Dense
	dY, dS, dZ, dHT, dKP           *matrix.Dense

	// Scratch of the learnable message-passing branch (Eq. 11), owned for the
	// whole of train; nil under DisableLM. gram is the n_i×n_i Gram matrix
	// H'H'ᵀ of the last forward and gramScale (n_i×1) its rows' L1
	// normalising factors. The evolved P̃^(1) and its PoSign/NeSign halves are
	// never held: signedProducts builds them four rows at a time from ptilde,
	// gram and gramScale, and multiplies each stripe while it is in cache —
	// so P̃ and the Gram matrix are the only n_i×n_i matrices a client holds.
	gram, gramScale *matrix.Dense
}

// newPersonal builds a client's Step-2 state for training: the shared
// preparation, then HCS and the optimiser.
func newPersonal(g *graph.Graph, extractor models.Model, cfg models.Config, opt Options, rng *rand.Rand) *personal {
	p := prepare(g, extractor, cfg, opt, rng, true)
	// HCS (Definition 2) drives the adaptive combination.
	if opt.DisableHCS {
		p.hcs = 0.5
	} else {
		p.hcs = HCS(g, opt.Kappa, opt.LPSteps, opt.MaskProb, rng)
	}
	p.params = nn.ParamList(p.modules().Params())
	p.optimizer = cfg.NewOptimizer()
	return p
}

// newEvaluator builds the evaluation-only twin of the trained client p on g
// (the inductive protocol's full graph) and transplants p's module
// parameters and HCS: the observed topology decided the combination. It
// packs no gradient operand and runs no HCS of its own — HCS is the last
// draw from rng, so skipping a score the transplant would overwrite moves
// nothing.
func newEvaluator(p *personal, g *graph.Graph, extractor models.Model, cfg models.Config, rng *rand.Rand) (*personal, error) {
	pe := prepare(g, extractor, cfg, p.opt, rng, false)
	if err := nn.Unflatten(pe.modules(), nn.Flatten(p.modules())); err != nil {
		return nil, err
	}
	pe.hcs = p.hcs
	return pe, nil
}

// prepare computes the Step-1 artifacts and builds the three modules, with
// their constant inputs packed for training when train is set and for
// evaluation only otherwise.
func prepare(g *graph.Graph, extractor models.Model, cfg models.Config, opt Options, rng *rand.Rand, train bool) *personal {
	p := &personal{g: g, opt: opt}

	// Knowledge extractor outputs on the local subgraph.
	p.extLogits = extractor.Logits(false)
	p.phat = matrix.SoftmaxRows(p.extLogits)

	// Eq. (5)–(6): optimized probability propagation matrix, then the
	// Eq. (7) K-step federated knowledge-guided smoothing. The hop-0
	// features are included in the concatenation so the MessageUpdater can
	// weigh raw against smoothed evidence (the ego term of Eq. 7's X^(0)).
	// With the learned blend, P̃ is dense and the K steps ride the blocked
	// GEMM engine; under the LT ablation P̃ is the sparse Ã, so the steps
	// reuse the graph's shared blocked-SpMM plan instead of densifying the
	// product.
	var hops []*matrix.Dense
	if opt.DisableLT {
		plan := g.NormAdjPlan(sparse.NormSym)
		p.ptilde = plan.Matrix().Dense()
		hops = models.PropagateK(plan, g.X, opt.K)
	} else {
		p.ptilde = OptimizedPropagation(g, p.phat, opt.Alpha)
		hops = make([]*matrix.Dense, 0, opt.K+1)
		hops = append(hops, g.X)
		cur := g.X
		for k := 0; k < opt.K; k++ {
			cur = matrix.Mul(p.ptilde, cur)
			hops = append(hops, cur)
		}
	}
	propX := matrix.ConcatCols(hops...)

	hidden := cfg.Hidden
	// knowledge and feature are fed constants (propX, X), bound — and packed —
	// here, so their first layers are leaves; message is fed H̃ and must hand
	// its input gradient back. All three own their buffers.
	p.knowledge = nn.NewMLP("ada.knowledge", []int{propX.Cols, hidden, g.Classes}, 0, rng).BindInput(propX, train).OwnBuffers()
	p.feature = nn.NewMLP("ada.feature", []int{g.X.Cols, hidden, g.Classes}, 0, rng).MarkLeaf().OwnBuffers()
	if !opt.DisableTF {
		p.feature.BindInput(g.X, train)
	}
	p.message = nn.NewMLP("ada.message", []int{g.Classes, hidden, g.Classes}, 0, rng).OwnBuffers()
	if !opt.DisableLM {
		p.gram, p.gramScale = matrix.New(g.N, g.N), matrix.New(g.N, 1)
	}
	return p
}

// OptimizedPropagation computes P̃ of Eq. (5)–(6): blend the local adjacency
// with the knowledge extractor's prediction-similarity matrix, zero the
// diagonal and degree-normalise symmetrically. P̃ is built inside the
// P̂P̂ᵀ product's own buffer, so the n_i×n_i matrix is the only one allocated.
func OptimizedPropagation(g *graph.Graph, phat *matrix.Dense, alpha float64) *matrix.Dense {
	n := g.N
	// The α·Ã term reads the graph's cached normalised adjacency (shared
	// with the Step-1 extractor and the LP/HCS propagation plans) one row at
	// a time, scattered into a dense row.
	adj := g.NormAdjPlan(sparse.NormSym).Matrix()
	// P = α·A + (1-α)·P̂P̂ᵀ, element by element in place of P̂P̂ᵀ. Every
	// element — those where Ã is zero too — takes round(α·a) plus (1−α)·pp:
	// the explicit float64 rounds α·a before the sum, so a build allowed to
	// fuse multiply-adds fuses only the (1−α)·pp term, as it does in
	// AddScaled(α·A, 1−α, P̂P̂ᵀ).
	p := matrix.MulT(phat, phat)
	rest := 1 - alpha
	arow := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		for k, c := range cols {
			arow[c] = vals[k]
		}
		row := p.Row(i)
		for j, a := range arow {
			row[j] = float64(alpha*a) + rest*row[j]
		}
		for _, c := range cols {
			arow[c] = 0
		}
	}
	// Eq. (6): remove self-aggregation and scale by the induced degrees.
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

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// modules returns the trainable parameter group for the optimiser.
func (p *personal) modules() nn.ParamGroup {
	return nn.ParamGroup{p.knowledge, p.feature, p.message}
}

// buf returns the n_i×C scratch matrix *m, allocating it on first use.
func (p *personal) buf(m **matrix.Dense) *matrix.Dense {
	if *m == nil {
		*m = matrix.New(p.g.N, p.g.Classes)
	}
	return *m
}

// heads counts the heterophilous heads Ŷ_he averages (Eq. 13).
func (p *personal) heads() int {
	n := 1
	if !p.opt.DisableTF {
		n++
	}
	if !p.opt.DisableLM {
		n++
	}
	return n
}

// forward computes Ŷ of Eq. (17) and caches intermediates for backward. The
// result is p's own buffer, valid until the next forward.
func (p *personal) forward() *matrix.Dense {
	// Homophilous branch: H̃ from knowledge-guided smoothing.
	p.hTilde = p.knowledge.Forward(nil)
	matrix.SoftmaxRowsInto(p.buf(&p.sHT), p.hTilde)

	// Heterophilous branch.
	if !p.opt.DisableTF {
		p.hf = p.feature.Forward(nil)
		matrix.SoftmaxRowsInto(p.buf(&p.sHF), p.hf)
	}
	if !p.opt.DisableLM {
		// Eq. (11)–(12) with one learnable message layer. The evolved P̃^(1)
		// and its signed parts are recomputed from the current (detached)
		// message embeddings each forward pass.
		p.hmPrime = p.message.Forward(p.hTilde)
		matrix.MulTInto(p.gram, p.hmPrime, p.hmPrime)
		matrix.RowL1Scales(p.gramScale.Data, p.gram)
		// H_m^(1) = H' + (P⁺H' − P⁻H').
		posH, negH := p.buf(&p.posH), p.buf(&p.negH)
		p.signedProducts(posH, negH, p.hmPrime, false)
		matrix.SubInto(posH, posH, negH)
		matrix.AddInto(p.buf(&p.hm1), p.hmPrime, posH)
		matrix.SoftmaxRowsInto(p.buf(&p.sHM), p.hm1)
	}

	// Eq. (9): Ŷ_ho = (softmax(H̃) + P̂)/2.
	yho := p.buf(&p.yho)
	matrix.ScaleInto(yho, 0.5, p.sHT)
	matrix.AddScaled(yho, 0.5, p.phat)

	// Eq. (13): Ŷ_he = mean of available heterophilous heads.
	yhe := p.buf(&p.yhe)
	yhe.Zero()
	w := 1 / float64(p.heads())
	matrix.AddScaled(yhe, w, p.sHT)
	if !p.opt.DisableTF {
		matrix.AddScaled(yhe, w, p.sHF)
	}
	if !p.opt.DisableLM {
		matrix.AddScaled(yhe, w, p.sHM)
	}

	// Eq. (17).
	matrix.ScaleInto(p.buf(&p.yhat), p.hcs, yho)
	matrix.AddScaled(p.yhat, 1-p.hcs, yhe)
	return p.yhat
}

// signedProducts computes pos = P⁺·b and neg = P⁻·b — with transposed,
// P⁺ᵀ·b and P⁻ᵀ·b — for the PoSign/NeSign halves of the evolved propagation
// matrix P = β·P̃ + (1−β)·G of Eq. (11), G the row-L1-normalised Gram matrix
// of the last forward. Neither half is held: each 4-row stripe of both is
// built by matrix.SignSplit in the engine's row-panel layout and multiplied
// on the spot (matrix.MulRowPanels), bit for bit what NormalizeRowsL1, the
// sign split and MulInto (TMulInto) on whole matrices compute. Rows of Pᵀ are
// read as rows: P̃ and the Gram matrix are bitwise symmetric (an undirected
// graph, a symmetric normalisation, products that commute), so
// Pᵀ[t][s] = β·P̃[t][s] + (1−β)·gram[t][s]·scale[s] — the same kernel with a
// per-column scale.
func (p *personal) signedProducts(pos, neg, b *matrix.Dense, transposed bool) {
	matrix.MulRowPanels([]*matrix.Dense{pos, neg}, b, func(i0 int, panels [][]float64) {
		matrix.SignSplit(panels[0], panels[1], p.opt.Beta, p.ptilde, p.gram, p.gramScale.Data, transposed, i0)
	})
}

// train runs Step-2 epochs minimising Eq. (14): L = L_CE + L_knowledge.
func (p *personal) train(epochs int) {
	for e := 0; e < epochs; e++ {
		nn.ZeroGrads(p.params)
		p.lossGrad()
		p.optimizer.Step(p.params)
	}
}

// lossGrad runs one forward and backward pass of Eq. (14), adds dL/dθ to the
// modules' gradients and returns L.
func (p *personal) lossGrad() float64 {
	// CE on the combined probability matrix.
	dY := p.buf(&p.dY)
	loss := probCrossEntropyGradInto(dY, p.forward(), p.g.Labels, p.g.TrainMask)
	p.backward(dY)

	// Eq. (8): knowledge preserving on the homophilous branch. H̃ is still
	// the last forward's: backward runs no forward.
	if !p.opt.DisableKP {
		dKP := p.buf(&p.dKP)
		loss += nn.MSELossInto(dKP, p.hTilde, p.extLogits)
		p.knowledge.Backward(dKP)
	}
	return loss
}

// backward routes dL/dŶ through every branch of forward.
func (p *personal) backward(dY *matrix.Dense) {
	heWeight := (1 - p.hcs) / float64(p.heads())
	dS, dZ := p.buf(&p.dS), p.buf(&p.dZ)

	// d softmax(H̃): from Ŷ_ho (weight hcs·½) and Ŷ_he (weight heWeight).
	matrix.ScaleInto(dS, p.hcs*0.5+heWeight, dY)
	dHT := p.buf(&p.dHT)
	softmaxBackwardInto(dHT, p.sHT, dS)

	if !p.opt.DisableLM {
		matrix.ScaleInto(dS, heWeight, dY)
		softmaxBackwardInto(dZ, p.sHM, dS)
		// H_m^(1) = (I + P⁺ − P⁻)·H' ⇒ dH' = dH_m + (P⁺ᵀ·dH_m − P⁻ᵀ·dH_m).
		posH, negH := p.buf(&p.posH), p.buf(&p.negH)
		p.signedProducts(posH, negH, dZ, true)
		matrix.SubInto(posH, posH, negH)
		matrix.AddInto(posH, dZ, posH)
		matrix.AddInPlace(dHT, p.message.Backward(posH))
	}
	p.knowledge.Backward(dHT)

	if !p.opt.DisableTF {
		matrix.ScaleInto(dS, heWeight, dY)
		softmaxBackwardInto(dZ, p.sHF, dS)
		p.feature.Backward(dZ)
	}
}

// testAccuracy scores the combined prediction on the local test mask.
func (p *personal) testAccuracy() float64 {
	yhat := p.forward()
	return models.AccuracyFromLogits(yhat, p.g.Labels, p.g.TestMask)
}

// probCrossEntropyGradInto computes masked mean NLL on a probability matrix
// and writes its gradient dL/dP into grad (probs' shape).
func probCrossEntropyGradInto(grad, probs *matrix.Dense, labels []int, mask []bool) float64 {
	grad.Zero()
	count := 0
	var loss float64
	for i := 0; i < probs.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		count++
		pv := probs.At(i, labels[i])
		if pv < 1e-9 {
			pv = 1e-9
		}
		loss -= math.Log(pv)
		grad.Set(i, labels[i], -1/pv)
	}
	if count == 0 {
		return 0
	}
	inv := 1 / float64(count)
	matrix.ScaleInPlace(grad, inv)
	return loss * inv
}

// softmaxBackwardInto writes dL/dZ into out from S = softmax(Z) and dL/dS.
func softmaxBackwardInto(out, s, dS *matrix.Dense) {
	for i := 0; i < s.Rows; i++ {
		srow, drow, orow := s.Row(i), dS.Row(i), out.Row(i)
		var dot float64
		for j := range srow {
			dot += srow[j] * drow[j]
		}
		for j := range srow {
			orow[j] = srow[j] * (drow[j] - dot)
		}
	}
}
